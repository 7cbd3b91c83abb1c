package main

import "testing"

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{20, 0.5, true},
		{19, 0.5, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{0, 0.5, false},
		{5, 0.5, false},
	}
	for _, c := range cases {
		if got := reportable(c.n, c.q); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v (beyond = %d)", c.n, c.q, got, c.want, beyond(c.n, c.q))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestReportRecordsSampleCount(t *testing.T) {
	r := newReport()
	xs := make([]float64, 25)
	for i := range xs {
		xs[i] = float64(i)
	}
	r.pct("x_p50_ms", "ms", xs, 0.5)
	r.pct("x_p99_ms", "ms", xs, 0.99)
	p50, _ := r.get("x_p50_ms")
	p99, _ := r.get("x_p99_ms")
	if p50.N != 25 || !p50.OK || p50.Value != 12 {
		t.Errorf("p50 = %+v", p50)
	}
	if p99.N != 25 || p99.OK {
		t.Errorf("p99 over 25 samples must be marked, got %+v", p99)
	}
}

func TestRouteP50IgnoresMix(t *testing.T) {
	repeat := func(v float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	mix := func(fast, slow int) map[string]*routeSamples {
		return map[string]*routeSamples{
			"GET /fast":  {class: classRead, ms: repeat(1, fast)},
			"GET /slow":  {class: classRead, ms: repeat(100, slow)},
			"POST /slow": {class: classMutation, ms: repeat(7, 30)},
		}
	}
	order := []string{"GET /fast", "GET /slow", "POST /slow"}
	for _, counts := range [][2]int{{30, 30}, {200, 25}, {25, 200}} {
		m := routeP50("read_route_p50_ms", order, mix(counts[0], counts[1]), classRead)
		if m.Value < 9.999 || m.Value > 10.001 || m.N != counts[0]+counts[1] || !m.OK {
			t.Errorf("mix %v: got %+v, want the geometric mean 10 over both read routes", counts, m)
		}
	}
	if m := routeP50("read_route_p50_ms", order, mix(30, 5), classRead); m.OK {
		t.Errorf("a route median over 5 samples must fail the percentile rule, got %+v", m)
	}
	if m := routeP50("mutation_route_p50_ms", order, mix(30, 30), classMutation); m.Value != 7 || m.N != 30 {
		t.Errorf("mutations: got %+v, want 7 over 30 samples", m)
	}
}
