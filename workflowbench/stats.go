package main

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// beyond counts the samples strictly above the nearest-rank q-quantile of n
// samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q) - 1
}

// rank is the zero-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	return min(max(k, 0), n-1)
}

// reportable says whether the q-quantile of n samples passes the rule.
func reportable(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metric is one reported number with its unit and the count of samples it
// was computed from. OK is false when a percentile fails the rule; the
// value is then printed for reference but marked.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	OK    bool
}

// metricName is the pattern every metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// report collects metrics in the order they are added.
type report struct {
	metrics []metric
	index   map[string]int
}

func newReport() *report { return &report{index: map[string]int{}} }

func (r *report) add(m metric) {
	if !metricName.MatchString(m.Name) {
		panic(fmt.Sprintf("workflowbench: bad metric name %q", m.Name))
	}
	if i, ok := r.index[m.Name]; ok {
		r.metrics[i] = m
		return
	}
	r.index[m.Name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// value records a plain measurement (a count, ratio or single timing).
func (r *report) value(name, unit string, v float64, n int) {
	r.add(metric{Name: name, Unit: unit, Value: v, N: n, OK: true})
}

// pct records the q-quantile of xs, applying the percentile rule.
func (r *report) pct(name, unit string, xs []float64, q float64) {
	r.add(metric{Name: name, Unit: unit, Value: quantile(xs, q), N: len(xs), OK: reportable(len(xs), q)})
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

// print writes one line per metric: name, value, unit, sample count, and a
// mark on percentiles the rule does not allow.
func (r *report) print(w io.Writer, prefix string) {
	for _, m := range r.metrics {
		note := ""
		if !m.OK {
			note = fmt.Sprintf("  (fewer than %d samples beyond this percentile; indicative only)", minBeyond)
		}
		fmt.Fprintf(w, "%s%-36s %14.6g %-6s n=%d%s\n", prefix, m.Name, m.Value, m.Unit, m.N, note)
	}
}

// durations converts to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
