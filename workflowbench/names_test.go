package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestMetricNamesAreWellFormed(t *testing.T) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		seen := map[string]bool{}
		for _, spec := range list {
			n := spec.name
			if !metricName.MatchString(n) || len(n) > 64 {
				t.Errorf("metric name %q does not match %s", n, metricName)
			}
			if seen[n] {
				t.Errorf("metric %q listed twice", n)
			}
			seen[n] = true
		}
	}
}

// TestBenchmarkFileListsEveryMetric keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestBenchmarkFileListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []entry) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name+" "+x.Unit)
		}
		return out
	}
	specs := func(xs []metricSpec) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.name+" "+x.unit)
		}
		return out
	}
	check := func(what string, got, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %v, the command prints %v", what, got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %q, the command prints %q", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", names(spec.EndToEnd), specs(endToEnd))
	check("per_layer", names(spec.PerLayer), specs(perLayer))
	// analysis-reads runs by hand only; README.md says why it is not compared.
	check("workloads", names(spec.Workloads), []string{"dda-session ", "bulk-integrate "})
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no run function", w.Name)
		}
	}
}
