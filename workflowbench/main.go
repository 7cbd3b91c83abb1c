// Command workflowbench times the paper's database-designer (DDA) workflow
// over HTTP against a durable sit-server and splits the time by layer.
//
// It starts the server in-process (server.Open with the default SyncAlways
// fsync policy, data directory on local disk, real loopback listener),
// drives one workload through it, checks every answer against the
// generator's oracle, and prints one line per metric followed by one JSON
// object:
//
//	workflowbench --workload dda-session --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the workload untraced and then traced, reports the per-layer
// metrics, and writes the spans to .bench_build/workflowbench/. Every input
// is generated from --seed. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// buildDir holds everything a run writes: data directories and spans
// files. It is relative to the working directory, the checkout root.
const buildDir = ".bench_build/workflowbench"

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names one metric of the final JSON line and its unit.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer list the metrics of the final JSON line, in the
// order BENCHMARK.json declares them. Every workload reports each of them;
// the other end-to-end metrics are printed as text only, because they do
// not exist on every workload or are too small to compare between runs.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_p95_mb", "MB"},
	{"mutation_route_p50_ms", "ms"},
	{"read_route_p50_ms", "ms"},
	{"integrate_p50_ms", "ms"},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: dda-session, analysis-reads or bulk-integrate")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 20, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: workflowbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runDir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "workflowbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	b := &bench{
		name:    *name,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		runDir:  runDir,
		conns:   runtime.NumCPU(),
		e2e:     newReport(),
		layers:  newReport(),
	}
	err := wl(b)
	if b.heap != nil {
		b.heap.stop(b.e2e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "workflowbench:", err)
		return 1
	}
	b.e2e.value("error_rate", "ratio", b.errorRate(), b.attempted)

	fmt.Printf("workflowbench workload=%s seed=%d seconds=%d trace=%d clients<=%d\n",
		b.name, b.seed, *seconds, *trace, b.conns)
	for _, f := range b.failures {
		fmt.Printf("failure: %s\n", f)
	}
	fmt.Printf("attempted=%d failed=%d error_rate=%.6g answer_checks=%d failed_checks=%d\n",
		b.attempted, b.failed, b.errorRate(), b.checksRun, b.checksFailed)
	b.e2e.print(os.Stdout, "e2e   ")
	for _, line := range b.routeLines {
		fmt.Println(line)
	}
	if b.traced {
		b.layers.print(os.Stdout, "layer ")
		for _, line := range b.shareLines {
			fmt.Println(line)
		}
	}

	res := result{Correct: b.correct(), Attempted: b.attempted, Failed: b.failed, Metrics: map[string]jsonMetric{}}
	names, rep := endToEnd, b.e2e
	if b.traced {
		names, rep = perLayer, b.layers
	}
	for _, spec := range names {
		m, ok := rep.get(spec.name)
		if !ok || m.Unit != spec.unit {
			fmt.Fprintf(os.Stderr, "workflowbench: metric %s was not measured in %s\n", spec.name, spec.unit)
			return 1
		}
		res.Metrics[spec.name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "workflowbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}
