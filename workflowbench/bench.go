package main

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run sets the workload up from nothing;
// setup_s is their median. The last set-up is the one measured.
const setupReps = 5

// recoveryReps is how many times a run reopens the populated data
// directory; recovery_s is their median.
const recoveryReps = 3

// bench is the state of one run.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	traced  bool
	runDir  string
	conns   int

	e2e, layers *report
	shareLines  []string
	routeLines  []string

	attempted, failed       int
	failures                []string
	checksRun, checksFailed int

	heap *heapSampler // started by the workload once its inputs exist
}

// checks counts answer checks and keeps the failures' messages. One value
// may be shared by several goroutines.
type checks struct {
	mu     sync.Mutex
	n      int
	failed []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if !ok {
		c.failed = append(c.failed, fmt.Sprintf(format, args...))
	}
}

// firstFailure returns the first failed check as an error, or nil.
func (c *checks) firstFailure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failed) == 0 {
		return nil
	}
	return fmt.Errorf("%s", c.failed[0])
}

// absorbChecks counts answer checks into the run; each failure counts
// against the request whose answer was wrong.
func (b *bench) absorbChecks(cs ...*checks) {
	for _, c := range cs {
		b.checksRun += c.n
		for _, f := range c.failed {
			b.checkFailed("%s", f)
		}
	}
}

func (b *bench) errorRate() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

func (b *bench) correct() bool { return b.attempted > 0 && b.failed == 0 && b.checksFailed == 0 }

// absorb counts a finished meter's requests and failures into the run.
func (b *bench) absorb(ms ...*meter) {
	for _, m := range ms {
		for _, o := range m.obs {
			b.attempted++
			if !o.ok {
				b.failed++
			}
		}
		b.note(m.failures...)
	}
}

// checkFailed records a failed answer check. It counts against the request
// whose answer was wrong (already counted as attempted).
func (b *bench) checkFailed(format string, args ...any) {
	b.failed++
	b.checksFailed++
	b.note(fmt.Sprintf(format, args...))
}

func (b *bench) note(msgs ...string) {
	for _, s := range msgs {
		if len(b.failures) < 20 {
			b.failures = append(b.failures, s)
		}
	}
}

// freshDir returns an empty data directory for the i-th server of the run.
func (b *bench) freshDir(tag string, i int) (string, error) {
	dir := filepath.Join(b.runDir, fmt.Sprintf("%s-%d", tag, i))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

// setupTimed runs populate against setupReps fresh servers, times each
// from server.Open to the end of populate, keeps the last server running
// and records setup_s.
func (b *bench) setupTimed(rec *recorder, populate func(h *harness, c *client) error) (*harness, *client, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		dir, err := b.freshDir("setup", i)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		h, _, err := openHarness(dir, rec)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(h.base, b.conns, nil)
		if err := populate(h, c); err != nil {
			c.close()
			h.stop()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupReps-1 {
			b.e2e.value("setup_s", "s", median(times), len(times))
			b.routeLines = append(b.routeLines, fmt.Sprintf("setup runs (s): %.4g", times))
			return h, c, nil
		}
		c.close()
		if err := h.stop(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	panic("unreachable")
}

// stateDigest fetches the durable state of every workspace: schemas,
// equivalences, integrations and, for the generated pair, both assertion
// matrices. Bodies are compared byte for byte across a restart.
func stateDigest(c *client) (map[string]string, error) {
	m := &meter{}
	var list struct {
		Workspaces []struct {
			Name string `json:"name"`
		} `json:"workspaces"`
	}
	if _, err := c.call(m, nil, time.Time{}, "GET", "/v1/workspaces", nil, http.StatusOK, &list); err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, w := range list.Workspaces {
		p := "/v1/workspaces/" + url.PathEscape(w.Name)
		paths := []string{"/schemas", "/equivalences", "/integrations"}
		var schemas struct {
			Schemas []struct {
				Name string `json:"name"`
			} `json:"schemas"`
		}
		body, err := c.call(m, nil, time.Time{}, "GET", p+"/schemas", nil, http.StatusOK, &schemas)
		if err != nil {
			return nil, err
		}
		out[w.Name+"/schemas"] = string(body)
		names := map[string]bool{}
		for _, s := range schemas.Schemas {
			names[s.Name] = true
		}
		if names["w1"] && names["w2"] {
			paths = append(paths, "/assertions?schema1=w1&schema2=w2", "/assertions?schema1=w1&schema2=w2&kind=relationships")
		}
		for _, path := range paths[1:] {
			body, err := c.call(m, nil, time.Time{}, "GET", p+path, nil, http.StatusOK, nil)
			if err != nil {
				return nil, err
			}
			out[w.Name+path] = string(body)
		}
	}
	return out, nil
}

// recoverTimed stops the server, reopens its data directory recoveryReps
// times (timing server.Open until /healthz answers), compares the durable
// state before and after each restart, and records recovery_s and
// journal.replayed_records. It returns the reopened server.
func (b *bench) recoverTimed(h *harness, c *client) (*harness, *client, error) {
	before, err := stateDigest(c)
	if err != nil {
		return nil, nil, fmt.Errorf("state before restart: %w", err)
	}
	var times []float64
	replayed := 0
	for i := 0; i < recoveryReps; i++ {
		c.close()
		if err := h.stop(); err != nil {
			return nil, nil, fmt.Errorf("stop: %w", err)
		}
		start := time.Now()
		nh, rep, err := openHarness(h.dir, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("recover: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		h, c = nh, newClient(nh.base, b.conns, nil)
		if i == 0 {
			replayed = rep.ReplayedRecords
		}
		after, err := stateDigest(c)
		if err != nil {
			return nil, nil, fmt.Errorf("state after restart: %w", err)
		}
		b.attempted++
		b.checksRun++
		if diff := digestDiff(before, after); diff != "" {
			b.checkFailed("recovery %d: state differs after restart: %s", i+1, diff)
		}
	}
	b.e2e.value("recovery_s", "s", median(times), len(times))
	b.layers.value("journal.replayed_records", "count", float64(replayed), 1)
	return h, c, nil
}

func digestDiff(a, b map[string]string) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if a[k] != b[k] {
			diffs = append(diffs, k)
		}
	}
	sort.Strings(diffs)
	if len(diffs) == 0 {
		return ""
	}
	return strings.Join(diffs, ", ")
}

// heapSampler samples the process's in-use heap (heap object bytes, as
// runtime/metrics counts them) every few milliseconds. It starts once the
// workload's inputs exist: it collects garbage first and subtracts the live
// heap it finds, which is mostly the generated inputs the client holds for
// the whole run, so the samples show what serving the workload adds.
type heapSampler struct {
	base    uint64
	stopc   chan struct{}
	done    chan struct{}
	samples []float64 // MB above base; written by the sampling goroutine until done
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	h := &heapSampler{base: live[0].Value.Uint64(), stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, (float64(sample[0].Value.Uint64())-float64(h.base))/(1<<20))
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and records peak_heap_mb, the largest sample, and
// heap_p95_mb, their 95th percentile. The peak is one instant, decided by
// when the collector last ran; the percentile describes the whole run and
// is the one compared between runs.
func (h *heapSampler) stop(r *report) {
	close(h.stopc)
	<-h.done
	r.value("peak_heap_mb", "MB", quantile(h.samples, 1), len(h.samples))
	r.pct("heap_p95_mb", "MB", h.samples, 0.95)
	r.value("inputs_heap_mb", "MB", float64(h.base)/(1<<20), 1)
}

// phase collects the meters of one measured phase.
type phase struct {
	meters  []*meter
	elapsed time.Duration
}

func (p *phase) all() []obs {
	var out []obs
	for _, m := range p.meters {
		out = append(out, m.obs...)
	}
	return out
}

// latencies returns the latencies in ms of the observations matching keep.
func latencies(all []obs, keep func(obs) bool) []float64 {
	var out []float64
	for _, o := range all {
		if o.ok && keep(o) {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

func isClass(c class) func(obs) bool  { return func(o obs) bool { return o.class == c } }
func isRoute(r string) func(obs) bool { return func(o obs) bool { return o.route == r } }

// reportRequests records the request-latency metrics every workload has.
func (b *bench) reportRequests(p *phase) {
	all := p.all()
	muts := latencies(all, isClass(classMutation))
	reads := latencies(all, isClass(classRead))
	b.e2e.pct("mutation_p50_ms", "ms", muts, 0.5)
	b.e2e.pct("mutation_p99_ms", "ms", muts, 0.99)
	b.e2e.pct("read_p50_ms", "ms", reads, 0.5)
	b.e2e.pct("read_p99_ms", "ms", reads, 0.99)
	byRoute := map[string]*routeSamples{}
	for _, o := range all {
		if !o.ok {
			continue
		}
		key := o.route
		if o.variant != "" {
			key += " [" + o.variant + "]"
		}
		rs := byRoute[key]
		if rs == nil {
			rs = &routeSamples{class: o.class}
			byRoute[key] = rs
		}
		rs.ms = append(rs.ms, ms(o.latency()))
	}
	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	b.e2e.add(routeP50("mutation_route_p50_ms", routes, byRoute, classMutation))
	b.e2e.add(routeP50("read_route_p50_ms", routes, byRoute, classRead))
	for _, r := range routes {
		xs := byRoute[r].ms
		b.routeLines = append(b.routeLines, fmt.Sprintf("route %-28s p50 %10.4g ms  max %10.4g ms  n=%d",
			r, median(xs), quantile(xs, 1), len(xs)))
	}
}

// routeSamples are the latencies in ms of one route variant's requests.
type routeSamples struct {
	class class
	ms    []float64
}

// routeP50 is the geometric mean, over the route variants of one class (in
// the order given), of each variant's median latency. The median of all
// the class's requests lands in whichever route the mix of fast and slow
// routes puts it, so it jumps when the mix or one route's tail moves; this
// figure does not depend on the mix, and a change in any one route moves
// it by the same share whatever that route's speed. It passes the
// percentile rule when every variant's median does.
func routeP50(name string, order []string, byRoute map[string]*routeSamples, c class) metric {
	m := metric{Name: name, Unit: "ms", OK: true}
	var logSum float64
	n := 0
	for _, r := range order {
		rs := byRoute[r]
		if rs.class != c {
			continue
		}
		logSum += math.Log(median(rs.ms))
		m.N += len(rs.ms)
		m.OK = m.OK && reportable(len(rs.ms), 0.5)
		n++
	}
	if n == 0 {
		m.OK = false
		return m
	}
	m.Value = math.Exp(logSum / float64(n))
	return m
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(*bench) error{
	"dda-session":    runDDASession,
	"analysis-reads": runAnalysisReads,
	"bulk-integrate": runBulkIntegrate,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
