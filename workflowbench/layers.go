package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/ecr"
	"repro/internal/integrate"
	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/server"
	"repro/internal/translate"
)

// perLayer lists the per-layer metrics of the final JSON line in a traced
// run, in the order BENCHMARK.json declares them.
var perLayer = []metricSpec{
	{"server.read_handler_p50_ms", "ms"},
	{"server.read_handler_p99_ms", "ms"},
	{"server.mutation_handler_p50_ms", "ms"},
	{"server.mutation_handler_p99_ms", "ms"},
	{"server.resp_bytes_per_read", "B"},
	{"server.encode_ms.resemblance", "ms"},
	{"server.encode_ms.matrix", "ms"},
	{"net.client_overhead_p50_ms", "ms"},
	{"admission.rejected", "count"},
	{"store.add_schemas_ms", "ms"},
	{"store.declare_equiv_us", "us"},
	{"store.assert_us", "us"},
	{"store.retract_us", "us"},
	{"store.ranked_pairs_cold_ms", "ms"},
	{"store.matrix_cold_ms", "ms"},
	{"store.suggest_ms", "ms"},
	{"store.translate_query_us", "us"},
	{"store.load_rows_us", "us"},
	{"store.read_p99_us_with_writer", "us"},
	{"store.sim_cache_hit_ratio", "ratio"},
	{"store.closure_cache_hit_ratio", "ratio"},
	{"journal.append_p50_us", "us"},
	{"journal.append_p99_us", "us"},
	{"journal.fsync_p50_us", "us"},
	{"journal.fsync_p99_us", "us"},
	{"journal.fsyncs_per_mutation", "count"},
	{"journal.appends_per_session", "count"},
	{"journal.bytes_per_user_byte", "ratio"},
	{"journal.compactions", "count"},
	{"journal.compact_ms", "ms"},
	{"journal.replayed_records", "count"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"translate.parse_ms.dictionary", "ms"},
	{"translate.parse_ms.sql", "ms"},
	{"translate.parse_ms.jsonschema", "ms"},
	{"translate.parse_ms.avro", "ms"},
	{"ecr.validate_ms", "ms"},
	{"ecr.encode_json_ms", "ms"},
	{"similarity.rank_warm_us", "us"},
	{"assertion.derived_per_assert", "count"},
	{"integrate.integrate_ms", "ms"},
	{"batch.run_ms", "ms"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"tracing.overhead_pct", "%"},
}

// layerPhase holds the counters read when a traced phase starts.
type layerPhase struct {
	h       *harness
	before  server.MetricsSnapshot
	runtime []metrics.Sample
}

var runtimeMetrics = []string{
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// serverMetrics reads the server's /metrics document.
func serverMetrics(c *client) (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	_, err := c.call(&meter{}, nil, time.Time{}, "GET", "/metrics", nil, http.StatusOK, &snap)
	return snap, err
}

func startLayerPhase(h *harness) *layerPhase {
	lp := &layerPhase{h: h}
	lp.before, _ = serverMetrics(newClient(h.base, 1, nil))
	lp.runtime = readRuntime()
	return lp
}

// layerUnits is what the traced phase completed, for per-unit ratios.
type layerUnits struct {
	n    int
	name string
}

// finishLayerPhase turns the traced phase's spans and counter deltas into
// the server, journal, runtime and tracing metrics, and writes the spans
// file.
func (b *bench) finishLayerPhase(lp *layerPhase, p *phase, rec *recorder, units layerUnits) {
	after, err := serverMetrics(newClient(lp.h.base, 1, nil))
	if err != nil {
		b.note("read /metrics: " + err.Error())
	}
	rt := readRuntime()
	spans := rec.snapshot()

	var reads, muts, overheads []float64
	var readBytes int64
	handlers := map[uint64]span{}
	for _, s := range spans {
		if s.Name == "server.handler" {
			handlers[s.Parent] = s
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "server.handler":
			if routeClass[s.Label] == classMutation {
				muts = append(muts, ms(s.dur()))
			} else {
				reads = append(reads, ms(s.dur()))
				readBytes += s.Bytes
			}
		case "client.request":
			if hs, ok := handlers[s.ID]; ok {
				overheads = append(overheads, ms(s.dur()-hs.dur()))
			}
		}
	}
	b.layers.pct("server.read_handler_p50_ms", "ms", reads, 0.5)
	b.layers.pct("server.read_handler_p99_ms", "ms", append([]float64(nil), reads...), 0.99)
	b.layers.pct("server.mutation_handler_p50_ms", "ms", muts, 0.5)
	b.layers.pct("server.mutation_handler_p99_ms", "ms", append([]float64(nil), muts...), 0.99)
	b.layers.value("server.resp_bytes_per_read", "B", ratio64(float64(readBytes), len(reads)), len(reads))
	b.layers.pct("net.client_overhead_p50_ms", "ms", overheads, 0.5)

	d := func(a, b uint64) float64 {
		if a < b {
			return 0
		}
		return float64(a - b)
	}
	adm := func(s server.MetricsSnapshot) uint64 {
		return s.Admission.AuthFailuresTotal + s.Admission.RateLimitedTotal + s.Admission.QuotaRejectionsTotal + s.Admission.BodyTooLargeTotal
	}
	b.layers.value("admission.rejected", "count", d(adm(after), adm(lp.before)), len(spans))
	// Cache counters are summed over live workspaces, so workloads that
	// delete their workspaces leave no delta; the store replay reports the
	// ratios for those.
	simH, simM := d(after.SimilarityCacheHits, lp.before.SimilarityCacheHits), d(after.SimilarityCacheMisses, lp.before.SimilarityCacheMisses)
	if simH+simM > 0 {
		b.layers.value("store.sim_cache_hit_ratio", "ratio", simH/(simH+simM), int(simH+simM))
	}
	cloH, cloM := d(after.ClosureCacheHits, lp.before.ClosureCacheHits), d(after.ClosureCacheMisses, lp.before.ClosureCacheMisses)
	if cloH+cloM > 0 {
		b.layers.value("store.closure_cache_hit_ratio", "ratio", cloH/(cloH+cloM), int(cloH+cloM))
	}

	mutations := 0
	for _, o := range p.all() {
		if o.ok && o.class == classMutation {
			mutations++
		}
	}
	if after.Journal != nil && lp.before.Journal != nil {
		fs := d(after.Journal.FsyncSeconds.Count, lp.before.Journal.FsyncSeconds.Count)
		b.layers.value("journal.fsyncs_per_mutation", "count", ratio64(fs, mutations), mutations)
		apps := d(after.Journal.AppendsTotal, lp.before.Journal.AppendsTotal)
		b.layers.value("journal.appends_per_session", "count", ratio64(apps, units.n), units.n)
		b.layers.value("journal.compactions", "count", d(after.Journal.CompactionsTotal, lp.before.Journal.CompactionsTotal), 1)
	}

	pauses := histDelta(rt[0].Value.Float64Histogram(), lp.runtime[0].Value.Float64Histogram())
	p99, n := histQuantile(pauses, 0.99)
	b.layers.add(metric{Name: "runtime.gc_pause_p99_us", Unit: "us", Value: p99 * 1e6, N: n, OK: reportable(n, 0.99)})
	gcCPU := rt[1].Value.Float64() - lp.runtime[1].Value.Float64()
	allCPU := rt[2].Value.Float64() - lp.runtime[2].Value.Float64()
	b.layers.value("runtime.gc_cpu_fraction", "ratio", ratio64(gcCPU*1e6, int(allCPU*1e6)), 1)

	b.addShares(spans, "traced phase")
	path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.name, b.seed))
	if err := rec.writeFile(path); err != nil {
		b.note("write spans: " + err.Error())
	} else {
		b.shareLines = append(b.shareLines, fmt.Sprintf("spans written to %s (%d spans, %s per unit: %s)", path, len(spans), units.name, fmt.Sprint(units.n)))
	}
}

// addShares appends the self-time share of each span name to the report.
func (b *bench) addShares(spans []span, title string) {
	shares := layerShares(spans)
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	b.shareLines = append(b.shareLines, "self-time shares, "+title+":")
	for _, n := range names {
		b.shareLines = append(b.shareLines, fmt.Sprintf("share %-28s %6.2f%%", n, 100*shares[n]))
	}
}

func ratio64(a float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return a / float64(n)
}

// histDelta subtracts two snapshots of one cumulative runtime histogram.
func histDelta(a, b *metrics.Float64Histogram) *metrics.Float64Histogram {
	out := &metrics.Float64Histogram{Buckets: a.Buckets, Counts: make([]uint64, len(a.Counts))}
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	return out
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile, and the sample count.
func histQuantile(h *metrics.Float64Histogram, q float64) (float64, int) {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h.Buckets[i]
			}
			return hi, int(total)
		}
	}
	return h.Buckets[len(h.Buckets)-1], int(total)
}

// overhead records tracing.overhead_pct: how much the traced phase's median
// of the workload's main timing exceeds the untraced phase's.
func (b *bench) overhead(untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	v := 0.0
	if u > 0 {
		v = 100 * (t - u) / u
	}
	b.layers.value("tracing.overhead_pct", "%", v, min(len(untraced), len(traced)))
}

// thinkGaps is a closed loop's lateness: the gap between a response and the
// same client's next request, less any deliberate pause between them.
func thinkGaps(p *phase) []float64 {
	var out []float64
	for _, m := range p.meters {
		for i := 1; i < len(m.obs); i++ {
			out = append(out, ms(m.obs[i].sent.Sub(m.obs[i-1].done)-m.obs[i].pause))
		}
	}
	return out
}

// probeInputs are the inputs of the layer probes: storePair drives the
// store and journal replay, pair and forms size the parse, validate and
// integrate probes.
type probeInputs struct {
	storePair *pairInputs
	pair      *pairInputs
	forms     map[string]formSource
	skipJobs  bool
}

// replayReps is how many times the store replay runs from a fresh store and
// journal.
const replayReps = 4

// reassertCycles is the number of retract/re-assert pairs per replay, enough
// that the journal percentiles pass the percentile rule.
const reassertCycles = 150

// probeLayers times calls into each module's public functions with the
// workload's inputs and records spans around them.
func (b *bench) probeLayers(h *harness, c *client, in probeInputs) error {
	rec := newRecorder()
	if err := b.replayStore(rec, in.storePair); err != nil {
		return fmt.Errorf("store replay: %w", err)
	}
	if err := b.probeModules(rec, in); err != nil {
		return err
	}
	var compacts []float64
	for i := 0; i < 3; i++ {
		sp := rec.start("server.Compact", "", nil)
		t0 := time.Now()
		if err := h.srv.Compact(); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		compacts = append(compacts, ms(time.Since(t0)))
		sp.end()
	}
	b.layers.value("journal.compact_ms", "ms", median(compacts), len(compacts))
	if !in.skipJobs {
		if err := b.probeJobs(c, in.storePair); err != nil {
			return err
		}
	}
	b.addShares(rec.snapshot(), "layer probes")
	return rec.writeFile(filepath.Join(buildDir, fmt.Sprintf("probes-%s-seed%d.jsonl", b.name, b.seed)))
}

// timed runs fn under a span and returns its duration.
func timed(rec *recorder, name string, parent *active, fn func() error) (time.Duration, error) {
	sp := rec.start(name, "", parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.end()
	return d, err
}

// encodeLikeServer encodes v the way the server writes every response
// body: a JSON encoder with two-space indentation.
func encodeLikeServer(v any) error {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// replayStore replays the DDA flow's store operations against
// server.NewStore with a persist hook that appends to a journal of its own,
// so store self time and journal time separate.
func (b *bench) replayStore(rec *recorder, p *pairInputs) error {
	var (
		mu     sync.Mutex
		fsyncs []float64
		cur    *active
	)
	us := func(ds []time.Duration) []float64 { return durations(ds, time.Microsecond) }
	var rankCold, matrixCold, suggest, rankWarm, encRes, encMat []float64
	var translateQ []time.Duration
	var bodyBytes int64
	var simHits, simLookups, cloHits, cloLookups uint64
	var derived, asserts int
	for rep := 0; rep < replayReps; rep++ {
		dir := filepath.Join(b.runDir, fmt.Sprintf("replay-%d", rep))
		j, err := journal.Open(dir, journal.Options{Sync: journal.SyncAlways})
		if err != nil {
			return err
		}
		j.SetObserver(func(fsync time.Duration, err error) {
			if fsync > 0 {
				mu.Lock()
				fsyncs = append(fsyncs, float64(fsync)/float64(time.Microsecond))
				mu.Unlock()
			}
		})
		st := server.NewStore()
		st.SetPersist(func(op string, v any) error {
			sp := rec.start("journal.Append", op, cur)
			_, err := j.Append(op, v)
			sp.end()
			return err
		})
		// op runs one store call under a span named for it, with the
		// journal appends it makes as children.
		op := func(name string, fn func() error) (time.Duration, error) {
			sp := rec.start(name, "", nil)
			cur = sp
			t0 := time.Now()
			err := fn()
			d := time.Since(t0)
			sp.end()
			cur = nil
			return d, err
		}
		body := func(v any) {
			data, _ := json.Marshal(v)
			bodyBytes += int64(len(data))
		}

		s1, s2 := p.w.S1.Clone(), p.w.S2.Clone()
		if _, err := op("store.AddSchemas", func() error { _, err := st.AddSchemas([]*ecr.Schema{s1, s2}); return err }); err != nil {
			return err
		}
		body(map[string]string{"ddl": p.ddl})
		for _, e := range p.equivs {
			_, err := op("store.DeclareEquivalence", func() error { return st.DeclareEquivalence(e.Schema1, e.Attr1, e.Schema2, e.Attr2) })
			if err != nil {
				return err
			}
			body(e)
		}
		var matrix any
		d, err := op("store.Matrix", func() error { var err error; matrix, err = st.Matrix("w1", "w2", false); return err })
		if err != nil {
			return err
		}
		matrixCold = append(matrixCold, ms(d))
		d, err = timed(rec, "encode.matrix", nil, func() error { return encodeLikeServer(map[string]any{"matrix": matrix}) })
		if err != nil {
			return err
		}
		encMat = append(encMat, ms(d))
		// Re-declaring a held equivalence changes nothing but invalidates
		// the similarity cache, so the ranking below runs cold.
		e0 := p.equivs[0]
		if _, err := op("store.DeclareEquivalence", func() error { return st.DeclareEquivalence(e0.Schema1, e0.Attr1, e0.Schema2, e0.Attr2) }); err != nil {
			return err
		}
		body(e0)
		var pairs any
		d, err = op("store.RankedPairs", func() error { var err error; pairs, err = st.RankedPairs("w1", "w2", false); return err })
		if err != nil {
			return err
		}
		rankCold = append(rankCold, ms(d))
		for i := 0; i < 20; i++ {
			d, err := op("store.RankedPairs", func() error { _, err := st.RankedPairs("w1", "w2", false); return err })
			if err != nil {
				return err
			}
			rankWarm = append(rankWarm, float64(d)/float64(time.Microsecond))
		}
		d, err = timed(rec, "encode.resemblance", nil, func() error { return encodeLikeServer(map[string]any{"pairs": pairs}) })
		if err != nil {
			return err
		}
		encRes = append(encRes, ms(d))
		d, err = op("store.Suggest", func() error { _, err := st.Suggest("w1", "w2", 0.5); return err })
		if err != nil {
			return err
		}
		suggest = append(suggest, ms(d))
		for _, list := range [][]assertReq{p.objs, p.rels} {
			for _, a := range list {
				if _, err := op("store.Assert", func() error {
					res, _, err := st.Assert(a.Schema1, a.Object1, a.Code, a.Schema2, a.Object2, a.Relationship)
					derived += len(res.Derived)
					asserts++
					return err
				}); err != nil {
					return err
				}
				body(a)
			}
		}
		if _, err := op("store.Integrate", func() error { _, err := st.Integrate("w1", "w2"); return err }); err != nil {
			return err
		}
		if _, err := op("store.SaveIntegration", func() error { _, err := st.SaveIntegration(integrationName, "w1", "w2"); return err }); err != nil {
			return err
		}
		body(map[string]string{"name": integrationName, "schema1": "w1", "schema2": "w2"})
		for _, r := range []rowsReq{
			{Schema: p.w.S1.Name, Structure: p.viewObject, Rows: p.componentRows},
			{Schema: p.integrated, Structure: p.targetObject, Rows: p.integratedRows},
		} {
			if _, err := op("store.LoadRows", func() error { _, err := st.LoadRows(r.Schema, r.Structure, r.Rows); return err }); err != nil {
				return err
			}
			body(r)
		}
		qs, _ := p.queries(integrationName)
		for i := 0; i < 10; i++ {
			q := qs[i%2]
			d, err := op("store.TranslateQuery", func() error {
				_, err := st.TranslateQuery(q.Integration, mapping.Query{Schema: q.Query.Schema, Object: q.Query.Object}, q.Direction)
				return err
			})
			if err != nil {
				return err
			}
			translateQ = append(translateQ, d)
		}
		for i := 0; i < reassertCycles; i++ {
			a := p.objs[i%len(p.objs)]
			if _, err := op("store.Retract", func() error {
				_, err := st.Retract(a.Schema1, a.Object1, a.Schema2, a.Object2, false)
				return err
			}); err != nil {
				return err
			}
			body(map[string]any{"schema1": a.Schema1, "object1": a.Object1, "schema2": a.Schema2, "object2": a.Object2})
			if _, err := op("store.Assert", func() error {
				_, _, err := st.Assert(a.Schema1, a.Object1, a.Code, a.Schema2, a.Object2, false)
				return err
			}); err != nil {
				return err
			}
			body(a)
		}
		if rep == 0 {
			// The journal now holds exactly the operations whose request
			// bodies were counted.
			fi, err := os.Stat(filepath.Join(dir, "journal.jsonl"))
			if err != nil {
				return err
			}
			b.layers.value("journal.bytes_per_user_byte", "ratio", float64(fi.Size())/float64(bodyBytes), 1)
			if err := b.readerBesideWriter(st, p); err != nil {
				return err
			}
		}
		h, m := st.SimilarityCacheStats()
		simHits, simLookups = simHits+h, simLookups+h+m
		h, m, _, _ = st.ClosureStats()
		cloHits, cloLookups = cloHits+h, cloLookups+h+m
		if err := j.Close(); err != nil {
			return err
		}
	}

	b.layers.value("assertion.derived_per_assert", "count", ratio64(float64(derived), asserts), asserts)
	if _, ok := b.layers.get("store.sim_cache_hit_ratio"); !ok {
		b.layers.value("store.sim_cache_hit_ratio", "ratio", ratio64(float64(simHits), int(simLookups)), int(simLookups))
	}
	if _, ok := b.layers.get("store.closure_cache_hit_ratio"); !ok {
		b.layers.value("store.closure_cache_hit_ratio", "ratio", ratio64(float64(cloHits), int(cloLookups)), int(cloLookups))
	}
	self := selfTimes(rec.snapshot())
	selfOf := func(name string) []time.Duration {
		var out []time.Duration
		for _, s := range rec.snapshot() {
			if s.Name == name {
				out = append(out, self[s.ID])
			}
		}
		return out
	}
	var appends []time.Duration
	for _, s := range rec.snapshot() {
		if s.Name == "journal.Append" {
			appends = append(appends, s.dur())
		}
	}
	b.layers.pct("store.add_schemas_ms", "ms", durations(selfOf("store.AddSchemas"), time.Millisecond), 0.5)
	b.layers.pct("store.declare_equiv_us", "us", us(selfOf("store.DeclareEquivalence")), 0.5)
	b.layers.pct("store.assert_us", "us", us(selfOf("store.Assert")), 0.5)
	b.layers.pct("store.retract_us", "us", us(selfOf("store.Retract")), 0.5)
	b.layers.pct("store.ranked_pairs_cold_ms", "ms", rankCold, 0.5)
	b.layers.pct("store.matrix_cold_ms", "ms", matrixCold, 0.5)
	b.layers.pct("store.suggest_ms", "ms", suggest, 0.5)
	b.layers.pct("store.translate_query_us", "us", us(translateQ), 0.5)
	b.layers.pct("store.load_rows_us", "us", us(selfOf("store.LoadRows")), 0.5)
	b.layers.pct("similarity.rank_warm_us", "us", rankWarm, 0.5)
	b.layers.pct("server.encode_ms.resemblance", "ms", encRes, 0.5)
	b.layers.pct("server.encode_ms.matrix", "ms", encMat, 0.5)
	b.layers.pct("journal.append_p50_us", "us", us(appends), 0.5)
	b.layers.pct("journal.append_p99_us", "us", us(appends), 0.99)
	b.layers.pct("journal.fsync_p50_us", "us", fsyncs, 0.5)
	b.layers.pct("journal.fsync_p99_us", "us", fsyncs, 0.99)
	return nil
}

// readerBesideWriter runs one reader beside one writer goroutine on the
// replayed store and records the reader's p99 over exactly the time the
// writer takes to make reassertCycles retract/re-assert pairs.
func (b *bench) readerBesideWriter(st *server.Store, p *pairInputs) error {
	werr := make(chan error, 1)
	var writing atomic.Bool
	writing.Store(true)
	go func() {
		defer writing.Store(false)
		for i := 0; i < reassertCycles; i++ {
			a := p.objs[i%len(p.objs)]
			if _, err := st.Retract(a.Schema1, a.Object1, a.Schema2, a.Object2, false); err != nil {
				werr <- err
				return
			}
			if _, _, err := st.Assert(a.Schema1, a.Object1, a.Code, a.Schema2, a.Object2, false); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	var lat []float64
	var rerr error
	for i := 0; writing.Load() && rerr == nil; i++ {
		t0 := time.Now()
		switch i % 3 {
		case 0:
			_, rerr = st.Matrix("w1", "w2", false)
		case 1:
			_, rerr = st.Assertions("w1", "w2", false)
		default:
			_, _, rerr = st.ExplainAssertion("w1", p.objs[i%len(p.objs)].Object1, "w2", p.objs[i%len(p.objs)].Object2, false)
		}
		lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
	}
	if err := <-werr; err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}
	b.layers.pct("store.read_p99_us_with_writer", "us", lat, 0.99)
	return nil
}

// probeModules times the frontends, the ECR model and the integrators on
// the workload's own inputs, repeating each call until it has run at least
// five times and for a quarter second.
func (b *bench) probeModules(rec *recorder, in probeInputs) error {
	repeat := func(name string, fn func() error) ([]float64, error) {
		var out []float64
		start := time.Now()
		for len(out) < 5 || time.Since(start) < 250*time.Millisecond {
			d, err := timed(rec, name, nil, fn)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			out = append(out, ms(d))
		}
		return out, nil
	}
	sources := map[string]formSource{"dictionary": {Source: in.pair.ddl, Format: "dictionary"}}
	for k, v := range in.forms {
		sources[k] = v
	}
	for _, lang := range []string{"dictionary", "sql", "jsonschema", "avro"} {
		src := sources[lang]
		xs, err := repeat("translate.Parse", func() error {
			_, _, err := translate.Parse(src.Format, src.Name, []byte(src.Source))
			return err
		})
		if err != nil {
			return err
		}
		b.layers.pct("translate.parse_ms."+lang, "ms", xs, 0.5)
	}
	w := in.pair.w
	steps := []struct {
		name string
		fn   func() error
	}{
		{"ecr.validate_ms", func() error {
			if err := w.S1.Validate(); err != nil {
				return err
			}
			return w.S2.Validate()
		}},
		{"ecr.encode_json_ms", func() error {
			if _, err := ecr.EncodeJSON(w.S1); err != nil {
				return err
			}
			_, err := ecr.EncodeJSON(w.S2)
			return err
		}},
		{"integrate.integrate_ms", func() error {
			_, err := integrate.Integrate(integrate.Input{S1: w.S1, S2: w.S2, Registry: w.Registry, Objects: w.Objects, Relationships: w.Relationships})
			return err
		}},
		{"batch.run_ms", func() error {
			spec, err := batch.ParseSpec(in.pair.spec)
			if err != nil {
				return err
			}
			_, err = batch.Run([]*ecr.Schema{w.S1, w.S2}, spec)
			return err
		}},
	}
	for _, s := range steps {
		xs, err := repeat(s.name, s.fn)
		if err != nil {
			return err
		}
		b.layers.pct(s.name, "ms", xs, 0.5)
	}
	return nil
}

// probeJobs runs spec jobs one at a time in a workspace of their own and
// reads queue wait and run time from each job's timestamps.
func (b *bench) probeJobs(c *client, p *pairInputs) error {
	m := &meter{}
	f := &flow{c: c, m: m}
	if _, err := f.call("POST", "/v1/workspaces", map[string]string{"name": "jobs"}, http.StatusCreated, nil); err != nil {
		return err
	}
	f.prefix = "/v1/workspaces/jobs"
	if err := f.upload(p, nil, ""); err != nil {
		return err
	}
	var wait, run []float64
	for i := 0; i < 5; i++ {
		job, _, err := f.runSpecJob(p.spec)
		if err != nil {
			return err
		}
		if job.State != "done" || job.Started == nil || job.Finished == nil {
			return fmt.Errorf("probe job ended %s: %s", job.State, job.Error)
		}
		wait = append(wait, ms(job.Started.Sub(job.Created)))
		run = append(run, ms(job.Finished.Sub(*job.Started)))
	}
	f.prefix = ""
	if _, err := f.call("DELETE", "/v1/workspaces/jobs", nil, http.StatusOK, nil); err != nil {
		return err
	}
	b.layers.pct("jobs.queue_wait_ms", "ms", wait, 0.5)
	b.layers.pct("jobs.run_ms", "ms", run, 0.5)
	return nil
}
