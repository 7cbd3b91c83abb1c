package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// analysisRate is the open loop's offered rate in requests per second:
// about a twelfth of what the two workers complete on a 2-core VM when
// overloaded. README.md says why not half.
const analysisRate = 50

// analysisWorkspaces is how many pre-populated workspaces share the traffic.
const analysisWorkspaces = 4

type opKind int

const (
	opMatrix opKind = iota
	opAssertions
	opExplain
	opQuery
	opIntegrate
	opResemblance
	opRedeclare
	opReassert
)

// opMix is the request mix in percent: 90% reads, 2% of them full
// /resemblance rankings that encode every object pair, and 10% idempotent
// writes. GET /suggestions is left out: uncached, it takes most of a
// second of CPU per call at 100 objects, so with two client connections
// each call stalls half the generator for dozens of scheduled requests and
// the read median would depend on where the seed happens to place it.
// dda-session times it once per session.
var opMix = []struct {
	kind    opKind
	percent int
}{
	{opMatrix, 20}, {opAssertions, 17}, {opExplain, 17}, {opQuery, 18},
	{opIntegrate, 16}, {opResemblance, 2},
	{opRedeclare, 5}, {opReassert, 5},
}

// op is one scheduled operation: its kind, target workspace and the index
// of the oracle item it touches.
type op struct {
	kind opKind
	ws   int
	item int
}

// genOps draws the operation stream from the seed, so it does not depend
// on how the workers interleave.
func genOps(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		r := rng.Intn(100)
		k := opMix[len(opMix)-1].kind
		for _, m := range opMix {
			if r < m.percent {
				k = m.kind
				break
			}
			r -= m.percent
		}
		ops[i] = op{kind: k, ws: rng.Intn(analysisWorkspaces), item: rng.Int()}
	}
	return ops
}

// tenant is one pre-populated workspace and what the checks know about it.
type tenant struct {
	name   string
	prefix string
	pair   *pairInputs
	matrix [32]byte // sha256 of the /matrix body at set-up
	// epoch is odd while a retract/re-assert pair is in flight; reads that
	// see the same even epoch before and after saw the settled state.
	epoch   atomic.Int64
	writeMu sync.Mutex
}

func populateTenant(c *client, t *tenant) error {
	m := &meter{}
	f := &flow{c: c, m: m}
	if _, err := f.call("POST", "/v1/workspaces", map[string]string{"name": t.name}, http.StatusCreated, nil); err != nil {
		return err
	}
	f.prefix = t.prefix
	if err := f.upload(t.pair, nil, ""); err != nil {
		return err
	}
	if err := f.declareAll(t.pair); err != nil {
		return err
	}
	if err := f.assertAll(t.pair); err != nil {
		return err
	}
	if err := f.integrate(t.pair); err != nil {
		return err
	}
	if err := f.saveAndLoad(t.pair); err != nil {
		return err
	}
	body, err := f.call("GET", "/matrix"+pairQuery, nil, http.StatusOK, nil)
	if err != nil {
		return err
	}
	t.matrix = sha256.Sum256(body)
	if err := f.firstFailure(); err != nil {
		return fmt.Errorf("workspace %s: %w", t.name, err)
	}
	return nil
}

// analysisRun is the state the open-loop workers share.
type analysisRun struct {
	c       *client
	rec     *recorder
	tenants []*tenant
	ops     []op

	checks   checks
	writeOps atomic.Int64
}

// do sends one scheduled operation. Reads whose answer the checks know are
// checked unless a retract/re-assert on the same workspace overlapped them.
func (a *analysisRun) do(m *meter, i int64, due time.Time) {
	o := a.ops[int(i)%len(a.ops)]
	t := a.tenants[o.ws]
	p := t.pair
	root := a.rec.start("op", "", nil)
	defer root.end()
	get := func(path string, out any) ([]byte, error) {
		return a.c.call(m, root, due, "GET", t.prefix+path, nil, http.StatusOK, out)
	}
	post := func(path string, body any, want int, out any) ([]byte, error) {
		return a.c.call(m, root, due, "POST", t.prefix+path, body, want, out)
	}
	epoch := t.epoch.Load()
	settled := func() bool { return epoch%2 == 0 && t.epoch.Load() == epoch }

	switch o.kind {
	case opMatrix:
		if body, err := get("/matrix"+pairQuery, nil); err == nil {
			a.checks.check(sha256.Sum256(body) == t.matrix, "matrix checksum of %s changed without a write that changes it", t.name)
		}
	case opAssertions:
		_, _ = get("/assertions"+pairQuery, nil)
	case opExplain:
		x := p.objs[o.item%len(p.objs)]
		path := fmt.Sprintf("/assertions/explain%s&object1=%s&object2=%s", pairQuery, x.Object1, x.Object2)
		if _, err := get(path, nil); err != nil && !settled() {
			// The pair was retracted under this read: a 404 is the right
			// answer, not a failure.
			m.forgive()
		}
	case opQuery:
		qs, want := p.queries(integrationName)
		k := o.item % 2
		var res queryResp
		_, err := post("/query", qs[k], http.StatusOK, &res)
		m.label(qs[k].Direction)
		if err == nil {
			a.checks.check(res.Executed && reflect.DeepEqual(rowValues(res.Rows), rowValues(want[k])),
				"POST /query %s on %s answered %d rows, want %d", qs[k].Direction, t.name, len(res.Rows), len(want[k]))
		}
	case opIntegrate:
		var res integrateResp
		if _, err := post("/integrate", map[string]string{"schema1": "w1", "schema2": "w2"}, http.StatusOK, &res); err == nil && settled() {
			a.checks.check(res.DDL == p.oracleDDL, "POST /integrate on %s differs from the oracle", t.name)
		}
	case opResemblance:
		_, _ = get("/resemblance"+pairQuery, nil)
	case opRedeclare:
		_, _ = post("/equivalences", p.equivs[o.item%len(p.equivs)], http.StatusCreated, nil)
		a.writeOps.Add(1)
	case opReassert:
		x := p.objs[o.item%len(p.objs)]
		// One writer per workspace at a time, as one DDA per workspace.
		t.writeMu.Lock()
		defer t.writeMu.Unlock()
		t.epoch.Add(1)
		retract := map[string]any{"schema1": x.Schema1, "object1": x.Object1, "schema2": x.Schema2, "object2": x.Object2}
		if _, err := a.c.call(m, root, due, "DELETE", t.prefix+"/assertions", retract, http.StatusOK, nil); err == nil {
			var res assertResp
			if _, err := a.c.call(m, root, time.Time{}, "POST", t.prefix+"/assertions", x, http.StatusCreated, &res); err == nil {
				a.checks.check(res.Consistent, "re-assert on %s reported a conflict", t.name)
			}
		}
		t.epoch.Add(1)
		a.writeOps.Add(1)
	}
}

// forgive marks the meter's last observation as an expected answer.
func (m *meter) forgive() {
	if n := len(m.obs); n > 0 {
		m.obs[n-1].ok = true
		m.failures = m.failures[:max(0, len(m.failures)-1)]
	}
}

// openLoopPhase runs the operation stream at analysisRate for length. It
// returns the phase, the lateness of every request, and how many due
// operations were dropped because the server fell more than a phase length
// behind. The traced and untraced phases replay the same stream.
func (a *analysisRun) openLoopPhase(workers int, length time.Duration) (*phase, []float64, int) {
	meters := make([]*meter, workers)
	for i := range meters {
		meters[i] = &meter{}
	}
	start := time.Now()
	s := newSchedule(start, analysisRate, length)
	sent := runOpenLoop(s, workers, realClock{}, s.end.Add(length), func(w int, i int64, due time.Time) {
		a.do(meters[w], i, due)
	})
	p := &phase{meters: meters, elapsed: time.Since(start)}
	var late []float64
	for _, o := range p.all() {
		late = append(late, ms(o.lateness()))
	}
	return p, late, int(s.due() - sent)
}

func runAnalysisReads(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	tenants := make([]*tenant, analysisWorkspaces)
	for i := range tenants {
		p, err := newPairInputs(rng.Int63(), ddaObjects)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("t%d", i)
		tenants[i] = &tenant{name: name, prefix: "/v1/workspaces/" + name, pair: p}
	}
	b.heap = startHeapSampler()
	// Set-up creates and fills the four workspaces over HTTP.
	h, c, err := b.setupTimed(nil, func(h *harness, c *client) error {
		for _, t := range tenants {
			if err := populateTenant(c, t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	length := b.seconds
	if b.traced {
		length /= 2
	}
	ops := genOps(b.seed, int(analysisRate*length.Seconds())+1)
	run := &analysisRun{c: c, tenants: tenants, ops: ops}
	p, late, dropped := run.openLoopPhase(b.conns, length)
	b.absorb(p.meters...)
	b.dropped(dropped)
	b.reportRequests(p)
	all := p.all()
	b.e2e.pct("integrate_p50_ms", "ms", latencies(all, isRoute("POST /integrate")), 0.5)
	b.e2e.pct("loadgen.lateness_p99_ms", "ms", late, 0.99)
	b.e2e.value("offered_rate", "1/s", analysisRate, len(all))

	if b.traced {
		rec := newRecorder()
		tc := newClient(h.base, b.conns, rec)
		h.setRecorder(rec)
		lp := startLayerPhase(h)
		trun := &analysisRun{c: tc, rec: rec, tenants: tenants, ops: ops}
		tp, tlate, tdropped := trun.openLoopPhase(b.conns, length)
		h.setRecorder(nil)
		tc.close()
		b.absorb(tp.meters...)
		b.dropped(tdropped)
		b.absorbChecks(&trun.checks)
		b.finishLayerPhase(lp, tp, rec, layerUnits{n: int(trun.writeOps.Load()), name: "write operations"})
		b.layers.pct("loadgen.lateness_p99_ms", "ms", tlate, 0.99)
		b.overhead(latencies(all, isClass(classRead)), latencies(tp.all(), isClass(classRead)))
	}
	b.absorbChecks(&run.checks)

	if err := b.selfCheck(c); err != nil {
		return err
	}
	h, c, err = b.recoverTimed(h, c)
	if err != nil {
		return err
	}
	defer h.stop()
	defer c.close()
	if b.traced {
		forms, err := formsInputs(b.seed, ddaObjects)
		if err != nil {
			return err
		}
		return b.probeLayers(h, c, probeInputs{storePair: tenants[0].pair, pair: tenants[0].pair, forms: forms})
	}
	return nil
}

// dropped counts due operations the open loop never sent as failed.
func (b *bench) dropped(n int) {
	if n > 0 {
		b.attempted += n
		b.failed += n
		b.note(fmt.Sprintf("%d due operations dropped: the server fell a phase length behind", n))
	}
}
