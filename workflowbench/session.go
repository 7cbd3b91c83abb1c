package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"time"

	"repro/internal/instance"
)

// integrationName is the name the flow saves its integration under.
const integrationName = "merged"

const pairQuery = "?schema1=w1&schema2=w2"

type integrateResp struct {
	DDL string `json:"ddl"`
}

type queryResp struct {
	Executed bool           `json:"executed"`
	Rows     []instance.Row `json:"rows"`
}

type assertResp struct {
	Consistent bool     `json:"consistent"`
	Derived    []string `json:"derived"`
}

// flow sends one workspace's requests and checks their answers.
type flow struct {
	checks
	c      *client
	m      *meter
	parent *active
	prefix string // /v1/workspaces/<name>
}

func (f *flow) call(method, path string, body any, want int, out any) ([]byte, error) {
	return f.c.call(f.m, f.parent, time.Time{}, method, f.prefix+path, body, want, out)
}

// upload sends the pair as dictionary DDL and each extra schema in its
// frontend language. The extra uploads are labelled formLabel, or their
// language when formLabel is empty.
func (f *flow) upload(p *pairInputs, extra []formSource, formLabel string) error {
	_, err := f.call("POST", "/schemas", map[string]string{"ddl": p.ddl}, http.StatusCreated, nil)
	f.m.label("dictionary")
	if err != nil {
		return err
	}
	for _, src := range extra {
		_, err := f.call("POST", "/schemas", src, http.StatusCreated, nil)
		if formLabel != "" {
			f.m.label(formLabel)
		} else {
			f.m.label(src.Format)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *flow) declareAll(p *pairInputs) error {
	for _, e := range p.equivs {
		if _, err := f.call("POST", "/equivalences", e, http.StatusCreated, nil); err != nil {
			return err
		}
	}
	return nil
}

func (f *flow) assert(a assertReq) error {
	var resp assertResp
	if _, err := f.call("POST", "/assertions", a, http.StatusCreated, &resp); err != nil {
		return err
	}
	f.check(resp.Consistent, "assert %s.%s/%s.%s reported a conflict", a.Schema1, a.Object1, a.Schema2, a.Object2)
	return nil
}

func (f *flow) assertAll(p *pairInputs) error {
	for _, list := range [][]assertReq{p.objs, p.rels} {
		for _, a := range list {
			if err := f.assert(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// integrate runs POST /integrate and checks the schema against the oracle.
func (f *flow) integrate(p *pairInputs) error {
	var res integrateResp
	if _, err := f.call("POST", "/integrate", map[string]string{"schema1": "w1", "schema2": "w2"}, http.StatusOK, &res); err != nil {
		return err
	}
	f.check(res.DDL == p.oracleDDL, "POST /integrate schema differs from integrate.Integrate on the oracle")
	return nil
}

// saveAndLoad saves the integration and loads rows on both sides of it.
func (f *flow) saveAndLoad(p *pairInputs) error {
	body := map[string]string{"name": integrationName, "schema1": "w1", "schema2": "w2"}
	if _, err := f.call("POST", "/integrations", body, http.StatusCreated, nil); err != nil {
		return err
	}
	loads := []rowsReq{
		{Schema: p.w.S1.Name, Structure: p.viewObject, Rows: p.componentRows},
		{Schema: p.integrated, Structure: p.targetObject, Rows: p.integratedRows},
	}
	for i, r := range loads {
		_, err := f.call("POST", "/rows", r, http.StatusCreated, nil)
		f.m.label([]string{"component", "integrated"}[i])
		if err != nil {
			return err
		}
	}
	return nil
}

// query sends one of the two flow queries and checks its rows.
func (f *flow) query(p *pairInputs, i int) error {
	qs, want := p.queries(integrationName)
	var res queryResp
	_, err := f.call("POST", "/query", qs[i], http.StatusOK, &res)
	f.m.label(qs[i].Direction)
	if err != nil {
		return err
	}
	f.check(res.Executed && reflect.DeepEqual(rowValues(res.Rows), rowValues(want[i])),
		"POST /query %s answered %d rows, want the %d loaded", qs[i].Direction, len(res.Rows), len(want[i]))
	return nil
}

// ddaSession runs the paper's whole flow in a fresh workspace, then deletes
// it: collection (create, upload), analysis (equivalences, suggestions,
// resemblance), assertions, integration (integrate, save, rows, query).
func ddaSession(c *client, m *meter, parent *active, ws string, p *pairInputs, extra formSource) (*flow, error) {
	f := &flow{c: c, m: m, parent: parent}
	if _, err := f.call("POST", "/v1/workspaces", map[string]string{"name": ws}, http.StatusCreated, nil); err != nil {
		return f, err
	}
	f.prefix = "/v1/workspaces/" + url.PathEscape(ws)
	err := func() error {
		// The extra schema's language rotates between sessions, so its
		// uploads share one label: split by language, a run holds too few
		// of each for a median.
		if err := f.upload(p, []formSource{extra}, "form"); err != nil {
			return err
		}
		if err := f.declareAll(p); err != nil {
			return err
		}
		if _, err := f.call("GET", "/suggestions"+pairQuery, nil, http.StatusOK, nil); err != nil {
			return err
		}
		if _, err := f.call("GET", "/resemblance"+pairQuery, nil, http.StatusOK, nil); err != nil {
			return err
		}
		if err := f.assertAll(p); err != nil {
			return err
		}
		for _, kind := range []string{"objects", "relationships"} {
			_, err := f.call("GET", "/assertions"+pairQuery+"&kind="+kind, nil, http.StatusOK, nil)
			f.m.label(kind)
			if err != nil {
				return err
			}
		}
		if err := f.integrate(p); err != nil {
			return err
		}
		if err := f.saveAndLoad(p); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if err := f.query(p, i); err != nil {
				return err
			}
		}
		return nil
	}()
	prefix := f.prefix
	f.prefix = ""
	if _, derr := f.call("DELETE", prefix, nil, http.StatusOK, nil); err == nil {
		err = derr
	}
	return f, err
}

// ddaInputs are the inputs of the dda-session workload: sessions take their
// pair from the pool in turn.
type ddaInputs struct {
	pairs []*pairInputs
	forms map[string]formSource
}

const (
	ddaObjects = 100
	ddaPool    = 16
)

func newDDAInputs(seed int64, pool int) (*ddaInputs, error) {
	pairs, err := pairPool(seed, pool, ddaObjects)
	if err != nil {
		return nil, err
	}
	forms, err := formsInputs(seed, ddaObjects)
	if err != nil {
		return nil, err
	}
	return &ddaInputs{pairs: pairs, forms: forms}, nil
}

// maxThink bounds the pause a dda-session client takes between sessions.
const maxThink = 200 * time.Millisecond

// sessionStats is what a closed loop of sessions measured.
type sessionStats struct {
	phase     phase
	sessions  []float64 // seconds per completed session
	integrate []float64 // ms per POST /integrate
	flows     []*flow
	errs      []error
}

// runSessionLoop runs clients closed-loop session goroutines until the
// phase length has passed; sessions in flight at the deadline finish.
func runSessionLoop(c *client, rec *recorder, in *ddaInputs, clients int, length time.Duration, tag string, seed int64) *sessionStats {
	st := &sessionStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(length)
	for k := 0; k < clients; k++ {
		m := &meter{}
		st.phase.meters = append(st.phase.meters, m)
		wg.Add(1)
		go func(k int, m *meter) {
			defer wg.Done()
			// A random pause before each session keeps the two clients
			// from staying in lock-step: without it the phase in which
			// they happen to start (mutations beside mutations, or beside
			// the other's CPU-bound ranking) holds for a whole run.
			think := rand.New(rand.NewSource(seed + int64(k)))
			for n := 0; time.Now().Before(deadline); n++ {
				m.sleep(time.Duration(think.Int63n(int64(maxThink))))
				form := in.forms[frontendOrder[(k+n)%len(frontendOrder)]]
				root := rec.start("session", "", nil)
				t0 := time.Now()
				pair := in.pairs[(n*clients+k)%len(in.pairs)]
				f, err := ddaSession(c, m, root, fmt.Sprintf("%s%d-%d", tag, k, n), pair, form)
				d := time.Since(t0)
				root.end()
				mu.Lock()
				st.flows = append(st.flows, f)
				if err != nil {
					st.errs = append(st.errs, err)
					mu.Unlock()
					return
				}
				st.sessions = append(st.sessions, d.Seconds())
				mu.Unlock()
			}
		}(k, m)
	}
	wg.Wait()
	st.phase.elapsed = time.Since(start)
	for _, o := range st.phase.all() {
		if o.ok && o.route == "POST /integrate" {
			st.integrate = append(st.integrate, ms(o.latency()))
		}
	}
	return st
}

// absorbFlows counts the flows' answer checks into the run.
func (b *bench) absorbFlows(flows ...*flow) {
	for _, f := range flows {
		b.absorbChecks(&f.checks)
	}
}

func runDDASession(b *bench) error {
	in, err := newDDAInputs(b.seed, ddaPool)
	if err != nil {
		return err
	}
	b.heap = startHeapSampler()
	clients := min(2, b.conns)
	// Set-up is a server with one full session behind it, so the measured
	// phase starts with warm code paths and allocator.
	h, c, err := b.setupTimed(nil, func(h *harness, c *client) error {
		m := &meter{}
		f, err := ddaSession(c, m, nil, "warm", in.pairs[0], in.forms["sql"])
		if err == nil {
			err = f.firstFailure()
		}
		return err
	})
	if err != nil {
		return err
	}
	length := b.seconds
	if b.traced {
		length /= 2
	}
	st := runSessionLoop(c, nil, in, clients, length, "s", b.seed)
	b.absorb(st.phase.meters...)
	b.absorbFlows(st.flows...)
	if len(st.errs) > 0 {
		b.note(st.errs[0].Error())
	}
	b.reportRequests(&st.phase)
	all := st.phase.all()
	b.e2e.pct("upload_p50_ms", "ms", latencies(all, isRoute("POST /schemas")), 0.5)
	b.e2e.pct("integrate_p50_ms", "ms", st.integrate, 0.5)
	b.e2e.value("sessions_per_s", "1/s", float64(len(st.sessions))/st.phase.elapsed.Seconds(), len(st.sessions))
	b.e2e.pct("session_p50_s", "s", st.sessions, 0.5)

	var traced *sessionStats
	if b.traced {
		rec := newRecorder()
		h.setRecorder(rec)
		tc := newClient(h.base, b.conns, rec)
		lp := startLayerPhase(h)
		traced = runSessionLoop(tc, rec, in, clients, length, "t", b.seed)
		b.absorb(traced.phase.meters...)
		b.absorbFlows(traced.flows...)
		h.setRecorder(nil)
		tc.close()
		b.finishLayerPhase(lp, &traced.phase, rec, layerUnits{n: len(traced.sessions), name: "sessions"})
		b.overhead(st.sessions, traced.sessions)
		b.layers.pct("loadgen.lateness_p99_ms", "ms", thinkGaps(&traced.phase), 0.99)
	}

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
		return b.probeLayers(h, c, probeInputs{storePair: in.pairs[0], pair: in.pairs[0], forms: in.forms})
	}
	return nil
}

// selfCheck runs one checked session on inputs from a second seed, so the
// answer checks are not tuned to one generated pair.
func (b *bench) selfCheck(c *client) error {
	second := b.seed + 1_000_003
	in, err := newDDAInputs(second, 1)
	if err != nil {
		return err
	}
	m := &meter{}
	f, err := ddaSession(c, m, nil, "selfcheck", in.pairs[0], in.forms["avro"])
	b.absorb(m)
	b.absorbFlows(f)
	if err != nil {
		b.note(fmt.Sprintf("self-check on seed %d: %v", second, err))
	}
	return nil
}
