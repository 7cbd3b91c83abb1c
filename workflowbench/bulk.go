package main

import (
	"fmt"
	"net/http"
	"time"
)

// bulkObjects sizes the bulk-integrate pair and each of its forms schemas.
const bulkObjects = 1000

// jobResp is the part of a job the benchmark reads.
type jobResp struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Result   *struct {
		DDL string `json:"ddl"`
	} `json:"result"`
}

func (j jobResp) terminal() bool {
	switch j.State {
	case "done", "failed", "canceled", "interrupted":
		return true
	}
	return false
}

// jobPoll is the wait between polls of a running job.
const jobPoll = 5 * time.Millisecond

// runSpecJob submits one spec job and polls it until it is terminal,
// returning the job and the time from submit to terminal.
func (f *flow) runSpecJob(spec string) (jobResp, time.Duration, error) {
	var job jobResp
	start := time.Now()
	if _, err := f.call("POST", "/jobs", map[string]string{"type": "spec", "spec": spec}, http.StatusAccepted, &job); err != nil {
		return job, 0, err
	}
	for !job.terminal() {
		f.m.sleep(jobPoll)
		if _, err := f.call("GET", "/jobs/"+job.ID, nil, http.StatusOK, &job); err != nil {
			return job, 0, err
		}
	}
	return job, time.Since(start), nil
}

// bulkIteration runs one bulk-integrate iteration: a fresh workspace, the
// pair as DDL plus one forms schema per frontend, one spec job carrying the
// oracle, then the workspace is deleted.
func bulkIteration(c *client, m *meter, parent *active, ws string, pair *pairInputs, forms []formSource) (*flow, jobResp, time.Duration, error) {
	f := &flow{c: c, m: m, parent: parent}
	var job jobResp
	var took time.Duration
	if _, err := f.call("POST", "/v1/workspaces", map[string]string{"name": ws}, http.StatusCreated, nil); err != nil {
		return f, job, 0, err
	}
	prefix := "/v1/workspaces/" + ws
	f.prefix = prefix
	err := f.upload(pair, forms, "")
	if err == nil {
		job, took, err = f.runSpecJob(pair.spec)
	}
	if err == nil {
		f.check(job.State == "done" && job.Result != nil && job.Result.DDL == pair.specDDL,
			"spec job ended %s (%s); its schema must equal batch.Run on the oracle spec", job.State, job.Error)
	}
	f.prefix = ""
	if _, derr := f.call("DELETE", prefix, nil, http.StatusOK, nil); err == nil {
		err = derr
	}
	return f, job, took, err
}

// bulkInputs are the inputs of bulk-integrate: iterations take their pair
// from the pool in turn and upload the same three forms schemas.
type bulkInputs struct {
	pairs []*pairInputs
	forms []formSource // one per non-dictionary frontend, distinct names
}

// bulkPool is the number of generated pairs a bulk-integrate run rotates.
const bulkPool = 12

func newBulkInputs(seed int64) (*bulkInputs, error) {
	pairs, err := pairPool(seed, bulkPool, bulkObjects)
	if err != nil {
		return nil, err
	}
	in := &bulkInputs{pairs: pairs}
	for i, lang := range frontendOrder {
		forms, err := formsInputs(seed+int64(i)+1, bulkObjects)
		if err != nil {
			return nil, err
		}
		in.forms = append(in.forms, forms[lang])
	}
	return in, nil
}

// bulkStats is what one phase of iterations measured.
type bulkStats struct {
	phase      phase
	iterations []float64 // s
	jobs       []float64 // ms from submit to terminal
	queueWait  []float64 // ms from created to started
	jobRun     []float64 // ms from started to finished
	flows      []*flow
}

func runBulkLoop(c *client, rec *recorder, in *bulkInputs, length time.Duration, tag string) (*bulkStats, error) {
	st := &bulkStats{}
	m := &meter{}
	st.phase.meters = []*meter{m}
	start := time.Now()
	for n := 0; time.Since(start) < length; n++ {
		root := rec.start("iteration", "", nil)
		t0 := time.Now()
		f, job, took, err := bulkIteration(c, m, root, fmt.Sprintf("%s%d", tag, n), in.pairs[n%len(in.pairs)], in.forms)
		root.end()
		st.flows = append(st.flows, f)
		if err != nil {
			st.phase.elapsed = time.Since(start)
			return st, err
		}
		st.iterations = append(st.iterations, time.Since(t0).Seconds())
		st.jobs = append(st.jobs, ms(took))
		if job.Started != nil && job.Finished != nil {
			st.queueWait = append(st.queueWait, ms(job.Started.Sub(job.Created)))
			st.jobRun = append(st.jobRun, ms(job.Finished.Sub(*job.Started)))
		}
	}
	st.phase.elapsed = time.Since(start)
	return st, nil
}

func runBulkIntegrate(b *bench) error {
	in, err := newBulkInputs(b.seed)
	if err != nil {
		return err
	}
	b.heap = startHeapSampler()
	// Set-up is a server with one full iteration behind it.
	h, c, err := b.setupTimed(nil, func(h *harness, c *client) error {
		f, _, _, err := bulkIteration(c, &meter{}, nil, "warm", in.pairs[0], in.forms)
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
	st, err := runBulkLoop(c, nil, in, length, "b")
	b.absorb(st.phase.meters...)
	b.absorbFlows(st.flows...)
	if err != nil {
		b.note(err.Error())
	}
	b.reportRequests(&st.phase)
	b.e2e.pct("upload_p50_ms", "ms", latencies(st.phase.all(), isRoute("POST /schemas")), 0.5)
	b.e2e.pct("integrate_p50_ms", "ms", st.jobs, 0.5)
	b.e2e.pct("iteration_p50_s", "s", st.iterations, 0.5)

	if b.traced {
		rec := newRecorder()
		tc := newClient(h.base, b.conns, rec)
		h.setRecorder(rec)
		lp := startLayerPhase(h)
		tst, err := runBulkLoop(tc, rec, in, length, "c")
		h.setRecorder(nil)
		tc.close()
		b.absorb(tst.phase.meters...)
		b.absorbFlows(tst.flows...)
		if err != nil {
			b.note(err.Error())
		}
		b.finishLayerPhase(lp, &tst.phase, rec, layerUnits{n: len(tst.iterations), name: "iterations"})
		b.layers.pct("jobs.queue_wait_ms", "ms", tst.queueWait, 0.5)
		b.layers.pct("jobs.run_ms", "ms", tst.jobRun, 0.5)
		b.overhead(st.iterations, tst.iterations)
		b.layers.pct("loadgen.lateness_p99_ms", "ms", thinkGaps(&tst.phase), 0.99)
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
		forms := map[string]formSource{}
		for i, lang := range frontendOrder {
			forms[lang] = in.forms[i]
		}
		storePair, err := newPairInputs(b.seed, ddaObjects)
		if err != nil {
			return err
		}
		return b.probeLayers(h, c, probeInputs{storePair: storePair, pair: in.pairs[0], forms: forms, skipJobs: true})
	}
	return nil
}
