package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ecr"
	"repro/internal/journal"
)

// openDurable opens a durable server over dir with test-sized pools.
func openDurable(t testing.TB, dir string, hooks journal.Hooks) (*Server, *RecoveryReport) {
	t.Helper()
	srv, report, err := Open(Config{Workers: 2, QueueCapacity: 16},
		DurabilityConfig{Dir: dir, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	return srv, report
}

// populatePaperWorkspace drives the paper's running example through the
// HTTP API: schema upload, the five equivalences, the four assertions.
func populatePaperWorkspace(t testing.TB, client *http.Client, base string) {
	t.Helper()
	uploadPaperSchemas(t, client, base)
	for _, pair := range [][2]string{
		{"Student.Name", "Grad_student.Name"},
		{"Student.Name", "Faculty.Name"},
		{"Student.GPA", "Grad_student.GPA"},
		{"Department.Dname", "Department.Dname"},
		{"Majors.Since", "Stud_major.Since"},
	} {
		req := equivalenceRequest{Schema1: "sc1", Attr1: pair[0], Schema2: "sc2", Attr2: pair[1]}
		if status := doJSON(t, client, "POST", base+"/v1/equivalences", req, nil); status != http.StatusCreated {
			t.Fatalf("declare %v: status %d", pair, status)
		}
	}
	for _, a := range paperAssertions() {
		if status := doJSON(t, client, "POST", base+"/v1/assertions", a, nil); status != http.StatusCreated {
			t.Fatalf("assert %+v: status %d", a, status)
		}
	}
}

func paperAssertions() []assertionRequest {
	return []assertionRequest{
		{Schema1: "sc1", Object1: "Department", Code: 1, Schema2: "sc2", Object2: "Department"},
		{Schema1: "sc1", Object1: "Student", Code: 3, Schema2: "sc2", Object2: "Grad_student"},
		{Schema1: "sc1", Object1: "Student", Code: 4, Schema2: "sc2", Object2: "Faculty"},
		{Schema1: "sc1", Object1: "Majors", Code: 1, Schema2: "sc2", Object2: "Stud_major", Relationship: true},
	}
}

// TestCrashRecoveryEndToEnd is the durability acceptance test: populate the
// paper's running example over HTTP, run an integration job, crash the
// process (no drain, no sync, no final snapshot), restart from the same
// data directory and verify the rebuilt workspace produces the golden
// result and the finished job survived with its output.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	want := goldenPaperDDL(t)

	srv, report := openDurable(t, dir, journal.Hooks{})
	if report.RecoveredWorkspaces != 0 || report.ReplayedRecords != 0 {
		t.Fatalf("fresh dir reported recovery: %+v", report)
	}
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	populatePaperWorkspace(t, client, ts.URL)

	var job Job
	if status := doJSON(t, client, "POST", ts.URL+"/v1/jobs",
		JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}, &job); status != http.StatusAccepted {
		t.Fatalf("job submit status = %d", status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !job.State.Terminal() && time.Now().Before(deadline) {
		doJSON(t, client, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, &job)
	}
	if job.State != JobDone || job.Result == nil || job.Result.DDL != want {
		t.Fatalf("job before crash = %+v", job)
	}

	// Crash. No graceful anything: the data directory is all that remains.
	ts.Close()
	srv.Kill()

	srv2, report2 := openDurable(t, dir, journal.Hooks{})
	if report2.RecoveredWorkspaces != 1 || report2.Schemas != 2 {
		t.Fatalf("recovery report = %+v", report2)
	}
	if report2.ReplayedRecords == 0 {
		t.Fatalf("nothing replayed: %+v", report2)
	}
	if report2.RecoveredJobs != 1 || report2.RequeuedJobs != 0 || report2.InterruptedJobs != 0 {
		t.Fatalf("job recovery = %+v", report2)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	client2 := ts2.Client()

	// The finished job is still addressable, result intact.
	var recovered Job
	if status := doJSON(t, client2, "GET", ts2.URL+"/v1/jobs/"+job.ID, nil, &recovered); status != http.StatusOK {
		t.Fatalf("recovered job status = %d", status)
	}
	if recovered.State != JobDone || recovered.Result == nil || recovered.Result.DDL != want {
		t.Fatalf("recovered job = %+v", recovered)
	}

	// The replayed workspace integrates to the golden schema.
	var res IntegrationResult
	if status := doJSON(t, client2, "POST", ts2.URL+"/v1/integrate",
		JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}, &res); status != http.StatusOK {
		t.Fatalf("integrate after recovery status = %d", status)
	}
	if res.DDL != want {
		t.Errorf("integrated DDL after recovery drifted from golden:\n%s\nwant:\n%s", res.DDL, want)
	}

	// /metrics exposes the journal section on a durable server.
	var metrics MetricsSnapshot
	doJSON(t, client2, "GET", ts2.URL+"/metrics", nil, &metrics)
	if metrics.Journal == nil {
		t.Fatal("durable server has no journal metrics")
	}
	if metrics.Journal.RecoveredWorkspaces != 1 || metrics.Journal.RecoveredJobs != 1 {
		t.Errorf("journal metrics = %+v", metrics.Journal)
	}

	// Graceful shutdown compacts; a third start replays nothing.
	ts2.Close()
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv3, report3 := openDurable(t, dir, journal.Hooks{})
	defer srv3.Shutdown(context.Background())
	if report3.SnapshotSeq == 0 || report3.ReplayedRecords != 0 {
		t.Fatalf("post-compaction report = %+v", report3)
	}
	if report3.Schemas != 2 || report3.RecoveredJobs != 1 {
		t.Fatalf("post-compaction state = %+v", report3)
	}
	got, err := srv3.Store().Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	if ecr.FormatSchema(got.Schema) != want {
		t.Error("snapshot-restored workspace drifted from golden")
	}
}

// TestCrashRecoveryTornTail appends a torn (newline-less, half-written)
// record to the journal, as a crash mid-append would leave it, and checks
// recovery drops it without losing the committed state.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	srv, _ := openDurable(t, dir, journal.Hooks{})
	ts := httptest.NewServer(srv.Handler())
	populatePaperWorkspace(t, ts.Client(), ts.URL)
	ts.Close()
	srv.Kill()

	f, err := os.OpenFile(filepath.Join(dir, DefaultWorkspace, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"op":"half-writ`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, report := openDurable(t, dir, journal.Hooks{})
	defer srv2.Shutdown(context.Background())
	if report.DroppedBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", report)
	}
	if report.Schemas != 2 {
		t.Fatalf("recovery report = %+v", report)
	}
	res, err := srv2.Store().Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ecr.FormatSchema(res.Schema), goldenPaperDDL(t); got != want {
		t.Errorf("DDL after torn-tail recovery drifted:\n%s\nwant:\n%s", got, want)
	}
}

// TestCrashRecoveryTruncatedFinalRecord cuts the journal mid-way through
// its real final record (a crash between write and fsync): that record is
// lost, everything before it survives, and re-issuing the lost operation
// restores the full state.
func TestCrashRecoveryTruncatedFinalRecord(t *testing.T) {
	dir := t.TempDir()
	srv, _ := openDurable(t, dir, journal.Hooks{})
	ts := httptest.NewServer(srv.Handler())
	populatePaperWorkspace(t, ts.Client(), ts.URL)
	ts.Close()
	srv.Kill()

	path := filepath.Join(dir, DefaultWorkspace, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 {
		t.Fatalf("journal too small: %d bytes", len(data))
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, report := openDurable(t, dir, journal.Hooks{})
	defer srv2.Shutdown(context.Background())
	if report.DroppedBytes == 0 {
		t.Fatalf("truncated record not detected: %+v", report)
	}

	// The last journaled operation — the relationship assertion — was cut;
	// re-issue it and the workspace is whole again.
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	asserts := paperAssertions()
	last := asserts[len(asserts)-1]
	if status := doJSON(t, ts2.Client(), "POST", ts2.URL+"/v1/assertions", last, nil); status != http.StatusCreated {
		t.Fatalf("re-assert status = %d", status)
	}
	res, err := srv2.Store().Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ecr.FormatSchema(res.Schema), goldenPaperDDL(t); got != want {
		t.Errorf("DDL after truncated-record recovery drifted:\n%s\nwant:\n%s", got, want)
	}
}

// TestJournalFullDegradesTo503 fills the "disk" under the journal:
// mutations are refused with 503 (never half-applied), reads keep working,
// and once space returns the server resumes — with the refused operations
// absent from the log on restart.
func TestJournalFullDegradesTo503(t *testing.T) {
	dir := t.TempDir()
	var full atomic.Bool
	hooks := journal.Hooks{BeforeAppend: func(line []byte) (int, error) {
		if full.Load() {
			return 0, errors.New("no space left on device")
		}
		return len(line), nil
	}}
	srv, _ := openDurable(t, dir, hooks)
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	uploadPaperSchemas(t, client, ts.URL)

	full.Store(true)
	ddl := "schema refused\nentity T {\n attr Id: int key\n}\n"
	if status := doJSON(t, client, "POST", ts.URL+"/v1/schemas",
		map[string]string{"ddl": ddl}, nil); status != http.StatusServiceUnavailable {
		t.Errorf("schema upload on full disk: status %d, want 503", status)
	}
	req := equivalenceRequest{Schema1: "sc1", Attr1: "Student.Name", Schema2: "sc2", Attr2: "Grad_student.Name"}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/equivalences", req, nil); status != http.StatusServiceUnavailable {
		t.Errorf("equivalence on full disk: status %d, want 503", status)
	}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/jobs",
		JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}, nil); status != http.StatusServiceUnavailable {
		t.Errorf("job submit on full disk: status %d, want 503", status)
	}
	// Reads are unaffected.
	if status := doJSON(t, client, "GET", ts.URL+"/v1/schemas", nil, nil); status != http.StatusOK {
		t.Errorf("schema list on full disk: status %d", status)
	}

	full.Store(false)
	ddl = "schema tiny\nentity T {\n attr Id: int key\n}\n"
	if status := doJSON(t, client, "POST", ts.URL+"/v1/schemas",
		map[string]string{"ddl": ddl}, nil); status != http.StatusCreated {
		t.Fatalf("schema upload after space returned: status %d", status)
	}

	ts.Close()
	srv.Kill()
	srv2, report := openDurable(t, dir, journal.Hooks{})
	defer srv2.Shutdown(context.Background())
	if report.Schemas != 3 {
		t.Fatalf("recovered %d schemas, want sc1+sc2+tiny: %+v", report.Schemas, report)
	}
	if srv2.Store().Schema("refused") != nil {
		t.Error("operation refused on full disk resurrected after restart")
	}
	if len(srv2.Store().EquivalenceClasses()) != 0 {
		t.Error("refused equivalence resurrected after restart")
	}
}

// TestFsyncFailureDoesNotResurrectRejectedOps pins the rollback contract
// end to end: operations rejected with 503 because their fsync failed must
// leave no trace in the journal — the client's retry succeeds (no
// duplicate-schema collision, no reused job ID) and a restart replays
// exactly the acknowledged state.
func TestFsyncFailureDoesNotResurrectRejectedOps(t *testing.T) {
	dir := t.TempDir()
	var fail atomic.Bool
	hooks := journal.Hooks{BeforeSync: func() error {
		if fail.Load() {
			return errors.New("injected fsync failure")
		}
		return nil
	}}
	srv, _ := openDurable(t, dir, hooks)
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	uploadPaperSchemas(t, client, ts.URL)

	fail.Store(true)
	ddl := "schema tiny\nentity T {\n attr Id: int key\n}\n"
	if status := doJSON(t, client, "POST", ts.URL+"/v1/schemas",
		map[string]string{"ddl": ddl}, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("schema upload with failing fsync: status %d, want 503", status)
	}
	jobReq := JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}
	if status := doJSON(t, client, "POST", ts.URL+"/v1/jobs", jobReq, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("job submit with failing fsync: status %d, want 503", status)
	}

	// Storage heals; the client retries both. The schema must not collide
	// with a ghost of the rejected record, and the job must not reuse the
	// burned ID.
	fail.Store(false)
	if status := doJSON(t, client, "POST", ts.URL+"/v1/schemas",
		map[string]string{"ddl": ddl}, nil); status != http.StatusCreated {
		t.Fatalf("schema retry after fsync healed: status %d, want 201", status)
	}
	var job Job
	if status := doJSON(t, client, "POST", ts.URL+"/v1/jobs", jobReq, &job); status != http.StatusAccepted {
		t.Fatalf("job retry after fsync healed: status %d", status)
	}
	if job.ID != "job-2" {
		t.Errorf("retried job ID = %s, want job-2 (job-1 was burned by the failed persist)", job.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !job.State.Terminal() && time.Now().Before(deadline) {
		doJSON(t, client, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, &job)
	}
	if !job.State.Terminal() {
		t.Fatal("retried job never finished")
	}

	ts.Close()
	srv.Kill()
	srv2, report := openDurable(t, dir, journal.Hooks{})
	defer srv2.Shutdown(context.Background())
	if report.Schemas != 3 {
		t.Fatalf("recovered %d schemas, want sc1+sc2+tiny: %+v", report.Schemas, report)
	}
	if report.RecoveredJobs != 1 {
		t.Fatalf("recovered %d jobs, want only the acknowledged one: %+v", report.RecoveredJobs, report)
	}
	if _, ok := srv2.defaultWS().queue.Get("job-1"); ok {
		t.Error("job rejected on fsync failure resurrected after restart")
	}
	if _, ok := srv2.defaultWS().queue.Get("job-2"); !ok {
		t.Error("acknowledged job lost after restart")
	}
}

// TestReplayedJobSubmitAlreadyInSnapshotIsSkipped reproduces the
// compaction race: a job submitted while Compact runs lands in the
// captured queue state AND keeps its submit record in the rewritten
// journal (its sequence number is above the snapshot cutoff). Replay must
// not turn that into two copies of the job.
func TestReplayedJobSubmitAlreadyInSnapshotIsSkipped(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}
	created := time.Now().UTC()
	if _, err := j.Append(opJobSubmit, jobSubmitRec{ID: "job-1", Request: req, Created: created}); err != nil {
		t.Fatal(err)
	}
	// Snapshot the queue as Compact would have captured it — with the
	// freshly submitted job — against a cutoff below the submit record's
	// sequence number, so the record survives the rewrite too.
	state, err := json.Marshal(persistedState{
		Jobs:      []Job{{ID: "job-1", Request: req, State: JobQueued, Created: created}},
		NextJobID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(state, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	srv, report := openDurable(t, dir, journal.Hooks{})
	defer srv.Shutdown(context.Background())
	if report.RecoveredJobs != 1 || report.RequeuedJobs != 1 {
		t.Fatalf("recovery report = %+v, want exactly one copy of job-1", report)
	}
	count := 0
	for _, job := range srv.defaultWS().queue.List() {
		if job.ID == "job-1" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("job-1 appears %d times after replay, want 1", count)
	}
}

// TestQueueShutdownPersistsQueuedJobs pins the satellite guarantee: jobs
// still buffered when the queue is torn down keep their submit-only journal
// trace, so a restart re-enqueues them, while the job caught running comes
// back interrupted.
func TestQueueShutdownPersistsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	persist := func(op string, v any) error {
		_, err := j.Append(op, v)
		return err
	}
	block := make(chan struct{})
	defer close(block)
	q := NewQueue(1, 8, 0, func(ctx context.Context, req JobRequest) (*IntegrationResult, error) {
		select {
		case <-block:
			return &IntegrationResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	q.SetPersist(persist, nil)

	req := JobRequest{Type: "integrate", Schema1: "a", Schema2: "b"}
	for i := 0; i < 3; i++ {
		if _, err := q.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the single worker to pick up job-1 (its start record is
	// written before Get can observe the running state).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if job, _ := q.Get("job-1"); job.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job-1 never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_ = q.Shutdown(ctx) // deadline forces the cancel path
	if job, _ := q.Get("job-1"); job.State != JobInterrupted {
		t.Fatalf("job-1 after forced shutdown = %+v", job)
	}
	for _, id := range []string{"job-2", "job-3"} {
		if job, _ := q.Get(id); job.State != JobCanceled {
			t.Fatalf("%s after forced shutdown = %+v", id, job)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": replay the journal and seed a fresh queue from it.
	j2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	q2 := NewQueue(1, 8, 0, okExecutor)
	defer q2.Shutdown(context.Background())
	st := NewStore()
	for _, rec := range j2.Records() {
		if err := replay(opTarget{st: st, q: q2}, rec); err != nil {
			t.Fatal(err)
		}
	}
	if jobs := q2.List(); len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}

	requeued, interrupted := q2.Restore()
	if requeued != 2 || interrupted != 1 {
		t.Fatalf("Restore = (%d requeued, %d interrupted), want (2, 1)", requeued, interrupted)
	}
	if job, _ := q2.Get("job-1"); job.State != JobInterrupted || !job.State.Retryable() {
		t.Errorf("job-1 after restore = %+v", job)
	}
	for _, id := range []string{"job-2", "job-3"} {
		if job := waitTerminal(t, q2, id); job.State != JobDone {
			t.Errorf("%s after restore = %+v", id, job)
		}
	}
	// The ID sequence continues past the recovered jobs.
	job, err := q2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-4" {
		t.Errorf("next ID after restore = %s, want job-4", job.ID)
	}
}
