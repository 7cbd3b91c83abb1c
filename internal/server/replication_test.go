package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/journal"
	"repro/internal/replication"
)

// openFollower opens a durable follower of the leader at base, polling fast
// enough for tests to converge quickly.
func openFollower(t testing.TB, dir, base string) *Server {
	t.Helper()
	srv, _, err := Open(
		Config{Workers: 2, QueueCapacity: 16, Follow: &FollowerConfig{Leader: base, PollInterval: 3 * time.Millisecond}},
		DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// journalBytes reads a workspace's raw journal file.
func journalBytes(t testing.TB, dir, ws string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, ws, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// schemasOn lists the schema names a server's API reports for the default
// workspace.
func schemasOn(t testing.TB, client *http.Client, base string) []string {
	t.Helper()
	var resp struct {
		Schemas []SchemaStats `json:"schemas"`
	}
	if status := doJSON(t, client, "GET", base+"/v1/schemas", nil, &resp); status != http.StatusOK {
		t.Fatalf("list schemas: status %d", status)
	}
	names := make([]string, 0, len(resp.Schemas))
	for _, s := range resp.Schemas {
		names = append(names, s.Name)
	}
	return names
}

// TestFollowerReplicatesReadsAndGatesWrites is the replication acceptance
// path: a follower bootstraps from a live leader, serves every read —
// including a full integration run — from its replica, refuses mutations
// with a redirect to the leader, and its journal converges byte-identical
// to the leader's.
func TestFollowerReplicatesReadsAndGatesWrites(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	want := goldenPaperDDL(t)

	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)

	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()
	client := fs.Client()

	waitFor(t, 10*time.Second, func() bool {
		return bytes.Equal(journalBytes(t, dirL, "default"), journalBytes(t, dirF, "default"))
	}, "journals to converge")

	// The replicated state answers reads, including compute-heavy ones.
	if got := schemasOn(t, client, fs.URL); len(got) != 2 {
		t.Fatalf("follower schemas = %v", got)
	}
	var res IntegrationResult
	if status := doJSON(t, client, "POST", fs.URL+"/v1/integrate",
		JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}, &res); status != http.StatusOK {
		t.Fatalf("follower integrate status = %d", status)
	}
	if res.DDL != want {
		t.Fatalf("follower integration diverged from golden DDL:\n%s", res.DDL)
	}

	// Mutations are refused with 421 and a Location pointing at the leader.
	for _, m := range []struct{ method, path string }{
		{"POST", "/v1/schemas"},
		{"DELETE", "/v1/schemas/sc1"},
		{"POST", "/v1/equivalences"},
		{"POST", "/v1/assertions"},
		{"POST", "/v1/jobs"},
		{"POST", "/v1/workspaces"},
	} {
		req, err := http.NewRequest(m.method, fs.URL+m.path, bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("%s %s on follower: status %d, want 421", m.method, m.path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != ts.URL+m.path {
			t.Fatalf("%s %s Location = %q, want %q", m.method, m.path, loc, ts.URL+m.path)
		}
	}

	// /healthz reports the role and lag; max-lag gates a caught-up follower in.
	var health struct {
		Role        string                `json:"role"`
		Leader      string                `json:"leader"`
		Replication map[string]ReplicaLag `json:"replication"`
	}
	if status := doJSON(t, client, "GET", fs.URL+"/healthz?max-lag=0", nil, &health); status != http.StatusOK {
		t.Fatalf("follower healthz status = %d", status)
	}
	if health.Role != "follower" || health.Leader != ts.URL {
		t.Fatalf("follower healthz = %+v", health)
	}
	if lag := health.Replication["default"]; lag.LagRecords != 0 || lag.AppliedSeq == 0 {
		t.Fatalf("follower lag = %+v", lag)
	}
	if status := doJSON(t, ts.Client(), "GET", ts.URL+"/healthz", nil, &health); status != http.StatusOK || health.Role != "leader" {
		t.Fatalf("leader healthz role = %q (status %d)", health.Role, status)
	}

	// /metrics carries the replication section.
	var metrics MetricsSnapshot
	if status := doJSON(t, client, "GET", fs.URL+"/metrics", nil, &metrics); status != http.StatusOK {
		t.Fatalf("follower metrics status = %d", status)
	}
	repl := metrics.Replication
	if repl == nil || repl.Role != "follower" || repl.RecordsApplied == 0 {
		t.Fatalf("follower replication metrics = %+v", repl)
	}
	if lag := repl.Workspaces["default"]; lag.LagRecords != 0 || lag.LagBytes != 0 {
		t.Fatalf("follower metrics lag = %+v", lag)
	}
}

// TestFollowerMirrorsWorkspacesAndJobs checks the control-plane mirror: a
// workspace created on the leader appears on the follower (with its job
// table, applied from the stream rather than executed), and a workspace
// deleted on the leader disappears.
func TestFollowerMirrorsWorkspacesAndJobs(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()

	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()

	if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/workspaces",
		workspaceRequest{Name: "team-a"}, nil); status != http.StatusCreated {
		t.Fatalf("create workspace: status %d", status)
	}
	uploadPaperSchemasAt(t, ts.Client(), ts.URL+"/v1/workspaces/team-a")
	var job Job
	if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/workspaces/team-a/jobs",
		JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}, &job); status != http.StatusAccepted {
		t.Fatalf("submit job: status %d", status)
	}
	waitFor(t, 10*time.Second, func() bool {
		var got Job
		status := doJSON(t, fs.Client(), "GET", fs.URL+"/v1/workspaces/team-a/jobs/"+job.ID, nil, &got)
		return status == http.StatusOK && got.State.Terminal() && got.Result != nil
	}, "job to replicate onto follower")

	// The follower applied the job's lifecycle; it never executed it.
	if depth := mustWorkspace(t, follower, "team-a").queue.Depth(); depth != 0 {
		t.Fatalf("follower queue depth = %d, want 0", depth)
	}

	if status := doJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/workspaces/team-a", nil, nil); status != http.StatusOK {
		t.Fatalf("delete workspace: status %d", status)
	}
	waitFor(t, 10*time.Second, func() bool {
		_, err := follower.Workspaces().Get("team-a")
		return err != nil
	}, "workspace deletion to mirror")
	if _, err := os.Stat(filepath.Join(dirF, "team-a")); !os.IsNotExist(err) {
		t.Fatalf("follower still holds team-a data dir (stat err %v)", err)
	}
}

func mustWorkspace(t testing.TB, s *Server, name string) *Workspace {
	t.Helper()
	ws, err := s.Workspaces().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestFollowerBootstrapsFromSnapshotAfterCompaction starts the follower
// only after the leader compacted its journal, so catch-up cannot come from
// records alone: the follower must fetch a snapshot, then tail.
func TestFollowerBootstrapsFromSnapshotAfterCompaction(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _, err := Open(Config{Workers: 2, QueueCapacity: 16},
		DurabilityConfig{Dir: dirL, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	if horizon := leader.Journal().CompactedThrough(); horizon == 0 {
		t.Fatal("leader journal did not compact")
	}

	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()

	waitFor(t, 10*time.Second, func() bool {
		return len(schemasOn(t, fs.Client(), fs.URL)) == 2
	}, "follower to bootstrap")
	var metrics MetricsSnapshot
	doJSON(t, fs.Client(), "GET", fs.URL+"/metrics", nil, &metrics)
	if metrics.Replication == nil || metrics.Replication.SnapshotsFetched == 0 {
		t.Fatalf("follower never fetched a snapshot: %+v", metrics.Replication)
	}

	// Tailing still works on top of the bootstrap.
	if status := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/equivalences",
		equivalenceRequest{Schema1: "sc2", Attr1: "Faculty.Rank", Schema2: "sc2", Attr2: "Department.Location"}, nil); status != http.StatusCreated {
		t.Fatalf("post-bootstrap equivalence: status %d", status)
	}
	waitFor(t, 10*time.Second, func() bool {
		var resp struct {
			Classes [][]any `json:"classes"`
		}
		doJSON(t, fs.Client(), "GET", fs.URL+"/v1/equivalences", nil, &resp)
		return len(resp.Classes) == 5
	}, "post-bootstrap record to replicate")
}

// TestLeaderCrashMidStreamFollowerConverges is the in-process chaos test:
// the leader dies (no drain, no sync beyond the per-append policy) while a
// writer is hammering it and a follower is streaming, then restarts from
// its data directory at the same address. The follower must converge on the
// restarted leader's exact journal bytes and state.
func TestLeaderCrashMidStreamFollowerConverges(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	addr, err := leader.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	populatePaperWorkspace(t, client, base)

	follower := openFollower(t, dirF, base)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()

	// Hammer assertions (each is one journal record) while the crash lands.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc := &http.Client{Timeout: 2 * time.Second}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := assertionRequest{Schema1: "sc1", Object1: "Student", Code: 5, Schema2: "sc2", Object2: "Faculty"}
			body, _ := json.Marshal(a)
			req, _ := http.NewRequest("POST", base+"/v1/assertions", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			resp, err := hc.Do(req)
			if err != nil {
				continue // the crash window: refused connections are expected
			}
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	leader.Kill()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Restart from the crashed data directory on the same address.
	leader2, _ := openDurable(t, dirL, journal.Hooks{})
	defer leader2.Kill()
	waitFor(t, 10*time.Second, func() bool {
		_, err := leader2.Start(addr)
		return err == nil
	}, "leader to rebind its address")

	// More writes after the restart must flow through too.
	if status := doJSON(t, client, "POST", base+"/v1/equivalences",
		equivalenceRequest{Schema1: "sc2", Attr1: "Faculty.Rank", Schema2: "sc2", Attr2: "Department.Location"}, nil); status != http.StatusCreated {
		t.Fatalf("post-restart write: status %d", status)
	}

	waitFor(t, 15*time.Second, func() bool {
		lb, fb := journalBytes(t, dirL, "default"), journalBytes(t, dirF, "default")
		return len(fb) > 0 && bytes.HasSuffix(lb, fb)
	}, "follower journal to converge on the restarted leader's bytes")

	lSchemas := schemasOn(t, client, base)
	fSchemas := schemasOn(t, fs.Client(), fs.URL)
	if len(lSchemas) != len(fSchemas) || len(lSchemas) != 2 {
		t.Fatalf("schema sets diverged: leader %v follower %v", lSchemas, fSchemas)
	}
}

// TestPromoteFollower promotes a caught-up follower and checks it starts
// accepting writes, reports the leader role, and refuses a second promote.
func TestPromoteFollower(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)

	follower := openFollower(t, dirF, ts.URL)
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()
	client := fs.Client()

	waitFor(t, 10*time.Second, func() bool {
		return bytes.Equal(journalBytes(t, dirL, "default"), journalBytes(t, dirF, "default"))
	}, "journals to converge before promotion")

	var promoted struct {
		Role string `json:"role"`
	}
	if status := doJSON(t, client, "POST", fs.URL+"/v1/promote", nil, &promoted); status != http.StatusOK {
		t.Fatalf("promote status = %d", status)
	}
	if promoted.Role != "leader" {
		t.Fatalf("promote role = %q", promoted.Role)
	}
	if status := doJSON(t, client, "POST", fs.URL+"/v1/promote", nil, nil); status != http.StatusConflict {
		t.Fatalf("second promote status = %d, want 409", status)
	}

	var health struct {
		Role string `json:"role"`
	}
	if status := doJSON(t, client, "GET", fs.URL+"/healthz", nil, &health); status != http.StatusOK || health.Role != "leader" {
		t.Fatalf("promoted healthz = %+v (status %d)", health, status)
	}

	// The promoted server accepts and journals writes on its own now.
	if status := doJSON(t, client, "POST", fs.URL+"/v1/equivalences",
		equivalenceRequest{Schema1: "sc2", Attr1: "Faculty.Rank", Schema2: "sc2", Attr2: "Department.Location"}, nil); status != http.StatusCreated {
		t.Fatalf("write after promote: status %d", status)
	}
	var res IntegrationResult
	if status := doJSON(t, client, "POST", fs.URL+"/v1/integrate",
		JobRequest{Type: "integrate", Schema1: "sc1", Schema2: "sc2"}, &res); status != http.StatusOK {
		t.Fatalf("integrate after promote: status %d", status)
	}

	// The promotion survives a crash: restart the old follower's data dir as
	// a plain leader and find the post-promotion write in it.
	fs.Close()
	follower.Kill()
	reborn, report := openDurable(t, dirF, journal.Hooks{})
	defer reborn.Kill()
	if report.RecoveredWorkspaces == 0 {
		t.Fatalf("nothing recovered from promoted follower's dir: %+v", report)
	}
	rs := httptest.NewServer(reborn.Handler())
	defer rs.Close()
	var resp struct {
		Classes [][]any `json:"classes"`
	}
	if status := doJSON(t, rs.Client(), "GET", rs.URL+"/v1/equivalences", nil, &resp); status != http.StatusOK || len(resp.Classes) != 5 {
		t.Fatalf("post-promotion write lost across restart: status %d classes %v", status, resp.Classes)
	}
}

// TestShutdownWhileFollowing exercises the follower's teardown path: a
// graceful shutdown mid-stream must halt the sync loop, compact, and close
// every journal without hanging or racing.
func TestShutdownWhileFollowing(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()
	populatePaperWorkspace(t, ts.Client(), ts.URL)

	follower := openFollower(t, dirF, ts.URL)
	waitFor(t, 10*time.Second, func() bool {
		return len(journalBytes(t, dirF, "default")) > 0
	}, "follower to start applying")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := follower.Shutdown(ctx); err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}

	// The shut-down follower's directory restarts cleanly as a follower.
	follower2 := openFollower(t, dirF, ts.URL)
	defer follower2.Kill()
	fs := httptest.NewServer(follower2.Handler())
	defer fs.Close()
	waitFor(t, 10*time.Second, func() bool {
		return len(schemasOn(t, fs.Client(), fs.URL)) == 2
	}, "restarted follower to serve reads")
}

// TestBootstrapIsAtomicForReaders: a follower's bootstrap installs the
// snapshot's schemas together with its federation state, so readers racing
// repeated bootstraps never see the schemas without the saved integration
// or the loaded rows.
func TestBootstrapIsAtomicForReaders(t *testing.T) {
	leader, _ := openDurable(t, t.TempDir(), journal.Hooks{})
	defer leader.Kill()
	ddl, err := os.ReadFile("../../testdata/paper.ecr")
	if err != nil {
		t.Fatal(err)
	}
	st := leader.Store()
	if _, err := st.AddSchemasDDL(string(ddl)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveIntegration("paper", "sc1", "sc2"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadRows("sc1", "Student", []instance.Row{{"Name": "Amy"}, {"Name": "Bob"}}); err != nil {
		t.Fatal(err)
	}
	state, seq, err := leader.captureState(leader.defaultWS())
	if err != nil {
		t.Fatal(err)
	}
	snap := replication.Snapshot{Seq: seq, State: state}

	follower := newServer(Config{Workers: 1, QueueCapacity: 4,
		Follow: &FollowerConfig{Leader: "http://127.0.0.1:1"}}.withDefaults(),
		&DurabilityConfig{Dir: t.TempDir(), SnapshotEvery: 1 << 30})
	defer follower.Kill()
	target := followerTarget{follower}
	if err := target.Bootstrap(DefaultWorkspace, snap); err != nil {
		t.Fatal(err)
	}
	fst := mustWorkspace(t, follower, DefaultWorkspace).store

	var torn atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if len(fst.Integrations()) != 1 {
					torn.Add(1)
				}
				fst.mu.RLock()
				rows := 0
				if is := fst.instances["sc1"]; is != nil {
					rows = is.Count("Student")
				}
				fst.mu.RUnlock()
				if rows != 2 {
					torn.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := target.Bootstrap(DefaultWorkspace, snap); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d reads saw a half-installed snapshot", n)
	}
}
