package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/journal"
)

// testdata/golden is a data directory an earlier build of the server wrote:
// for the default workspace and for "tenant", a snapshot plus a journal
// tail holding every durable op, and jobs done, failed, started (running
// at the crash) and only submitted (queued at the crash).
// testdata/golden.want.json is the state that build recovered it to.
const goldenDir = "testdata/golden"

// copyDir copies a data directory tree, so tests recover a copy and leave
// the checked-in files untouched.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goldenState recovers a copy of the golden data directory and renders
// what came back: the recovery report, and each workspace's persisted
// state once the re-enqueued job has run. The run-time fields of the two
// jobs recovery acted on — job-5 interrupted, job-6 run again — are
// blanked, and equivalence classes sorted (see sortClasses); everything
// else is as the journal and snapshot recorded it.
func goldenState(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	copyDir(t, goldenDir, dir)
	srv, report, err := Open(Config{Workers: 1, QueueCapacity: 8}, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	out := struct {
		Report     *RecoveryReport            `json:"report"`
		Workspaces map[string]*persistedState `json:"workspaces"`
	}{Report: report, Workspaces: map[string]*persistedState{}}
	for _, ws := range srv.manager.List() {
		deadline := time.Now().Add(10 * time.Second)
		for ws.queue.Depth() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		state, _, err := srv.captureState(ws)
		if err != nil {
			t.Fatal(err)
		}
		var ps persistedState
		if err := json.Unmarshal(state, &ps); err != nil {
			t.Fatal(err)
		}
		ps.Workspace = sortClasses(t, ps.Workspace)
		for i := range ps.Jobs {
			job := &ps.Jobs[i]
			switch job.ID {
			case "job-5":
				job.Finished = nil
			case "job-6":
				job.Started, job.Finished = nil, nil
				if job.Result != nil {
					job.Result.ElapsedMs = 0
				}
			}
		}
		out.Workspaces[ws.name] = &ps
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// sortClasses orders a workspace encoding's equivalence classes by first
// member. The build that wrote the golden directory listed them in
// class-number order, which follows declaration history; later builds list
// them sorted, so equal workspaces encode identically however they were
// built. The pin is on the classes, not their order.
func sortClasses(t testing.TB, ws json.RawMessage) json.RawMessage {
	var w map[string]any
	if err := json.Unmarshal(ws, &w); err != nil {
		t.Fatal(err)
	}
	classes, _ := w["equivalences"].([]any)
	first := func(i int) string {
		m := classes[i].([]any)[0].(map[string]any)
		return fmt.Sprint(m["schema"], ".", m["object"], ".", m["attr"])
	}
	sort.Slice(classes, func(i, j int) bool { return first(i) < first(j) })
	out, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenDataDirectory pins the on-disk format: a data directory an
// earlier build wrote recovers to the state that build recovered it to.
func TestGoldenDataDirectory(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.want.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenState(t); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from testdata/golden.want.json: %s", firstDiff(string(want), string(got)))
	}
}

// TestGoldenRecordsReencode checks the encodings themselves: every journal
// record in the golden directory decodes through the op table and encodes
// back to its stored bytes, every snapshot likewise through the state
// codec's types, and the journals hold every durable op.
func TestGoldenRecordsReencode(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, goldenDir, dir)
	seen := map[string]bool{}
	for _, name := range []string{DefaultWorkspace, "tenant"} {
		j, err := journal.Open(filepath.Join(dir, name), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for _, rec := range j.Records() {
			newOp, ok := opTable[rec.Op]
			if !ok {
				t.Fatalf("%s record %d: op %q is not in the op table", name, rec.Seq, rec.Op)
			}
			op := newOp()
			if err := json.Unmarshal(rec.Data, op); err != nil {
				t.Fatal(err)
			}
			if data, err := json.Marshal(op); err != nil || !bytes.Equal(data, rec.Data) {
				t.Fatalf("%s record %d (%s) re-encodes as %s (err %v), stored %s", name, rec.Seq, rec.Op, data, err, rec.Data)
			}
			seen[rec.Op] = true
		}
		state, _, ok := j.Snapshot()
		if !ok {
			t.Fatalf("%s: golden directory has no snapshot", name)
		}
		var ps persistedState
		if err := json.Unmarshal(state, &ps); err != nil {
			t.Fatal(err)
		}
		if data, err := json.Marshal(ps); err != nil || !bytes.Equal(data, state) {
			t.Fatalf("%s snapshot re-encodes differently (err %v)", name, err)
		}
	}
	for op := range opTable {
		if !seen[op] {
			t.Errorf("golden journals hold no %s record", op)
		}
	}
}
