package unit

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestFactsFileRoundTrip(t *testing.T) {
	fs := analysis.NewFactSet()
	fs.Add(analysis.FactRecord{
		Analyzer: "lockorder", Kind: analysis.ObjectFactKind,
		Key: "repro/internal/server.Store.Assert", Type: "locksFact",
		Data: []byte(`{"locks":["repro/internal/server.state.mu"]}`),
	})
	fs.Add(analysis.FactRecord{
		Analyzer: "lockorder", Kind: analysis.PackageFactKind,
		Key: "repro/internal/server", Type: "graphFact",
		Data: []byte(`{"edges":[{"from":"a.mu","to":"b.mu","witness":["f"]}]}`),
	})

	path := filepath.Join(t.TempDir(), "pkg.vetx")
	if err := WriteFactsFile(path, "tool-abc", fs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFactsFile(path, "tool-abc")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip returned %d facts, want 2", got.Len())
	}
	recs := got.Records()
	if recs[0].Key != "repro/internal/server.Store.Assert" && recs[1].Key != "repro/internal/server.Store.Assert" {
		t.Fatalf("object fact key lost: %+v", recs)
	}

	// A second write-read through a fresh set must preserve the payloads
	// bit-for-bit: drivers merge and re-serialize dependency facts when
	// forwarding them, so the envelope cannot be lossy.
	merged := analysis.NewFactSet()
	merged.Merge(got)
	path2 := filepath.Join(t.TempDir(), "fwd.vetx")
	if err := WriteFactsFile(path2, "tool-abc", merged); err != nil {
		t.Fatal(err)
	}
	again, err := ReadFactsFile(path2, "tool-abc")
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 2 {
		t.Fatalf("forwarded set has %d facts, want 2", again.Len())
	}
}

func TestFactsFileEmptySet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "std.vetx")
	if err := WriteFactsFile(path, "tool-abc", nil); err != nil {
		t.Fatal(err)
	}
	fs, err := ReadFactsFile(path, "tool-abc")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 0 {
		t.Fatalf("empty facts file decoded to %d facts", fs.Len())
	}
}

func TestStaleFactsFileRejected(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name     string
		content  string
		toolID   string
		wantKind string
	}{
		{
			name:     "v1 stamp",
			content:  "sit-vet facts v1\n",
			toolID:   "tool-abc",
			wantKind: StaleV1Stamp,
		},
		{
			name:     "wrong version",
			content:  `{"version":"sit-vet-facts/1","toolID":"tool-abc","facts":[]}`,
			toolID:   "tool-abc",
			wantKind: StaleVersion,
		},
		{
			name:     "wrong tool build",
			content:  `{"version":"` + FactsVersion + `","toolID":"other-build","facts":[]}`,
			toolID:   "tool-abc",
			wantKind: StaleTool,
		},
		{
			name:     "corrupt",
			content:  `{"version":`,
			toolID:   "tool-abc",
			wantKind: StaleCorrupt,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_")+".vetx")
			if err := os.WriteFile(path, []byte(c.content), 0o666); err != nil {
				t.Fatal(err)
			}
			fs, err := ReadFactsFile(path, c.toolID)
			if err == nil {
				t.Fatalf("stale facts file was silently reused (%d facts)", fs.Len())
			}
			var stale *StaleFactsError
			if !errors.As(err, &stale) {
				t.Fatalf("error %v is not a *StaleFactsError", err)
			}
			if stale.Kind != c.wantKind {
				t.Fatalf("stale kind = %q, want %q (error: %v)", stale.Kind, c.wantKind, err)
			}
			if stale.Path != path {
				t.Fatalf("stale path = %q, want %q", stale.Path, path)
			}
		})
	}
}

func TestFactsFileToolCheckSkippable(t *testing.T) {
	// Same-process readers (modrun forwarding its own output) pass "" to
	// skip the tool check; the version check still applies.
	path := filepath.Join(t.TempDir(), "own.vetx")
	if err := WriteFactsFile(path, "some-build", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFactsFile(path, ""); err != nil {
		t.Fatalf("tool check not skipped: %v", err)
	}
}
