package session

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/assertion"
	"repro/internal/ecr"
	"repro/internal/errtest"
	"repro/internal/paperex"
)

func paperWorkspace(t testing.TB) *Workspace {
	t.Helper()
	ws := NewWorkspace()
	if err := ws.AddSchema(paperex.Sc1()); err != nil {
		t.Fatal(err)
	}
	if err := ws.AddSchema(paperex.Sc2()); err != nil {
		t.Fatal(err)
	}
	reg := ws.Registry()
	declare := func(o1, a1, o2, a2 string, k1, k2 ecr.Kind) {
		t.Helper()
		if err := reg.Declare(
			ecr.AttrRef{Schema: "sc1", Object: o1, Kind: k1, Attr: a1},
			ecr.AttrRef{Schema: "sc2", Object: o2, Kind: k2, Attr: a2},
		); err != nil {
			t.Fatal(err)
		}
	}
	declare("Student", "Name", "Grad_student", "Name", ecr.KindEntity, ecr.KindEntity)
	declare("Student", "Name", "Faculty", "Name", ecr.KindEntity, ecr.KindEntity)
	declare("Student", "GPA", "Grad_student", "GPA", ecr.KindEntity, ecr.KindEntity)
	declare("Department", "Dname", "Department", "Dname", ecr.KindEntity, ecr.KindEntity)
	declare("Majors", "Since", "Stud_major", "Since", ecr.KindRelationship, ecr.KindRelationship)

	objs := ws.ObjectAssertions("sc1", "sc2")
	for _, a := range []struct {
		o1 string
		k  assertion.Kind
		o2 string
	}{
		{"Department", assertion.Equals, "Department"},
		{"Student", assertion.Contains, "Grad_student"},
		{"Student", assertion.DisjointIntegrable, "Faculty"},
	} {
		if err := objs.Assert(
			assertion.ObjKey{Schema: "sc1", Object: a.o1},
			assertion.ObjKey{Schema: "sc2", Object: a.o2}, a.k); err != nil {
			t.Fatal(err)
		}
	}
	rels := ws.RelationshipAssertions("sc1", "sc2")
	if err := rels.Assert(
		assertion.ObjKey{Schema: "sc1", Object: "Majors"},
		assertion.ObjKey{Schema: "sc2", Object: "Stud_major"},
		assertion.Equals); err != nil {
		t.Fatal(err)
	}
	return ws
}

func TestWorkspaceAddRemove(t *testing.T) {
	ws := NewWorkspace()
	if err := ws.AddSchema(paperex.Sc1()); err != nil {
		t.Fatal(err)
	}
	if err := ws.AddSchema(paperex.Sc1()); err == nil {
		t.Error("duplicate schema should fail")
	}
	if err := ws.AddSchema(ecr.NewSchema("")); err == nil {
		t.Error("unnamed schema should fail")
	}
	if !ws.RemoveSchema("sc1") || ws.RemoveSchema("sc1") {
		t.Error("remove semantics wrong")
	}
}

func TestWorkspaceRemoveDropsAssertions(t *testing.T) {
	ws := paperWorkspace(t)
	ws.RemoveSchema("sc2")
	if ws.ObjectAssertions("sc1", "sc2").Len() != 0 {
		t.Error("assertions survived schema removal")
	}
}

func TestWorkspaceIntegrateAndCache(t *testing.T) {
	ws := paperWorkspace(t)
	res1, err := ws.Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ws.Integrate("sc2", "sc1") // pair key is symmetric
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("integration result not cached")
	}
	ws.Invalidate()
	res3, err := ws.Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	if res3 == res1 {
		t.Error("invalidate did not drop cache")
	}
	if _, err := ws.Integrate("sc1", "nope"); err == nil {
		t.Error("unknown schema should fail")
	}
}

func TestWorkspaceSaveLoadRoundTrip(t *testing.T) {
	ws := paperWorkspace(t)
	path := filepath.Join(t.TempDir(), "workspace.json")
	if err := ws.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Schemas()) != 2 {
		t.Fatalf("schemas = %d", len(back.Schemas()))
	}
	// Equivalences survive.
	if !back.Registry().Equivalent(
		ecr.AttrRef{Schema: "sc1", Object: "Student", Kind: ecr.KindEntity, Attr: "Name"},
		ecr.AttrRef{Schema: "sc2", Object: "Faculty", Kind: ecr.KindEntity, Attr: "Name"},
	) {
		t.Error("equivalences lost")
	}
	// Assertions survive.
	got := back.ObjectAssertions("sc1", "sc2").Kind(
		assertion.ObjKey{Schema: "sc1", Object: "Student"},
		assertion.ObjKey{Schema: "sc2", Object: "Grad_student"},
	)
	if got != assertion.Contains {
		t.Errorf("assertion after load = %v", got)
	}
	// The loaded workspace must produce the same integrated schema.
	a, err := ws.Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Integrate("sc1", "sc2")
	if err != nil {
		t.Fatal(err)
	}
	if ecr.FormatSchema(a.Schema) != ecr.FormatSchema(b.Schema) {
		t.Error("integration differs after save/load")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); !errtest.Contains(err, "decode") {
		t.Errorf("err = %v", err)
	}
}

func TestPairKey(t *testing.T) {
	if pairKey("b", "a") != pairKey("a", "b") {
		t.Error("pairKey not symmetric")
	}
	if !pairHasSchema("a|b", "a") || !pairHasSchema("a|b", "b") {
		t.Error("pairHasSchema misses members")
	}
	if pairHasSchema("aa|b", "a") {
		t.Error("pairHasSchema matched a prefix")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestSaveErrorPropagates(t *testing.T) {
	ws := paperWorkspace(t)
	if err := ws.Save(filepath.Join(t.TempDir(), "missing-dir", "ws.json")); err == nil {
		t.Error("unwritable path should fail")
	}
}

func TestSessionRunSavesOnExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ws.json")
	io := NewScriptIO("e")
	ws := paperWorkspace(t)
	s := New(ws, io)
	s.SavePath = path
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("workspace not saved: %v", err)
	}
}

func TestSessionRunSavesOnEOF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ws.json")
	io := NewScriptIO() // immediate exhaustion
	s := New(paperWorkspace(t), io)
	s.SavePath = path
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("workspace not saved on EOF: %v", err)
	}
}

// TestMarshalRoundTripIsExact: a workspace decoded from its encoding
// encodes to the same bytes. The cases are the ones a server snapshot must
// survive: a class joining two attributes of one object through a third
// (Declare refuses to pair those two directly), classes numbered in an
// order other than their sorted one, and a workspace whose schemas were
// all removed.
func TestMarshalRoundTripIsExact(t *testing.T) {
	joined := paperWorkspace(t)
	if err := joined.Registry().Declare(
		ecr.AttrRef{Schema: "sc1", Object: "Student", Kind: ecr.KindEntity, Attr: "GPA"},
		ecr.AttrRef{Schema: "sc2", Object: "Faculty", Kind: ecr.KindEntity, Attr: "Name"},
	); err != nil {
		t.Fatal(err)
	}
	emptied := NewWorkspace()
	if err := emptied.AddSchema(paperex.Sc1()); err != nil {
		t.Fatal(err)
	}
	emptied.RemoveSchema("sc1")
	for name, ws := range map[string]*Workspace{"joined class": joined, "emptied": emptied} {
		data, err := Marshal(ws)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: decode own encoding: %v", name, err)
		}
		again, err := Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Errorf("%s: re-encoding differs:\n%s\nwant\n%s", name, again, data)
		}
	}
}
