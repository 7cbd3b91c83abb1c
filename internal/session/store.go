// Package session implements the interactive schema integration tool
// itself: the six-task main menu and the twelve screens of the paper,
// driven over a line-oriented IO abstraction so the same state machine runs
// against a real terminal (cmd/sit) and against scripted input in tests and
// benchmarks. The Workspace holds the tool's bookkeeping — schemas,
// attribute equivalence classes and assertion matrices — and persists to a
// JSON file between runs.
package session

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"

	"repro/internal/assertion"
	"repro/internal/ecr"
	"repro/internal/equivalence"
	"repro/internal/integrate"
	"repro/internal/resemblance"
	"repro/internal/similarity"
)

// Workspace is the tool's persistent state.
type Workspace struct {
	schemas  []*ecr.Schema
	registry *equivalence.Registry
	// sim is the sparse similarity engine over registry, maintained
	// incrementally through the registry's observer hooks.
	sim *similarity.Engine
	// Assertion closure engines per schema pair, keyed by sorted pair
	// name. Each engine maintains its matrix and transitive closure
	// incrementally.
	objAsserts map[string]*assertion.Engine
	relAsserts map[string]*assertion.Engine
	// results caches integration outcomes per pair for the viewing
	// screens; not persisted (recomputed on demand).
	results map[string]*integrate.Result
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	w := &Workspace{
		registry:   equivalence.NewRegistry(),
		objAsserts: map[string]*assertion.Engine{},
		relAsserts: map[string]*assertion.Engine{},
		results:    map[string]*integrate.Result{},
	}
	w.sim = similarity.Attach(w.registry)
	return w
}

// Schemas returns the defined schemas in definition order.
func (w *Workspace) Schemas() []*ecr.Schema { return w.schemas }

// Schema returns the named schema, or nil.
func (w *Workspace) Schema(name string) *ecr.Schema {
	for _, s := range w.schemas {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// AddSchema registers a schema definition.
func (w *Workspace) AddSchema(s *ecr.Schema) error {
	if s == nil || s.Name == "" {
		return fmt.Errorf("session: schema needs a name")
	}
	if w.Schema(s.Name) != nil {
		return fmt.Errorf("session: schema %q already defined", s.Name)
	}
	w.schemas = append(w.schemas, s)
	w.registry.RegisterSchema(s)
	return nil
}

// RemoveSchema deletes the named schema and every assertion involving it.
func (w *Workspace) RemoveSchema(name string) bool {
	for i, s := range w.schemas {
		if s.Name == name {
			w.schemas = append(w.schemas[:i], w.schemas[i+1:]...)
			for key := range w.objAsserts {
				if pairHasSchema(key, name) {
					delete(w.objAsserts, key)
				}
			}
			for key := range w.relAsserts {
				if pairHasSchema(key, name) {
					delete(w.relAsserts, key)
				}
			}
			w.invalidate(name)
			return true
		}
	}
	return false
}

// Registry exposes the attribute equivalence registry.
func (w *Workspace) Registry() *equivalence.Registry { return w.registry }

// Similarity exposes the sparse similarity engine attached to the registry.
func (w *Workspace) Similarity() *similarity.Engine { return w.sim }

// RankObjects ranks the object-class pairs of the two schemas by the
// resemblance function through the sparse engine (identical output to
// resemblance.RankObjects).
func (w *Workspace) RankObjects(s1, s2 *ecr.Schema) []resemblance.Pair {
	return w.sim.RankObjects(s1, s2)
}

// RankRelationships ranks the relationship-set pairs the same way.
func (w *Workspace) RankRelationships(s1, s2 *ecr.Schema) []resemblance.Pair {
	return w.sim.RankRelationships(s1, s2)
}

func pairKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

func pairHasSchema(key, name string) bool {
	for i := 0; i+len(name) <= len(key); i++ {
		if key[i:i+len(name)] == name {
			boundL := i == 0 || key[i-1] == '|'
			end := i + len(name)
			boundR := end == len(key) || key[end] == '|'
			if boundL && boundR {
				return true
			}
		}
	}
	return false
}

// ObjectAssertions returns (creating if needed) the object-class assertion
// engine for a schema pair.
func (w *Workspace) ObjectAssertions(s1, s2 string) *assertion.Engine {
	key := pairKey(s1, s2)
	if w.objAsserts[key] == nil {
		w.objAsserts[key] = assertion.NewEngine()
	}
	return w.objAsserts[key]
}

// RelationshipAssertions returns (creating if needed) the relationship-set
// assertion engine for a schema pair.
func (w *Workspace) RelationshipAssertions(s1, s2 string) *assertion.Engine {
	key := pairKey(s1, s2)
	if w.relAsserts[key] == nil {
		w.relAsserts[key] = assertion.NewEngine()
	}
	return w.relAsserts[key]
}

// invalidate drops cached integration results touching the named schema.
func (w *Workspace) invalidate(name string) {
	for key := range w.results {
		if pairHasSchema(key, name) {
			delete(w.results, key)
		}
	}
}

// Integrate runs (or returns the cached) integration of the pair.
func (w *Workspace) Integrate(s1, s2 string) (*integrate.Result, error) {
	key := pairKey(s1, s2)
	if res := w.results[key]; res != nil {
		return res, nil
	}
	a, b := w.Schema(s1), w.Schema(s2)
	if a == nil || b == nil {
		return nil, fmt.Errorf("session: unknown schema in pair %s/%s", s1, s2)
	}
	res, err := integrate.Integrate(integrate.Input{
		S1: a, S2: b,
		Registry:      w.registry,
		Objects:       w.ObjectAssertions(s1, s2).Set(),
		Relationships: w.RelationshipAssertions(s1, s2).Set(),
	})
	if err != nil {
		return nil, err
	}
	w.results[key] = res
	return res, nil
}

// Invalidate drops every cached integration result (after edits).
func (w *Workspace) Invalidate() {
	w.results = map[string]*integrate.Result{}
}

// --- persistence ---

type storedAssertion struct {
	SchemaA string `json:"schemaA"`
	ObjectA string `json:"objectA"`
	SchemaB string `json:"schemaB"`
	ObjectB string `json:"objectB"`
	Code    int    `json:"code"`
}

type storedWorkspace struct {
	Schemas       []*ecr.Schema     `json:"schemas"`
	Equivalences  [][]ecr.AttrRef   `json:"equivalences,omitempty"`
	ObjAssertions []storedAssertion `json:"objectAssertions,omitempty"`
	RelAssertions []storedAssertion `json:"relationshipAssertions,omitempty"`
}

// Marshal encodes the workspace as JSON: schemas, multi-member
// equivalence classes and DDA-specified assertions (derived entries are
// recomputed on load). It is the byte-level form behind Save and the
// server's durability snapshots.
func Marshal(w *Workspace) ([]byte, error) {
	st := storedWorkspace{
		Schemas:      w.schemas,
		Equivalences: w.registry.Classes(),
	}
	// Class numbers follow declaration history; ordering the classes by
	// their first member makes equal workspaces encode byte-identically
	// however they were built — live, replayed, or loaded from this form.
	slices.SortFunc(st.Equivalences, func(a, b []ecr.AttrRef) int {
		return cmp.Or(cmp.Compare(a[0].Schema, b[0].Schema), cmp.Compare(a[0].Object, b[0].Object), cmp.Compare(a[0].Attr, b[0].Attr))
	})
	collect := func(sets map[string]*assertion.Engine) []storedAssertion {
		var keys []string
		for k := range sets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var out []storedAssertion
		for _, k := range keys {
			for _, e := range sets[k].Entries() {
				if e.Derived {
					continue
				}
				out = append(out, storedAssertion{
					SchemaA: e.A.Schema, ObjectA: e.A.Object,
					SchemaB: e.B.Schema, ObjectB: e.B.Object,
					Code: e.Kind.Code(),
				})
			}
		}
		return out
	}
	st.ObjAssertions = collect(w.objAsserts)
	st.RelAssertions = collect(w.relAsserts)

	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("session: encode workspace: %w", err)
	}
	return data, nil
}

// Save writes the workspace to a JSON file. Only DDA-specified assertions
// are stored; derived entries are recomputed on demand.
func (w *Workspace) Save(path string) error {
	data, err := Marshal(w)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("session: write workspace: %w", err)
	}
	return os.Rename(tmp, path)
}

// Unmarshal rebuilds a workspace from Marshal's encoding.
func Unmarshal(data []byte) (*Workspace, error) {
	var st storedWorkspace
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("session: decode workspace: %w", err)
	}
	w := NewWorkspace()
	if st.Schemas != nil {
		// An emptied workspace encodes "schemas": [] and a fresh one null;
		// keep the two apart so Marshal(Unmarshal(data)) == data.
		w.schemas = make([]*ecr.Schema, 0, len(st.Schemas))
	}
	for _, s := range st.Schemas {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if err := w.AddSchema(s); err != nil {
			return nil, err
		}
	}
	for _, class := range st.Equivalences {
		// Declare refuses a same-object pair, yet a class can hold two
		// attributes of one object joined through a third: pair each member
		// with the class's first member of another object, which keeps the
		// pairs connected (a class with no such member fails as before).
		for _, a := range class[1:] {
			i := max(0, slices.IndexFunc(class, func(m ecr.AttrRef) bool {
				return m.Schema != a.Schema || m.Object != a.Object
			}))
			if err := w.registry.Declare(class[i], a); err != nil {
				return nil, fmt.Errorf("session: load equivalences: %w", err)
			}
		}
	}
	apply := func(stored []storedAssertion, pick func(s1, s2 string) *assertion.Engine) error {
		for _, a := range stored {
			kind, err := assertion.KindFromCode(a.Code)
			if err != nil {
				return err
			}
			set := pick(a.SchemaA, a.SchemaB)
			if err := set.Assert(
				assertion.ObjKey{Schema: a.SchemaA, Object: a.ObjectA},
				assertion.ObjKey{Schema: a.SchemaB, Object: a.ObjectB},
				kind,
			); err != nil {
				return err
			}
		}
		return nil
	}
	if err := apply(st.ObjAssertions, w.ObjectAssertions); err != nil {
		return nil, fmt.Errorf("session: load object assertions: %w", err)
	}
	if err := apply(st.RelAssertions, w.RelationshipAssertions); err != nil {
		return nil, fmt.Errorf("session: load relationship assertions: %w", err)
	}
	return w, nil
}

// Load reads a workspace from a JSON file written by Save.
func Load(path string) (*Workspace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}
