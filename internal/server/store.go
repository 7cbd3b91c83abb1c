// Package server exposes the schema-integration pipeline over HTTP/JSON:
// schema upload (ECR DDL or JSON), attribute equivalences, resemblance
// ranking, dictionary suggestions, assertions with immediate closure, and
// integration — synchronously for small requests and through an async job
// queue backed by a bounded worker pool for heavy ones. The package adds
// the production plumbing the interactive tool never needed: a concurrency-
// safe store over session.Workspace, structured request logging, metrics,
// request timeouts and graceful shutdown.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/assertion"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/ecr"
	"repro/internal/equivalence"
	"repro/internal/instance"
	"repro/internal/integrate"
	"repro/internal/resemblance"
	"repro/internal/session"
)

// Store is the concurrency-safe layer over a session.Workspace. The
// workspace itself is single-user by design (the interactive tool owns its
// terminal); the store guards every access with an RWMutex so that HTTP
// handlers and job-queue workers can share one workspace.
//
// Integration results are cached per schema pair, tagged with a generation
// counter that every mutation bumps: a result computed against an older
// generation is returned to its requester but never cached, so readers can
// integrate outside the lock without serializing behind each other.
type Store struct {
	mu  sync.RWMutex
	ws  *session.Workspace // guarded by mu
	gen uint64             // guarded by mu
	// results caches integrations keyed by sorted pair, valid for the
	// generation at which they were computed.
	results map[string]cachedResult // guarded by mu
	// schemaGen counts schema additions and removals only. Together with
	// the registry's version counter it stamps similarity-cache entries:
	// assertions bump gen but neither of these, so rankings stay cached
	// across assertion traffic.
	schemaGen uint64 // guarded by mu
	// simMu guards simCache (its own mutex so cached similarity reads
	// don't contend with the workspace lock more than needed; lock order
	// is always st.mu before simMu).
	simMu    sync.Mutex
	simCache map[simKey]simEntry // guarded by simMu
	// simHits/simMisses count similarity-cache outcomes for /metrics.
	simHits, simMisses atomic.Uint64
	// cloMu guards cloCache, the versioned closure-result cache: assertion
	// listings are stamped with the engine's version counter and the
	// schema generation, so repeated reads of an unchanged matrix are
	// served without re-copying entries (lock order: st.mu before cloMu).
	cloMu    sync.Mutex
	cloCache map[cloKey]cloEntry // guarded by cloMu
	// cloHits/cloMisses count closure-cache outcomes; closureDerived and
	// closureConflicts count entries derived and conflicts reported by
	// assertion operations, all for /metrics.
	cloHits, cloMisses               atomic.Uint64
	closureDerived, closureConflicts atomic.Uint64
	// persist, when set, journals every mutation before it is applied
	// (write-ahead): mutations are pre-validated, then journaled, then
	// applied, so an operation the journal rejected never reaches memory
	// and an operation in the journal always replays cleanly.
	persist journalFn // guarded by mu
	// maxSchemas, when positive, caps how many schemas the store may hold.
	// Checked before journaling, so a quota rejection never reaches the log;
	// replica stores leave it 0 — replicated records must always apply.
	maxSchemas int // guarded by mu

	// Federation state: saved integration results (the materialized
	// integrated schema plus its mapping table), the instance stores holding
	// loaded rows, and the ordered log of accepted row batches. The row log —
	// not the stores — is what snapshots carry; an instance store is rebuilt
	// by replaying its batches. Saves and row loads journal write-ahead like
	// every other mutation, so mapping tables and rows survive a crash and
	// replicate to followers.
	integrations map[string]*savedIntegration // guarded by mu
	instances    map[string]*instance.Store   // guarded by mu
	rowLog       []loadRowsRec                // guarded by mu
}

type cachedResult struct {
	gen uint64
	res *integrate.Result
}

// simKey identifies one cached similarity query: the ordered schema pair,
// the structure kind, and whether the ranking or the full count matrix was
// asked for.
type simKey struct {
	schema1, schema2 string
	rel              bool
	matrix           bool
}

// simEntry is one cached similarity result, valid while the registry
// version and schema generation it was computed under remain current.
type simEntry struct {
	regVersion uint64
	schemaGen  uint64
	pairs      []resemblance.Pair
	matrix     *equivalence.Matrix
}

// cloKey identifies one cached closure listing: the ordered schema pair and
// the structure kind.
type cloKey struct {
	schema1, schema2 string
	rel              bool
}

// cloEntry is one cached assertion listing, valid while the engine version
// and schema generation it was computed under remain current.
type cloEntry struct {
	version   uint64
	schemaGen uint64
	entries   []assertion.Entry
}

// ErrNotFound marks lookups of named structures that do not exist; handlers
// map it to 404 with errors.Is rather than by matching message text (the
// messages embed user-controlled names).
var ErrNotFound = errors.New("not found")

// NewStore returns a store over an empty workspace.
func NewStore() *Store {
	return NewStoreFrom(session.NewWorkspace())
}

// NewStoreFrom wraps an existing workspace (for example one loaded from a
// saved JSON file). The caller must not touch the workspace afterwards.
func NewStoreFrom(ws *session.Workspace) *Store {
	return &Store{
		ws:           ws,
		results:      map[string]cachedResult{},
		simCache:     map[simKey]simEntry{},
		cloCache:     map[cloKey]cloEntry{},
		integrations: map[string]*savedIntegration{},
		instances:    map[string]*instance.Store{},
	}
}

// SetPersist installs the write-ahead hook (nil disables journaling).
// Call before the store is shared. Replay applies records without it, so
// replayed operations are never re-journaled.
func (st *Store) SetPersist(fn func(op string, v any) error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.persist = fn
}

// commit journals rec and then applies it — the live path of every store
// op; callers hold the write lock and have validated rec.
//
//sit:locked mu
func (st *Store) commit(rec durableOp) error {
	if err := st.persist.write(rec); err != nil {
		return err
	}
	return rec.apply(opTarget{st: st})
}

func resultKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

// touch invalidates cached results; callers hold the write lock.
// Integration results are dropped wholesale; similarity entries are swept
// only when their version stamps no longer match, so assertion traffic
// (which changes neither the registry nor the schema set) leaves them hot.
//
//sit:locked mu
func (st *Store) touch() {
	st.gen++
	st.results = map[string]cachedResult{}
	regV := st.ws.Registry().Version()
	st.simMu.Lock()
	for k, e := range st.simCache {
		if e.regVersion != regV || e.schemaGen != st.schemaGen {
			delete(st.simCache, k)
		}
	}
	st.simMu.Unlock()
	// Closure entries from an older schema generation can never validate
	// again; same-generation entries self-invalidate against the engine
	// version at lookup time (and are overwritten in place), so they are
	// left alone here.
	st.cloMu.Lock()
	for k, e := range st.cloCache {
		if e.schemaGen != st.schemaGen {
			delete(st.cloCache, k)
		}
	}
	st.cloMu.Unlock()
}

// simLookup consults the similarity cache; callers hold st.mu (read or
// write), so the version stamps cannot move underneath the comparison.
//
// A cache hit must cost a map probe, not garbage: this sits under every
// integration's inner loop.
//
//sit:rlocked mu
//sit:hotpath
func (st *Store) simLookup(key simKey) (simEntry, bool) {
	regV := st.ws.Registry().Version()
	st.simMu.Lock()
	e, ok := st.simCache[key]
	st.simMu.Unlock()
	if ok && e.regVersion == regV && e.schemaGen == st.schemaGen {
		st.simHits.Add(1)
		return e, true
	}
	st.simMisses.Add(1)
	return simEntry{}, false
}

// simStore records a freshly computed result; callers hold st.mu, so the
// stamps match the state the result was computed under.
//
//sit:rlocked mu
//sit:hotpath
func (st *Store) simStore(key simKey, e simEntry) {
	e.regVersion = st.ws.Registry().Version()
	e.schemaGen = st.schemaGen
	st.simMu.Lock()
	st.simCache[key] = e
	st.simMu.Unlock()
}

// SimilarityCacheStats reports cumulative similarity-cache hits and misses.
func (st *Store) SimilarityCacheStats() (hits, misses uint64) {
	return st.simHits.Load(), st.simMisses.Load()
}

// SetMaxSchemas installs the schema-count quota (0 = unlimited). Call
// before the store is shared, or from the promotion path where replicated
// stores become writable.
func (st *Store) SetMaxSchemas(max int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.maxSchemas = max
}

// AddSchemas validates and registers the given schemas, all or none.
func (st *Store) AddSchemas(schemas []*ecr.Schema) ([]string, error) {
	if len(schemas) == 0 {
		return nil, fmt.Errorf("server: no schemas in request")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	seen := map[string]bool{}
	for _, s := range schemas {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if seen[s.Name] || st.ws.Schema(s.Name) != nil {
			return nil, fmt.Errorf("server: schema %q already defined", s.Name)
		}
		seen[s.Name] = true
	}
	if have := len(st.ws.Schemas()); st.maxSchemas > 0 && have+len(schemas) > st.maxSchemas {
		return nil, fmt.Errorf("server: schema %w: workspace holds %d of %d and the request adds %d",
			ErrQuota, have, st.maxSchemas, len(schemas))
	}
	rec := &addSchemasRec{decoded: schemas}
	if st.persist != nil {
		for _, s := range schemas {
			data, err := ecr.EncodeJSON(s)
			if err != nil {
				return nil, err
			}
			rec.Schemas = append(rec.Schemas, json.RawMessage(data))
		}
	}
	if err := st.commit(rec); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(schemas))
	for _, s := range schemas {
		names = append(names, s.Name)
	}
	return names, nil
}

// AddSchemasDDL parses ECR DDL (one or more "schema" blocks) and registers
// every schema it defines.
func (st *Store) AddSchemasDDL(src string) ([]string, error) {
	schemas, err := ecr.ParseSchemas(src)
	if err != nil {
		return nil, err
	}
	return st.AddSchemas(schemas)
}

// SchemaNames lists the defined schemas in definition order.
func (st *Store) SchemaNames() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var names []string
	for _, s := range st.ws.Schemas() {
		names = append(names, s.Name)
	}
	return names
}

// SchemaStats summarizes one schema for listings.
type SchemaStats struct {
	Name          string `json:"name"`
	Entities      int    `json:"entities"`
	Categories    int    `json:"categories"`
	Relationships int    `json:"relationships"`
	Attributes    int    `json:"attributes"`
}

// Schemas lists per-schema summaries in definition order.
func (st *Store) Schemas() []SchemaStats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []SchemaStats
	for _, s := range st.ws.Schemas() {
		stats := s.Stats()
		out = append(out, SchemaStats{
			Name:          s.Name,
			Entities:      stats.Entities,
			Categories:    stats.Categories,
			Relationships: stats.Relationships,
			Attributes:    stats.Attributes,
		})
	}
	return out
}

// Schema returns a deep clone of the named schema, or nil. The clone is the
// caller's to serialize without further locking.
func (st *Store) Schema(name string) *ecr.Schema {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if s := st.ws.Schema(name); s != nil {
		return s.Clone()
	}
	return nil
}

// RemoveSchema deletes the named schema and its assertions. found is false
// when no such schema exists; err reports a durability failure (the schema
// is kept).
func (st *Store) RemoveSchema(name string) (found bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ws.Schema(name) == nil {
		return false, nil
	}
	return true, st.commit(&removeSchemaRec{Name: name})
}

// DeclareEquivalence resolves "object.attribute" references against the two
// named schemas and places the attributes in one equivalence class.
func (st *Store) DeclareEquivalence(schema1, ref1, schema2, ref2 string) error {
	rec := &declareEquivRec{Schema1: schema1, Attr1: ref1, Schema2: schema2, Attr2: ref2}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, _, err := st.equivRefs(rec); err != nil {
		return err
	}
	return st.commit(rec)
}

// equivRefs resolves a declaration's attribute references. Registry.Declare's
// only failure mode is a same-object pair; it is checked here, so a
// journaled declaration is guaranteed to replay.
//
//sit:locked mu
func (st *Store) equivRefs(r *declareEquivRec) (a, b ecr.AttrRef, err error) {
	s1, s2 := st.ws.Schema(r.Schema1), st.ws.Schema(r.Schema2)
	if s1 == nil {
		return a, b, fmt.Errorf("server: schema %q %w", r.Schema1, ErrNotFound)
	}
	if s2 == nil {
		return a, b, fmt.Errorf("server: schema %q %w", r.Schema2, ErrNotFound)
	}
	if a, err = core.ResolveAttr(s1, r.Attr1); err != nil {
		return a, b, err
	}
	if b, err = core.ResolveAttr(s2, r.Attr2); err != nil {
		return a, b, err
	}
	if a.Schema == b.Schema && a.Object == b.Object {
		return a, b, fmt.Errorf("equivalence: %s and %s belong to the same object class", a, b)
	}
	return a, b, nil
}

// EquivalenceClasses returns the declared classes (each sorted), sorted by
// their first member.
func (st *Store) EquivalenceClasses() [][]ecr.AttrRef {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.ws.Registry().Classes()
}

// schemaPair fetches both schemas of a pair under the read lock.
//
//sit:rlocked mu
func (st *Store) schemaPair(schema1, schema2 string) (*ecr.Schema, *ecr.Schema, error) {
	s1, s2 := st.ws.Schema(schema1), st.ws.Schema(schema2)
	if s1 == nil {
		return nil, nil, fmt.Errorf("server: schema %q %w", schema1, ErrNotFound)
	}
	if s2 == nil {
		return nil, nil, fmt.Errorf("server: schema %q %w", schema2, ErrNotFound)
	}
	return s1, s2, nil
}

// RankedPairs returns the resemblance-ranked object-class (or, with rel,
// relationship-set) pairs of the two schemas. Results are computed on the
// workspace's sparse similarity engine and memoized until an equivalence
// declaration or a schema change invalidates them; callers must not mutate
// the returned slice.
func (st *Store) RankedPairs(schema1, schema2 string, rel bool) ([]resemblance.Pair, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s1, s2, err := st.schemaPair(schema1, schema2)
	if err != nil {
		return nil, err
	}
	key := simKey{schema1: schema1, schema2: schema2, rel: rel}
	if e, ok := st.simLookup(key); ok {
		return e.pairs, nil
	}
	var pairs []resemblance.Pair
	if rel {
		pairs = st.ws.RankRelationships(s1, s2)
	} else {
		pairs = st.ws.RankObjects(s1, s2)
	}
	st.simStore(key, simEntry{pairs: pairs})
	return pairs, nil
}

// Matrix returns the attribute-equivalence count matrix of the two schemas
// — the ACS over object classes, or with rel the OCS over relationship
// sets. Cached like RankedPairs; callers must not mutate the result.
func (st *Store) Matrix(schema1, schema2 string, rel bool) (*equivalence.Matrix, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s1, s2, err := st.schemaPair(schema1, schema2)
	if err != nil {
		return nil, err
	}
	key := simKey{schema1: schema1, schema2: schema2, rel: rel, matrix: true}
	if e, ok := st.simLookup(key); ok {
		return e.matrix, nil
	}
	var m *equivalence.Matrix
	if rel {
		m = st.ws.Similarity().RelationshipMatrix(s1, s2)
	} else {
		m = st.ws.Similarity().ObjectMatrix(s1, s2)
	}
	st.simStore(key, simEntry{matrix: m})
	return m, nil
}

// Suggest runs the dictionary-based attribute equivalence suggestion pass
// at the given score threshold.
func (st *Store) Suggest(schema1, schema2 string, threshold float64) ([]resemblance.AttrCandidate, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("server: bad threshold %v (want 0 < t <= 1)", threshold)
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	s1, s2, err := st.schemaPair(schema1, schema2)
	if err != nil {
		return nil, err
	}
	return resemblance.SuggestEquivalences(s1, s2,
		resemblance.DefaultWeights(), dictionary.Builtin(), threshold), nil
}

// engineFor validates that both named structures exist and returns the
// pair's assertion engine; callers hold the write lock (the engine is
// created on first touch).
//
//sit:locked mu
func (st *Store) engineFor(schema1, object1, schema2, object2 string, rel bool) (*assertion.Engine, error) {
	s1, s2, err := st.schemaPair(schema1, schema2)
	if err != nil {
		return nil, err
	}
	if rel {
		if s1.Relationship(object1) == nil {
			return nil, fmt.Errorf("server: schema %s has no relationship set %q", s1.Name, object1)
		}
		if s2.Relationship(object2) == nil {
			return nil, fmt.Errorf("server: schema %s has no relationship set %q", s2.Name, object2)
		}
		return st.ws.RelationshipAssertions(schema1, schema2), nil
	}
	if s1.Object(object1) == nil {
		return nil, fmt.Errorf("server: schema %s has no object class %q", s1.Name, object1)
	}
	if s2.Object(object2) == nil {
		return nil, fmt.Errorf("server: schema %s has no object class %q", s2.Name, object2)
	}
	return st.ws.ObjectAssertions(schema1, schema2), nil
}

// Assert records an assertion between object classes (or, with rel,
// relationship sets) of the two schemas; the incremental engine closes the
// matrix as part of the operation. The closure result carries the entries
// this assertion derived and the matrix's conflicts; chains grounds each
// conflict in the DDA-specified assertions that imply it. A conflicted
// matrix keeps the assertion, as the interactive tool does, leaving
// resolution to a later Retract.
func (st *Store) Assert(schema1, object1 string, code int, schema2, object2 string, rel bool) (assertion.CloseResult, [][]string, error) {
	if _, err := assertion.KindFromCode(code); err != nil {
		return assertion.CloseResult{}, nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.engineFor(schema1, object1, schema2, object2, rel); err != nil {
		return assertion.CloseResult{}, nil, err
	}
	rec := &assertRec{
		Schema1: schema1, Object1: object1, Code: code,
		Schema2: schema2, Object2: object2, Rel: rel,
	}
	if err := st.commit(rec); err != nil {
		return assertion.CloseResult{}, nil, err
	}
	return rec.res, st.explainConflicts(rec.eng, rec.res.Conflicts), nil
}

// Retract removes the DDA-specified assertion between the two structures,
// dropping exactly the derived entries that lost their last support and
// re-deriving the ones that still follow from the rest of the matrix.
// Retracting a derived entry fails with an *assertion.DerivedError carrying
// the derivation chain; Found is false when no assertion was held.
func (st *Store) Retract(schema1, object1, schema2, object2 string, rel bool) (assertion.RetractResult, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	eng, err := st.engineFor(schema1, object1, schema2, object2, rel)
	if err != nil {
		return assertion.RetractResult{}, err
	}
	// Pre-validate so the journaled record always replays: an absent pair
	// or a derived entry never reaches the log.
	ent, ok := eng.Entry(
		assertion.ObjKey{Schema: schema1, Object: object1},
		assertion.ObjKey{Schema: schema2, Object: object2})
	if !ok {
		return assertion.RetractResult{}, nil
	}
	if ent.Derived {
		return assertion.RetractResult{}, &assertion.DerivedError{Entry: ent}
	}
	rec := &retractRec{
		Schema1: schema1, Object1: object1,
		Schema2: schema2, Object2: object2, Rel: rel,
	}
	if err := st.commit(rec); err != nil {
		return assertion.RetractResult{}, err
	}
	return rec.res, nil
}

// ExplainAssertion returns the chain of DDA-specified assertions implying
// the entry held between the two structures (the entry itself when it is
// specified). found is false when the pair holds no entry.
func (st *Store) ExplainAssertion(schema1, object1, schema2, object2 string, rel bool) (chain []string, found bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	eng, err := st.engineFor(schema1, object1, schema2, object2, rel)
	if err != nil {
		return nil, false, err
	}
	stmts, ok := eng.Explain(
		assertion.ObjKey{Schema: schema1, Object: object1},
		assertion.ObjKey{Schema: schema2, Object: object2})
	if !ok {
		return nil, false, nil
	}
	for _, s := range stmts {
		chain = append(chain, s.String())
	}
	return chain, true, nil
}

// explainConflicts grounds every conflict in its supporting specified
// assertions; callers hold the write lock.
//
//sit:locked mu
func (st *Store) explainConflicts(eng *assertion.Engine, conflicts []*assertion.Conflict) [][]string {
	if len(conflicts) == 0 {
		return nil
	}
	out := make([][]string, len(conflicts))
	for i, c := range conflicts {
		for _, s := range eng.ExplainConflict(c) {
			out[i] = append(out[i], s.String())
		}
	}
	return out
}

// Assertions lists the entries of the pair's assertion matrix. Listings are
// cached per (pair, kind) and stamped with the engine's version counter, so
// repeated reads of an unchanged matrix cost one map probe; callers must
// not mutate the result.
//
// The cached read is the steady state — assertion listings poll this from
// the UI and the replication tests — so the function body must not
// allocate (the miss path's garbage lives inside eng.Entries).
//
//sit:hotpath
func (st *Store) Assertions(schema1, schema2 string, rel bool) ([]assertion.Entry, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, _, err := st.schemaPair(schema1, schema2); err != nil {
		return nil, err
	}
	// ObjectAssertions/RelationshipAssertions create the empty engine on
	// first touch, hence the write lock.
	var eng *assertion.Engine
	if rel {
		eng = st.ws.RelationshipAssertions(schema1, schema2)
	} else {
		eng = st.ws.ObjectAssertions(schema1, schema2)
	}
	key := cloKey{schema1: schema1, schema2: schema2, rel: rel}
	st.cloMu.Lock()
	e, ok := st.cloCache[key]
	st.cloMu.Unlock()
	if ok && e.version == eng.Version() && e.schemaGen == st.schemaGen {
		st.cloHits.Add(1)
		return e.entries, nil
	}
	st.cloMisses.Add(1)
	entries := eng.Entries()
	st.cloMu.Lock()
	st.cloCache[key] = cloEntry{version: eng.Version(), schemaGen: st.schemaGen, entries: entries}
	st.cloMu.Unlock()
	return entries, nil
}

// ClosureStats reports the closure-cache and closure-operation counters:
// cache hits and misses, entries derived, and conflicts reported.
func (st *Store) ClosureStats() (hits, misses, derived, conflicts uint64) {
	return st.cloHits.Load(), st.cloMisses.Load(), st.closureDerived.Load(), st.closureConflicts.Load()
}

// Integrate runs (or returns the cached) integration of the pair using the
// workspace's declared equivalences and assertions. The computation happens
// outside the lock against cloned inputs, so long integrations of distinct
// pairs proceed concurrently; the result is cached only if no mutation
// landed meanwhile.
func (st *Store) Integrate(schema1, schema2 string) (*integrate.Result, error) {
	st.mu.Lock()
	key := resultKey(schema1, schema2)
	if c, ok := st.results[key]; ok && c.gen == st.gen {
		st.mu.Unlock()
		return c.res, nil
	}
	s1, s2, err := st.schemaPair(schema1, schema2)
	if err != nil {
		st.mu.Unlock()
		return nil, err
	}
	gen := st.gen
	var (
		reg  *equivalence.Registry = st.ws.Registry().Clone()
		objs *assertion.Set        = st.ws.ObjectAssertions(schema1, schema2).Clone()
		rels *assertion.Set        = st.ws.RelationshipAssertions(schema1, schema2).Clone()
	)
	st.mu.Unlock()

	res, err := integrate.Integrate(integrate.Input{
		S1: s1, S2: s2,
		Registry:      reg,
		Objects:       objs,
		Relationships: rels,
	})
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	if st.gen == gen {
		st.results[key] = cachedResult{gen: gen, res: res}
	}
	st.mu.Unlock()
	return res, nil
}

// RunSpec parses and executes a batch integration specification against the
// store's schemas — the one-shot path: the spec carries its own
// equivalences and assertions and leaves the workspace untouched.
func (st *Store) RunSpec(src string) (*integrate.Result, error) {
	spec, err := batch.ParseSpec(src)
	if err != nil {
		return nil, err
	}
	st.mu.RLock()
	schemas := append([]*ecr.Schema(nil), st.ws.Schemas()...)
	st.mu.RUnlock()
	// Schemas are immutable once registered, so batch.Run can proceed on
	// the snapshot without holding the lock.
	return batch.Run(schemas, spec)
}

// Generation returns the mutation counter (diagnostics and tests).
func (st *Store) Generation() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.gen
}
