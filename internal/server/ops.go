package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/assertion"
	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/session"
)

// The journaled operations. Store mutations are written ahead of being
// applied; job records trace each job's lifecycle (a job whose trace stops
// at "submitted" is re-enqueued on recovery, one stopped at "started"
// comes back interrupted).
const (
	opAddSchemas   = "add_schemas"
	opRemoveSchema = "remove_schema"
	opDeclareEquiv = "declare_equiv"
	opAssert       = "assert"
	opRetract      = "retract"
	opJobSubmit    = "job_submit"
	opJobStart     = "job_start"
	opJobFinish    = "job_finish"
	// opSaveIntegration persists one integration result (materialized
	// schema + mapping table); opLoadRows persists one accepted instance-row
	// batch. Together they make the federated query layer durable.
	opSaveIntegration = "save_integration"
	opLoadRows        = "load_rows"
	// opSetKeys replaces the API-key set (hashes only, never tokens). It
	// rides the default workspace's journal so followers replicate and
	// enforce the same keys; last record wins on replay.
	opSetKeys = "set_keys"
)

// durableOp is one journaled operation: its record is the journal
// encoding, and apply installs its effect on a workspace's state. A live
// mutation validates, journals the record and applies that same record;
// crash recovery and a follower's apply loop decode it through opTable and
// apply it the same way, so live and replayed effects cannot diverge.
//
// An apply that calls the session/assertion mutators is marked
// //sit:replay: it only ever runs on a record already in the journal, since
// the live paths (Store.commit, Queue.Submit and Queue.transition) journal
// before applying.
// Adding an op takes one record type with op and apply methods, one row
// in opTable, and a case in the durable-ops property test's generator.
type durableOp interface {
	op() string
	apply(t opTarget) error
}

// opTable registers every durable op under its journal name.
var opTable = opsByName(
	func() durableOp { return new(addSchemasRec) },
	func() durableOp { return new(removeSchemaRec) },
	func() durableOp { return new(declareEquivRec) },
	func() durableOp { return new(assertRec) },
	func() durableOp { return new(retractRec) },
	func() durableOp { return new(saveIntegrationRec) },
	func() durableOp { return new(loadRowsRec) },
	func() durableOp { return new(jobSubmitRec) },
	func() durableOp { return new(jobStartRec) },
	func() durableOp { return new(jobFinishRec) },
	func() durableOp { return new(setKeysRec) },
)

func opsByName(ops ...func() durableOp) map[string]func() durableOp {
	byName := make(map[string]func() durableOp, len(ops))
	for _, newOp := range ops {
		byName[newOp().op()] = newOp
	}
	return byName
}

// journalFn appends one record to a workspace journal; the store and queue
// write ahead through it.
type journalFn func(op string, v any) error

// write journals an op record; a nil journalFn (memory-only) writes
// nothing. Callers hold the lock that orders the write with its apply.
func (fn journalFn) write(rec durableOp) error {
	if fn == nil {
		return nil
	}
	return fn(rec.op(), rec)
}

// opTarget is the workspace state ops apply to. Store ops run with st.mu
// held and job ops with q.mu held. keys installs a journaled key set; it
// is nil outside the default workspace, whose journal alone carries keys.
type opTarget struct {
	st   *Store
	q    *Queue
	keys func([]apiKeyEntry) error
}

// target returns the state a workspace's journal records apply to.
func (s *Server) target(ws *Workspace) opTarget {
	t := opTarget{st: ws.store, q: ws.queue}
	if ws.name == DefaultWorkspace {
		t.keys = s.applyJournaledKeys
	}
	return t
}

// replay decodes one journal record through opTable and applies it to t:
// crash recovery's journal tail and a follower's stream alike. It holds
// the store lock, then the queue lock, across the apply.
//
//sit:replay
func replay(t opTarget, rec journal.Record) error {
	newOp, ok := opTable[rec.Op]
	if !ok {
		return fmt.Errorf("unknown operation")
	}
	op := newOp()
	if err := json.Unmarshal(rec.Data, op); err != nil {
		return err
	}
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	t.q.mu.Lock()
	defer t.q.mu.Unlock()
	return op.apply(t)
}

// persistedState is the snapshot body: the full workspace (in the saved-
// workspace encoding the interactive tool also uses) plus the job table,
// the federation state (saved integrations and the row-batch log), and —
// default workspace only — the journaled API-key hashes, so a compacted
// journal (or a shipped snapshot) still carries the key set.
type persistedState struct {
	Workspace    json.RawMessage      `json:"workspace,omitempty"`
	Jobs         []Job                `json:"jobs,omitempty"`
	NextJobID    int                  `json:"nextJobId"`
	Keys         []apiKeyEntry        `json:"keys,omitempty"`
	Integrations []saveIntegrationRec `json:"integrations,omitempty"`
	Rows         []loadRowsRec        `json:"rows,omitempty"`
}

// captureState encodes the workspace's whole persisted state together with
// the journal sequence number it reflects: compaction's input, and what
// the replication snapshot endpoint ships. On a replica, holding rep.mu
// across the capture pins the state at appliedSeq — the apply loop cannot
// slip a record in between.
func (s *Server) captureState(ws *Workspace) (state []byte, uptoSeq uint64, err error) {
	rep := ws.replica.Load()
	if rep != nil {
		rep.mu.Lock()
		defer rep.mu.Unlock()
	}
	var ps persistedState
	st, q := ws.store, ws.queue
	st.mu.Lock()
	// Order matters: read the sequence number first, then capture state.
	// Every record at or below uptoSeq is fully reflected in the captured
	// state; records landing after the read are preserved by Compact.
	uptoSeq = ws.persist.j.Seq()
	if rep != nil {
		uptoSeq = rep.appliedSeq
	}
	ps.Workspace, err = session.Marshal(st.ws)
	if err == nil {
		ps.Integrations, err = st.integrationRecsLocked()
	}
	ps.Rows = append([]loadRowsRec(nil), st.rowLog...)
	q.mu.Lock()
	ps.Jobs, ps.NextJobID = q.table.list(), q.table.nextID
	q.mu.Unlock()
	st.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	if ws.name == DefaultWorkspace {
		s.keyMu.Lock()
		ps.Keys = s.keyEntries
		s.keyMu.Unlock()
	}
	if state, err = json.Marshal(ps); err != nil {
		return nil, 0, err
	}
	return state, uptoSeq, nil
}

// decodeState parses a snapshot body and rebuilds its workspace. The
// leader's snapshot wire format is the snapshot file format, so recovery
// and a follower's bootstrap both read it here.
func decodeState(state []byte) (*persistedState, *session.Workspace, error) {
	var ps persistedState
	if err := json.Unmarshal(state, &ps); err != nil {
		return nil, nil, fmt.Errorf("decode snapshot state: %w", err)
	}
	if len(ps.Workspace) == 0 {
		return &ps, session.NewWorkspace(), nil
	}
	ws, err := session.Unmarshal(ps.Workspace)
	if err != nil {
		return nil, nil, fmt.Errorf("rebuild workspace from snapshot: %w", err)
	}
	return &ps, ws, nil
}

// installState makes a decoded snapshot t's whole state, superseding
// whatever it held. The workspace and the federation state go in under one
// hold of the store lock, so no reader sees the snapshot's schemas without
// its saved integrations and rows; the job table and the key set follow.
//
//sit:replay
func installState(t opTarget, ps *persistedState, ws *session.Workspace) error {
	st := t.st
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ws = ws
	st.integrations = map[string]*savedIntegration{}
	st.instances = map[string]*instance.Store{}
	st.rowLog = nil
	st.schemaGen++
	st.touch()
	for i := range ps.Integrations {
		if err := ps.Integrations[i].apply(t); err != nil {
			return fmt.Errorf("restore integration %q: %w", ps.Integrations[i].Name, err)
		}
	}
	for i := range ps.Rows {
		if err := ps.Rows[i].apply(t); err != nil {
			return fmt.Errorf("restore rows for %s.%s: %w", ps.Rows[i].Schema, ps.Rows[i].Structure, err)
		}
	}
	t.q.mu.Lock()
	t.q.table = jobTable{byID: make(map[string]*Job, len(ps.Jobs)), nextID: ps.NextJobID}
	for i := range ps.Jobs {
		t.q.table.add(&ps.Jobs[i])
	}
	t.q.mu.Unlock()
	if t.keys != nil && len(ps.Keys) > 0 {
		return t.keys(ps.Keys)
	}
	return nil
}

// --- store ops ---

type addSchemasRec struct {
	// Schemas carries each schema in the ECR JSON encoding.
	Schemas []json.RawMessage `json:"schemas"`
	// decoded holds the schemas themselves: set by the live path, which
	// encoded Schemas from them, and decoded from Schemas on replay.
	decoded []*ecr.Schema
}

func (*addSchemasRec) op() string { return opAddSchemas }

//sit:replay
//sit:locked t.st.mu
func (r *addSchemasRec) apply(t opTarget) error {
	if r.decoded == nil {
		for _, raw := range r.Schemas {
			s, err := ecr.DecodeJSON(raw)
			if err != nil {
				return err
			}
			r.decoded = append(r.decoded, s)
		}
	}
	for _, s := range r.decoded {
		if err := t.st.ws.AddSchema(s); err != nil {
			return err
		}
		t.st.pruneStaleLocked(s.Name)
	}
	t.st.schemaGen++
	t.st.touch()
	return nil
}

type removeSchemaRec struct {
	Name string `json:"name"`
}

func (*removeSchemaRec) op() string { return opRemoveSchema }

//sit:replay
//sit:locked t.st.mu
func (r *removeSchemaRec) apply(t opTarget) error {
	t.st.ws.RemoveSchema(r.Name)
	t.st.pruneFederationLocked(r.Name)
	t.st.schemaGen++
	t.st.touch()
	return nil
}

type declareEquivRec struct {
	Schema1 string `json:"schema1"`
	Attr1   string `json:"attr1"`
	Schema2 string `json:"schema2"`
	Attr2   string `json:"attr2"`
}

func (*declareEquivRec) op() string { return opDeclareEquiv }

//sit:replay
//sit:locked t.st.mu
func (r *declareEquivRec) apply(t opTarget) error {
	a, b, err := t.st.equivRefs(r)
	if err != nil {
		return err
	}
	if err := t.st.ws.Registry().Declare(a, b); err != nil {
		return err
	}
	t.st.touch()
	return nil
}

type assertRec struct {
	Schema1 string `json:"schema1"`
	Object1 string `json:"object1"`
	Code    int    `json:"code"`
	Schema2 string `json:"schema2"`
	Object2 string `json:"object2"`
	Rel     bool   `json:"rel,omitempty"`
	// eng and res report the closure back to the live caller.
	eng *assertion.Engine
	res assertion.CloseResult
}

func (*assertRec) op() string { return opAssert }

//sit:replay
//sit:locked t.st.mu
func (r *assertRec) apply(t opTarget) error {
	kind, err := assertion.KindFromCode(r.Code)
	if err != nil {
		return err
	}
	if r.eng, err = t.st.engineFor(r.Schema1, r.Object1, r.Schema2, r.Object2, r.Rel); err != nil {
		return err
	}
	r.res = r.eng.AssertAndClose(
		assertion.ObjKey{Schema: r.Schema1, Object: r.Object1},
		assertion.ObjKey{Schema: r.Schema2, Object: r.Object2}, kind)
	t.st.closureDerived.Add(uint64(len(r.res.Derived)))
	t.st.closureConflicts.Add(uint64(len(r.res.Conflicts)))
	t.st.touch()
	return nil
}

type retractRec struct {
	Schema1 string `json:"schema1"`
	Object1 string `json:"object1"`
	Schema2 string `json:"schema2"`
	Object2 string `json:"object2"`
	Rel     bool   `json:"rel,omitempty"`
	// res reports the retraction back to the live caller.
	res assertion.RetractResult
}

func (*retractRec) op() string { return opRetract }

//sit:replay
//sit:locked t.st.mu
func (r *retractRec) apply(t opTarget) error {
	eng, err := t.st.engineFor(r.Schema1, r.Object1, r.Schema2, r.Object2, r.Rel)
	if err != nil {
		return err
	}
	r.res, err = eng.Retract(
		assertion.ObjKey{Schema: r.Schema1, Object: r.Object1},
		assertion.ObjKey{Schema: r.Schema2, Object: r.Object2})
	if err != nil {
		return err
	}
	t.st.touch()
	return nil
}

// saveIntegrationRec persists one integration result under a name: the
// integrated schema and the mapping table, both materialized to JSON, so
// replay installs them verbatim without re-running the integration.
type saveIntegrationRec struct {
	Name    string          `json:"name"`
	Schema1 string          `json:"schema1"`
	Schema2 string          `json:"schema2"`
	Schema  json.RawMessage `json:"schema"`
	Table   json.RawMessage `json:"table"`
	// si is the record's decoding, made once by decode.
	si *savedIntegration
}

func (*saveIntegrationRec) op() string { return opSaveIntegration }

// decode materializes the record. The live path decodes before journaling,
// so the installed state is the record's own decoding and a journaled
// save always replays to exactly that state.
func (r *saveIntegrationRec) decode() error {
	if r.si != nil {
		return nil
	}
	s, err := ecr.DecodeJSON(r.Schema)
	if err != nil {
		return fmt.Errorf("server: integration %q schema: %w", r.Name, err)
	}
	tbl, err := mapping.DecodeJSON(r.Table)
	if err != nil {
		return fmt.Errorf("server: integration %q mappings: %w", r.Name, err)
	}
	r.si = &savedIntegration{name: r.Name, schema1: r.Schema1, schema2: r.Schema2, schema: s, table: tbl}
	return nil
}

//sit:locked t.st.mu
func (r *saveIntegrationRec) apply(t opTarget) error {
	if err := r.decode(); err != nil {
		return err
	}
	prev := t.st.integrations[r.Name]
	t.st.integrations[r.Name] = r.si
	if prev != nil {
		t.st.pruneStaleLocked(prev.schema.Name)
	}
	t.st.pruneStaleLocked(r.si.schema.Name)
	return nil
}

// loadRowsRec persists one accepted row batch; batches are validated before
// journaling, so replaying them in order always succeeds.
type loadRowsRec struct {
	Schema    string         `json:"schema"`
	Structure string         `json:"structure"`
	Rows      []instance.Row `json:"rows"`
	// total reports the structure's row count back to the live caller.
	total int
}

func (*loadRowsRec) op() string { return opLoadRows }

//sit:locked t.st.mu
func (r *loadRowsRec) apply(t opTarget) error {
	is, err := t.st.instanceForLocked(r.Schema)
	if err != nil {
		return err
	}
	if err := is.InsertAll(r.Structure, r.Rows); err != nil {
		return err
	}
	t.st.rowLog = append(t.st.rowLog, *r)
	r.total = is.Count(r.Structure)
	return nil
}

// --- job ops ---

type jobSubmitRec struct {
	ID      string     `json:"id"`
	Request JobRequest `json:"request"`
	Created time.Time  `json:"created"`
}

func (*jobSubmitRec) op() string { return opJobSubmit }

//sit:locked t.q.mu
func (r *jobSubmitRec) apply(t opTarget) error {
	jobs := &t.q.table
	if _, ok := jobs.byID[r.ID]; ok {
		// The snapshot already holds this job: it was submitted while a
		// compaction ran, after the snapshot's cutoff sequence was read
		// but before the queue state was captured, so its submit record
		// survived the rewrite too. The snapshot's copy is at least as
		// fresh; replaying the submit again would duplicate the job.
		return nil
	}
	jobs.add(&Job{ID: r.ID, Request: r.Request, State: JobQueued, Created: r.Created})
	if n, err := strconv.Atoi(strings.TrimPrefix(r.ID, "job-")); err == nil && n > jobs.nextID {
		jobs.nextID = n
	}
	return nil
}

type jobStartRec struct {
	ID      string    `json:"id"`
	Started time.Time `json:"started"`
}

func (*jobStartRec) op() string { return opJobStart }

//sit:locked t.q.mu
func (r *jobStartRec) apply(t opTarget) error {
	if job := t.q.table.byID[r.ID]; job != nil {
		job.State = JobRunning
		job.Started = &r.Started
	}
	return nil
}

type jobFinishRec struct {
	ID       string             `json:"id"`
	State    JobState           `json:"state"`
	Error    string             `json:"error,omitempty"`
	Result   *IntegrationResult `json:"result,omitempty"`
	Finished time.Time          `json:"finished"`
}

func (*jobFinishRec) op() string { return opJobFinish }

//sit:locked t.q.mu
func (r *jobFinishRec) apply(t opTarget) error {
	if job := t.q.table.byID[r.ID]; job != nil {
		job.State, job.Error, job.Result, job.Finished = r.State, r.Error, r.Result, &r.Finished
	}
	return nil
}

// --- key ops ---

// setKeysRec is the journaled op_set_keys payload: the full key set,
// replacing whatever was installed before (last record wins on replay).
type setKeysRec struct {
	Keys []apiKeyEntry `json:"keys"`
}

func (*setKeysRec) op() string { return opSetKeys }

func (r *setKeysRec) apply(t opTarget) error {
	if t.keys == nil {
		return fmt.Errorf("set_keys record outside the default workspace's journal")
	}
	return t.keys(r.Keys)
}
