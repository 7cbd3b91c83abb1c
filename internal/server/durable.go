package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
)

// Per-workspace on-disk layout: each workspace keeps its own journal and
// snapshot under <data-dir>/<name>/. The per-directory format is identical
// to the old single-tenant layout, so migrating a legacy data directory is
// a pure file move (see migrateLegacyLayout). Dot-prefixed directory names
// are reserved for the server's own bookkeeping: ".migrate-*" stages a
// layout migration, ".trash-*" stages a workspace delete.
const (
	legacyJournalFile  = "journal.jsonl"
	legacySnapshotFile = "snapshot.json"
	migrateStagingDir  = ".migrate-" + DefaultWorkspace
	trashPrefix        = ".trash-"
)

// DurabilityConfig parameterizes the server's journals.
type DurabilityConfig struct {
	// Dir is the data directory; each workspace journals into its own
	// subdirectory Dir/<name>/. Required.
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync journal.SyncPolicy
	// SyncInterval spaces fsyncs under journal.SyncInterval.
	SyncInterval time.Duration
	// SnapshotEvery compacts a workspace's journal into a fresh snapshot
	// after this many appended records (default 256).
	SnapshotEvery int
	// Hooks injects faults (tests only). Shared by every workspace journal.
	Hooks journal.Hooks
}

// WorkspaceRecovery reports what Open rebuilt for one workspace.
type WorkspaceRecovery struct {
	Name string `json:"name"`
	// SnapshotSeq is the sequence number the loaded snapshot covered (0
	// when none existed).
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// ReplayedRecords counts journal records applied on top.
	ReplayedRecords int `json:"replayedRecords"`
	// DroppedBytes counts torn/corrupt tail bytes discarded.
	DroppedBytes int64 `json:"droppedBytes"`
	// Schemas counts schemas in the rebuilt workspace.
	Schemas int `json:"schemas"`
	// RecoveredJobs counts job records rebuilt into the job table.
	RecoveredJobs int `json:"recoveredJobs"`
	// RequeuedJobs were queued at crash time and run again now.
	RequeuedJobs int `json:"requeuedJobs"`
	// InterruptedJobs were running at crash time; they are terminal with
	// a retryable error.
	InterruptedJobs int `json:"interruptedJobs"`
}

// RecoveryReport summarizes what Open rebuilt from the data directory:
// per-workspace details plus aggregates over all of them.
type RecoveryReport struct {
	// Workspaces details each recovered workspace, sorted by name.
	Workspaces []WorkspaceRecovery `json:"workspaces,omitempty"`
	// MigratedLegacyLayout is true when a pre-workspace (single-tenant)
	// data directory was migrated into the default workspace's
	// subdirectory on this start.
	MigratedLegacyLayout bool `json:"migratedLegacyLayout,omitempty"`
	// SnapshotSeq is the highest snapshot sequence loaded in any workspace.
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// ReplayedRecords counts journal records applied across all workspaces.
	ReplayedRecords int `json:"replayedRecords"`
	// DroppedBytes counts torn/corrupt tail bytes discarded across all
	// workspaces.
	DroppedBytes int64 `json:"droppedBytes"`
	// RecoveredWorkspaces counts workspaces that came back holding state
	// (schemas or jobs).
	RecoveredWorkspaces int `json:"recoveredWorkspaces"`
	// Schemas counts schemas across every rebuilt workspace.
	Schemas int `json:"schemas"`
	// RecoveredJobs counts job records rebuilt across every workspace.
	RecoveredJobs int `json:"recoveredJobs"`
	// RequeuedJobs were queued at crash time and run again now.
	RequeuedJobs int `json:"requeuedJobs"`
	// InterruptedJobs were running at crash time; they are terminal with
	// a retryable error.
	InterruptedJobs int `json:"interruptedJobs"`
}

func (r *RecoveryReport) absorb(wr WorkspaceRecovery) {
	r.Workspaces = append(r.Workspaces, wr)
	if wr.SnapshotSeq > r.SnapshotSeq {
		r.SnapshotSeq = wr.SnapshotSeq
	}
	r.ReplayedRecords += wr.ReplayedRecords
	r.DroppedBytes += wr.DroppedBytes
	r.Schemas += wr.Schemas
	r.RecoveredJobs += wr.RecoveredJobs
	r.RequeuedJobs += wr.RequeuedJobs
	r.InterruptedJobs += wr.InterruptedJobs
	if wr.Schemas > 0 || wr.RecoveredJobs > 0 {
		r.RecoveredWorkspaces++
	}
}

// Open builds a durable Server from a data directory: it migrates a legacy
// single-tenant layout into the default workspace if needed, then rebuilds
// every workspace subdirectory — each from its own snapshot + journal tail,
// re-enqueuing jobs that were still queued and marking jobs that were
// running as interrupted — and returns the server with write-ahead
// journaling armed on every workspace's mutating paths. cfg.Store is
// ignored: the data directory is authoritative.
func Open(cfg Config, dcfg DurabilityConfig) (*Server, *RecoveryReport, error) {
	if dcfg.Dir == "" {
		return nil, nil, fmt.Errorf("server: durability needs a data directory")
	}
	if dcfg.SnapshotEvery <= 0 {
		dcfg.SnapshotEvery = 256
	}
	if err := os.MkdirAll(dcfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: create data directory: %w", err)
	}

	report := &RecoveryReport{}
	migrated, err := migrateLegacyLayout(dcfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	report.MigratedLegacyLayout = migrated
	sweepTrash(dcfg.Dir)

	names, err := scanWorkspaceDirs(dcfg.Dir)
	if err != nil {
		return nil, nil, err
	}

	s := newServer(cfg.withDefaults(), &dcfg)
	for _, name := range names {
		ws, wr, err := s.recoverWorkspace(name)
		if err != nil {
			s.closeAllJournals()
			return nil, nil, fmt.Errorf("server: recover workspace %q: %w", name, err)
		}
		if err := s.manager.adopt(ws); err != nil {
			// Unreachable: directory names are unique.
			s.closeAllJournals()
			return nil, nil, err
		}
		report.absorb(wr)
	}
	if _, err := s.manager.Get(DefaultWorkspace); err != nil {
		if _, err := s.manager.Create(DefaultWorkspace); err != nil {
			s.closeAllJournals()
			return nil, nil, fmt.Errorf("server: create default workspace: %w", err)
		}
	}

	s.metrics.SetDurability(report.RecoveredWorkspaces, report.RecoveredJobs, s.oldestSnapshotAge)
	if s.cfg.Follow != nil {
		if err := s.startFollowing(); err != nil {
			s.closeAllJournals()
			return nil, nil, err
		}
	}
	return s, report, nil
}

// migrateLegacyLayout moves a pre-workspace data directory's top-level
// journal.jsonl/snapshot.json into the default workspace's subdirectory.
// The move is staged through .migrate-default and committed with one atomic
// rename, so a crash at any step leaves a state this function repairs on
// the next start. A directory holding both top-level legacy files and a
// default/ subdirectory is ambiguous and rejected with instructions rather
// than risk silently dropping either copy.
func migrateLegacyLayout(dir string) (bool, error) {
	legacy := false
	for _, f := range []string{legacyJournalFile, legacySnapshotFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err == nil {
			legacy = true
		}
	}
	staging := filepath.Join(dir, migrateStagingDir)
	_, stagingErr := os.Stat(staging)
	staged := stagingErr == nil
	if !legacy && !staged {
		return false, nil
	}
	target := filepath.Join(dir, DefaultWorkspace)
	if _, err := os.Stat(target); err == nil {
		return false, fmt.Errorf(
			"server: data directory %s holds both a legacy single-tenant journal (%s/%s at the top level) and a %q workspace directory; "+
				"keep one: move the top-level files aside (or delete them) to use the workspace layout, or remove the %q directory to migrate the legacy journal",
			dir, legacyJournalFile, legacySnapshotFile, DefaultWorkspace, DefaultWorkspace)
	}
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return false, fmt.Errorf("server: stage legacy migration: %w", err)
	}
	for _, f := range []string{legacyJournalFile, legacySnapshotFile} {
		err := os.Rename(filepath.Join(dir, f), filepath.Join(staging, f))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return false, fmt.Errorf("server: stage legacy %s: %w", f, err)
		}
	}
	if err := os.Rename(staging, target); err != nil {
		return false, fmt.Errorf("server: commit legacy migration: %w", err)
	}
	return true, nil
}

// sweepTrash clears .trash-* directories left by deletes that crashed
// between the rename and the removal. Best-effort: a leftover trash dir is
// invisible to recovery either way.
func sweepTrash(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), trashPrefix) {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

// scanWorkspaceDirs lists the workspace subdirectories of the data
// directory, sorted by name. Dot-prefixed names are the server's own
// bookkeeping and skipped; any other name that fails validation is
// someone else's data and rejected with instructions.
func scanWorkspaceDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: scan data directory: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		if err := ValidateWorkspaceName(e.Name()); err != nil {
			return nil, fmt.Errorf(
				"server: data directory entry %q is not a valid workspace name (%v); move it out of %s or rename it",
				e.Name(), err, dir)
		}
		names = append(names, e.Name())
	}
	return names, nil
}

// recoverWorkspace rebuilds one workspace from its subdirectory — an empty
// one for a workspace being created: the snapshot is installed first, then
// the journal tail replayed on top, and the workspace takes its journal
// and its compaction loop. A follower's workspace becomes a replica:
// nothing journals through its store or queue — every append flows
// through the replication apply path — until promotion arms writes. Any
// other workspace is armed for writes at once, re-enqueueing still-queued
// jobs.
func (s *Server) recoverWorkspace(name string) (*Workspace, WorkspaceRecovery, error) {
	wr := WorkspaceRecovery{Name: name}
	j, err := journal.Open(filepath.Join(s.dcfg.Dir, name), journal.Options{
		Sync: s.dcfg.Sync, SyncInterval: s.dcfg.SyncInterval, Hooks: s.dcfg.Hooks,
	})
	if err != nil {
		return nil, wr, err
	}
	ws := s.newWorkspaceFrom(name, NewStore())
	fail := func(err error) (*Workspace, WorkspaceRecovery, error) {
		ws.queue.Kill()
		j.Close()
		return nil, wr, err
	}
	t := s.target(ws)
	if state, seq, ok := j.Snapshot(); ok {
		ps, wsState, err := decodeState(state)
		if err != nil {
			return fail(err)
		}
		if err := installState(t, ps, wsState); err != nil {
			return fail(err)
		}
		wr.SnapshotSeq = seq
	}
	for _, rec := range j.Records() {
		if err := replay(t, rec); err != nil {
			return fail(fmt.Errorf("replay journal record %d (%s): %w", rec.Seq, rec.Op, err))
		}
		wr.ReplayedRecords++
	}
	wr.DroppedBytes = j.DroppedBytes()
	wr.Schemas = len(ws.store.SchemaNames())
	wr.RecoveredJobs = len(ws.queue.List())

	ws.persist = &persister{j: j, stop: make(chan struct{}), done: make(chan struct{})}
	j.SetObserver(func(fsync time.Duration, err error) {
		s.metrics.ObserveJournalAppend(fsync, err)
	})
	if s.followerAtBuild() {
		ws.replica.Store(&replicaState{appliedSeq: j.Seq()})
	} else {
		wr.RequeuedJobs, wr.InterruptedJobs = s.armWrites(ws)
	}
	go ws.persist.loop(s, ws)
	return ws, wr, nil
}

// persister owns one workspace's side of its journal: the compaction loop
// and the shutdown/crash teardown.
type persister struct {
	j        *journal.Journal
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// stopLoop halts the compaction loop and waits for it to exit; safe to
// call more than once (Shutdown, Delete and Kill all may).
func (p *persister) stopLoop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// armWrites wires a workspace's journal into its store and queue and
// resumes the recovered job table (re-enqueueing still-queued jobs, which
// may start executing — and journaling — immediately, which is why the
// hooks are armed first).
func (s *Server) armWrites(ws *Workspace) (requeued, interrupted int) {
	appendFn := func(op string, v any) error {
		_, err := ws.persist.j.Append(op, v)
		return err
	}
	ws.store.SetPersist(appendFn)
	ws.queue.SetPersist(appendFn, func(err error) {
		if s.log != nil {
			s.log.Error("journal append", "workspace", ws.name, "error", err)
		}
	})
	return ws.queue.Restore()
}

// loop compacts the workspace's journal into a fresh snapshot whenever
// enough records have accumulated.
func (p *persister) loop(s *Server, ws *Workspace) {
	defer close(p.done)
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			if p.j.SinceCompact() >= uint64(s.dcfg.SnapshotEvery) {
				if err := s.compactWorkspace(ws); err != nil && s.log != nil {
					s.log.Error("compact", "workspace", ws.name, "error", err)
				}
			}
		}
	}
}

// compactWorkspace snapshots one workspace's full state (schemas + job
// table) and truncates its journal to the records the snapshot does not
// cover. Safe to call concurrently with traffic: the state is captured
// atomically under the store lock, records appended after the capture
// carry higher sequence numbers, so the rewrite keeps them and replay —
// which is idempotent for job records — stays correct. The journal
// rewrite itself runs after the store lock is released: Compact fsyncs
// and rewrites files, and holding st.mu across that would stall every
// request on the workspace for the disk's milliseconds. Two captures
// racing to Compact resolve inside the journal, which refuses to publish
// a snapshot older than the one it already has.
func (s *Server) compactWorkspace(ws *Workspace) error {
	if ws.persist == nil {
		return nil
	}
	state, uptoSeq, err := s.captureState(ws)
	if err != nil {
		return err
	}
	if err := ws.persist.j.Compact(state, uptoSeq); err != nil {
		return err
	}
	s.metrics.ObserveCompaction()
	return nil
}

// Compact snapshots every workspace, returning the first error.
func (s *Server) Compact() error {
	var first error
	for _, ws := range s.manager.List() {
		if err := s.compactWorkspace(ws); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// oldestSnapshotAge is the snapshot_age_seconds gauge: the age of the
// stalest snapshot across live workspaces.
func (s *Server) oldestSnapshotAge() float64 {
	var oldest float64
	for _, ws := range s.manager.List() {
		if ws.persist == nil {
			continue
		}
		if age := time.Since(ws.persist.j.SnapshotTime()).Seconds(); age > oldest {
			oldest = age
		}
	}
	return oldest
}

// closeAllJournals abruptly releases every workspace journal and queue —
// no compaction, no sync (Kill, and Open's error paths).
func (s *Server) closeAllJournals() {
	for _, ws := range s.manager.List() {
		if ws.persist != nil {
			ws.persist.stopLoop()
			// Close the journal fd first: any worker still finishing a job
			// fails its append harmlessly instead of writing past the
			// "crash".
			ws.persist.j.CloseAbrupt()
		}
		ws.queue.Kill()
	}
}

// removeWorkspaceDir deletes a workspace's data subdirectory crash-safely:
// the directory is renamed into a dot-prefixed trash name first — atomic,
// and invisible to the recovery scan — then removed, so a crash mid-delete
// can never leave a half-deleted workspace that recovery would resurrect.
func removeWorkspaceDir(root, name string) error {
	dir := filepath.Join(root, name)
	trash := filepath.Join(root, trashPrefix+name)
	if err := os.RemoveAll(trash); err != nil {
		return err
	}
	if err := os.Rename(dir, trash); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	return os.RemoveAll(trash)
}

// Journal exposes the default workspace's journal (tests, diagnostics);
// nil when the server is not durable.
func (s *Server) Journal() *journal.Journal {
	ws, err := s.manager.Get(DefaultWorkspace)
	if err != nil || ws.persist == nil {
		return nil
	}
	return ws.persist.j
}

// Kill tears the server down as a crash would: no drain, no final
// compaction, no journal sync. Every workspace's data directory is left
// exactly as its write-ahead log put it — which is the point; tests
// restart from it.
func (s *Server) Kill() {
	s.mu.Lock()
	srv, ln := s.httpSrv, s.listener
	s.httpSrv, s.listener = nil, nil
	s.mu.Unlock()
	if srv != nil {
		srv.Close()
	} else if ln != nil {
		ln.Close()
	}
	// Signal the follower loop but do not wait: a crash doesn't drain. The
	// loop's in-flight applies fail harmlessly against the closed journals.
	if f := s.follow.Load(); f != nil {
		f.halt(false)
	}
	s.closeAllJournals()
}
