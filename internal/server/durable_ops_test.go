package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assertion"
	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/replication"
)

// The durable-ops property: over a random op stream against a durable
// leader, with journal faults injected at every hook, the live state,
// replay(journal) (crash recovery from the full journal) and
// bootstrap(snapshot) + tail (a follower seeded from a mid-stream snapshot,
// then fed the journal records after it) are the same state. Each is
// checked twice: encoded through the one state codec (byte-identical), and
// read back through the client-facing read paths, which do not go through
// the codec, so a field the codec or the installer drops shows up too.

// chooser supplies the stream's decisions: a seeded PRNG in the property
// test, the input bytes in the fuzz target.
type chooser interface {
	intn(n int) int
	more() bool
}

// randChooser draws from a PRNG and records every choice as one byte, so a
// stream the property test ran can seed the fuzz corpus.
type randChooser struct {
	r   *rand.Rand
	log []byte
}

func (c *randChooser) intn(n int) int {
	v := c.r.Intn(n)
	c.log = append(c.log, byte(v))
	return v
}

func (c *randChooser) more() bool { return true }

// byteChooser replays choices from fuzz input; the stream ends with it.
type byteChooser struct{ data []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	v := int(c.data[0]) % n
	c.data = c.data[1:]
	return v
}

func (c *byteChooser) more() bool { return len(c.data) > 0 }

// The fault hooks a step can arm: a torn write, a full disk, a failed
// fsync. Each fires on the first journal write after arming.
const (
	faultNone = iota
	faultTorn
	faultFull
	faultSync
)

var errInjected = errors.New("injected journal fault")

// opsStreamSteps is the property test's stream length.
const opsStreamSteps = 60

// opsSchemaDDL is the shape every stream schema shares, so any two can be
// related by equivalences and assertions.
const opsSchemaDDL = `schema %s
entity Person {
    attr Name: char key
    attr Age: int
}
entity Dept {
    attr Dname: char key
}
relationship WorksIn (Person (0,1), Dept (1,n)) {
    attr Since: date
}
`

var (
	opsSchemaPool = []string{"sa", "sb", "sc"}
	opsAttrPool   = []string{"Person.Name", "Person.Age", "Dept.Dname"}
	opsKeyTokens  = []string{"stream-admin-key", "stream-data-key-1", "stream-data-key-2"}
)

// opsStream is one stream's live server plus what the checks need.
type opsStream struct {
	t     testing.TB
	c     chooser
	dir   string // the leader's data directory
	keys  string // keys file path
	fault atomic.Int32
	fired atomic.Bool
	srv   *Server
	names []string
	rowID int
	// accepted is the highest job number each workspace accepted; a refused
	// submit burns its ID in memory only (a retry never reuses it), so the
	// replayed job-ID counter is this, not the live one.
	accepted map[string]int
	// ops counts the journaled records per op across the stream.
	ops map[string]int
}

func newOpsStream(t testing.TB, c chooser) *opsStream {
	o := &opsStream{t: t, c: c, accepted: map[string]int{}, ops: map[string]int{}}
	dir := t.TempDir()
	hooks := journal.Hooks{
		BeforeAppend: func(line []byte) (int, error) {
			switch o.fault.Load() {
			case faultTorn:
				if o.fired.CompareAndSwap(false, true) {
					return len(line) / 2, errInjected
				}
			case faultFull:
				if o.fired.CompareAndSwap(false, true) {
					return 0, errInjected
				}
			}
			return len(line), nil
		},
		BeforeSync: func() error {
			if o.fault.Load() == faultSync && o.fired.CompareAndSwap(false, true) {
				return errInjected
			}
			return nil
		},
	}
	srv, _, err := Open(Config{Workers: 1, QueueCapacity: 8},
		DurabilityConfig{Dir: filepath.Join(dir, "leader"), Hooks: hooks, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.manager.Create("tenant"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{DefaultWorkspace, "tenant"} {
		for _, schema := range opsSchemaPool[:2] {
			if _, err := mustWorkspace(t, srv, name).store.AddSchemasDDL(fmt.Sprintf(opsSchemaDDL, schema)); err != nil {
				t.Fatal(err)
			}
		}
	}
	o.srv, o.names, o.dir = srv, []string{DefaultWorkspace, "tenant"}, filepath.Join(dir, "leader")
	o.keys = filepath.Join(dir, "keys")
	return o
}

func (o *opsStream) pick(pool []string) string { return pool[o.c.intn(len(pool))] }

// schema names a schema the store holds three times in four, so most ops
// validate, and any pool name otherwise, so some are refused.
func (o *opsStream) schema(st *Store) string {
	if names := st.SchemaNames(); len(names) > 0 && o.c.intn(4) > 0 {
		return o.pick(names)
	}
	return o.pick(opsSchemaPool)
}

// pair names two schemas, distinct when the store holds two.
func (o *opsStream) pair(st *Store) (string, string) {
	s1, s2 := o.schema(st), o.schema(st)
	if names := st.SchemaNames(); s1 == s2 && len(names) > 1 && o.c.intn(4) > 0 {
		for _, n := range names {
			if n != s1 {
				s2 = n
			}
		}
	}
	return s1, s2
}

// opsStepKinds weights the step kinds: 0 add schemas, 1 remove schema,
// 2 declare equivalence, 3 assert, 4 retract, 5 save integration, 6 load
// rows, 7 submit a job, 8 set keys.
var opsStepKinds = []int{0, 0, 1, 2, 2, 3, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8}

// step runs one random operation on one workspace, with a journal fault
// armed first one time in four.
func (o *opsStream) step() {
	t := o.t
	kind := opsStepKinds[o.c.intn(len(opsStepKinds))]
	ws := mustWorkspace(t, o.srv, o.names[o.c.intn(len(o.names))])
	if kind == 8 {
		// The key set rides the default workspace's journal.
		ws = mustWorkspace(t, o.srv, DefaultWorkspace)
	}
	st := ws.store
	fault := o.c.intn(12)
	if fault > faultSync {
		fault = faultNone
	}
	before, _ := observe(t, o.srv, ws)
	o.fired.Store(false)
	o.fault.Store(int32(fault))
	var err error
	submitted := false
	switch kind {
	case 0:
		_, err = st.AddSchemasDDL(fmt.Sprintf(opsSchemaDDL, o.pick(opsSchemaPool)))
	case 1:
		_, err = st.RemoveSchema(o.schema(st))
	case 2:
		s1, s2 := o.pair(st)
		err = st.DeclareEquivalence(s1, o.pick(opsAttrPool), s2, o.pick(opsAttrPool))
	case 3, 4:
		rel := o.c.intn(2) == 1
		o1, o2 := o.pick([]string{"Person", "Dept"}), o.pick([]string{"Person", "Dept"})
		if rel {
			o1, o2 = "WorksIn", "WorksIn"
		}
		s1, s2 := o.pair(st)
		if kind == 3 {
			_, _, err = st.Assert(s1, o1, 1+o.c.intn(5), s2, o2, rel)
			break
		}
		// Retract a held assertion when there is one, so retracts are
		// journaled, not only refused.
		entries, _ := st.Assertions(s1, s2, rel)
		var held []assertion.Entry
		for _, e := range entries {
			if !e.Derived {
				held = append(held, e)
			}
		}
		if len(held) > 0 {
			e := held[o.c.intn(len(held))]
			s1, o1, s2, o2 = e.A.Schema, e.A.Object, e.B.Schema, e.B.Object
		}
		_, err = st.Retract(s1, o1, s2, o2, rel)
	case 5:
		s1, s2 := o.pair(st)
		_, err = st.SaveIntegration(o.pick([]string{"i1", "i2"}), s1, s2)
	case 6:
		err = o.loadRows(st)
	case 7:
		var job Job
		var n int
		s1, s2 := o.pair(st)
		job, err = ws.queue.Submit(JobRequest{Type: "integrate", Schema1: s1, Schema2: s2})
		if err == nil {
			submitted = true
			fmt.Sscanf(job.ID, "job-%d", &n)
			o.accepted[ws.name] = n
		}
	case 8:
		var lines []string
		for _, tok := range opsKeyTokens[:1+o.c.intn(len(opsKeyTokens))] {
			if tok == opsKeyTokens[0] {
				lines = append(lines, tok+" admin")
			} else {
				lines = append(lines, tok+" data "+o.pick([]string{"*", "tenant"}))
			}
		}
		if werr := os.WriteFile(o.keys, []byte(strings.Join(lines, "\n")+"\n"), 0o600); werr != nil {
			t.Fatal(werr)
		}
		err = o.srv.SetKeysFile(o.keys)
	}
	o.fault.Store(faultNone)
	if submitted {
		o.quiesce(ws)
	}
	if !o.fired.Load() {
		return
	}
	// The fault fired: the mutation was refused (set_keys has no caller to
	// refuse; its append failure is logged) and left no trace in memory.
	if kind != 8 && errStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("op %d with fault %d fired: err = %v, want a 503-class journal error", kind, fault, err)
	}
	if after, _ := observe(t, o.srv, ws); after != before {
		t.Fatalf("op %d refused at fault %d still changed the workspace: %s", kind, fault, firstDiff(before, after))
	}
}

// loadRows loads a small batch into a component schema or a saved
// integration's schema; keys are fresh most of the time, so batches are
// accepted, and reused otherwise, so some are refused.
func (o *opsStream) loadRows(st *Store) error {
	target, structure := o.schema(st), o.pick([]string{"Person", "Dept"})
	var attrs []ecr.Attribute
	if ints := st.Integrations(); len(ints) > 0 && o.c.intn(2) == 0 {
		info := ints[o.c.intn(len(ints))]
		schema, _, err := st.Integration(info.Name)
		if err != nil || len(schema.Objects) == 0 {
			return err
		}
		target, structure = schema.Name, schema.Objects[o.c.intn(len(schema.Objects))].Name
		attrs = schema.InheritedAttributes(structure)
	} else if s := st.Schema(target); s != nil {
		attrs = s.InheritedAttributes(structure)
	}
	var rows []instance.Row
	for i := 0; i < 1+o.c.intn(2); i++ {
		if o.c.intn(5) > 0 {
			o.rowID++
		}
		row := instance.Row{}
		for _, a := range attrs {
			row[a.Name] = fmt.Sprintf("%s-%d", a.Name, o.rowID)
		}
		rows = append(rows, row)
	}
	_, err := st.LoadRows(target, structure, rows)
	return err
}

// quiesce waits for the workspace's jobs to finish, so every start and
// finish record is written before the next step (a job transition cannot
// be refused, so faults are never armed while one can be written).
func (o *opsStream) quiesce(ws *Workspace) {
	deadline := time.Now().Add(10 * time.Second)
	for ws.queue.Depth() > 0 {
		if time.Now().After(deadline) {
			o.t.Fatal("jobs never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// wsCapture is one workspace's state, encoded and observed.
type wsCapture struct {
	state  []byte
	seq    uint64
	view   string
	nextID int
}

func (o *opsStream) capture(s *Server, name string) wsCapture {
	ws := mustWorkspace(o.t, s, name)
	state, seq, err := s.captureState(ws)
	if err != nil {
		o.t.Fatal(err)
	}
	view, nextID := observe(o.t, s, ws)
	return wsCapture{state: state, seq: seq, view: view, nextID: nextID}
}

// observe renders what clients read back from a workspace — schemas,
// equivalences, DDA-specified assertions, saved integrations, row counts,
// jobs and (default workspace) the key set — through the read paths, not
// the state codec. The job-ID counter is returned on its own.
func observe(t testing.TB, s *Server, ws *Workspace) (string, int) {
	var b strings.Builder
	st := ws.store
	names := st.SchemaNames()
	for _, name := range names {
		data, err := ecr.EncodeJSON(st.Schema(name))
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
	}
	// Listings order classes by class number, which follows declaration
	// history; the classes themselves are the state.
	var classes []string
	for _, class := range st.EquivalenceClasses() {
		classes = append(classes, fmt.Sprint(class))
	}
	sort.Strings(classes)
	fmt.Fprintf(&b, "\nclasses %v\n", classes)
	var asserted []string
	for _, a := range names {
		for _, c := range names {
			for _, rel := range []bool{false, true} {
				entries, err := st.Assertions(a, c, rel)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if !e.Derived {
						asserted = append(asserted, fmt.Sprintf("%v", e.Statement))
					}
				}
			}
		}
	}
	sort.Strings(asserted)
	fmt.Fprintf(&b, "assertions %v\n", asserted)
	for _, info := range st.Integrations() {
		schema, table, err := st.Integration(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		sj, err := ecr.EncodeJSON(schema)
		if err != nil {
			t.Fatal(err)
		}
		tj, err := mapping.EncodeJSON(table)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "integration %+v %s %s\n", info, sj, tj)
	}
	st.mu.RLock()
	var counts []string
	for name, is := range st.instances {
		for _, o := range is.Schema().Objects {
			if n := is.Count(o.Name); n > 0 {
				counts = append(counts, fmt.Sprintf("%s.%s=%d", name, o.Name, n))
			}
		}
	}
	st.mu.RUnlock()
	sort.Strings(counts)
	fmt.Fprintf(&b, "rows %v\n", counts)
	jobs, err := json.Marshal(ws.queue.List())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "jobs %s\n", jobs)
	if ws.name == DefaultWorkspace {
		s.keyMu.Lock()
		keys, err := json.Marshal(s.keyEntries)
		s.keyMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "keys %s\n", keys)
	}
	ws.queue.mu.Lock()
	defer ws.queue.mu.Unlock()
	return b.String(), ws.queue.table.nextID
}

// firstDiff reports the first line where two views differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}

// withNextJobID re-encodes a captured state with its job-ID counter set.
func withNextJobID(t testing.TB, state []byte, next int) []byte {
	var ps persistedState
	if err := json.Unmarshal(state, &ps); err != nil {
		t.Fatal(err)
	}
	ps.NextJobID = next
	out, err := json.Marshal(ps)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runOpsStream runs steps random steps (or until a fuzz input runs out),
// taking the bootstrap snapshot at a random point, then checks the
// property. It returns the ops the journal recorded.
func runOpsStream(t testing.TB, c chooser, steps int) map[string]int {
	o := newOpsStream(t, c)
	snapAt := c.intn(steps + 1)
	snaps := map[string]wsCapture{}
	takeSnapshot := func() {
		for _, name := range o.names {
			snaps[name] = o.capture(o.srv, name)
		}
	}
	for i := 0; i < steps && c.more(); i++ {
		if i == snapAt {
			takeSnapshot()
		}
		o.step()
	}
	if len(snaps) == 0 {
		takeSnapshot()
	}

	live := map[string]wsCapture{}
	tails := map[string][]byte{}
	for _, name := range o.names {
		live[name] = o.capture(o.srv, name)
		tail, _, _, err := mustWorkspace(t, o.srv, name).persist.j.TailSince(snaps[name].seq)
		if err != nil {
			t.Fatal(err)
		}
		tails[name] = tail
		full, _, _, err := mustWorkspace(t, o.srv, name).persist.j.TailSince(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(full, []byte{'\n'}) {
			if rec, err := journal.ParseFrame(line); err == nil {
				o.ops[rec.Op]++
			}
		}
	}
	o.srv.Kill()

	// replay(journal): crash recovery from the full journal.
	recovered, report, err := Open(Config{Workers: 1, QueueCapacity: 8}, DurabilityConfig{Dir: o.dir, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if report.RequeuedJobs != 0 || report.InterruptedJobs != 0 {
		t.Fatalf("recovery touched jobs of a quiesced stream: %+v", report)
	}
	replayed := map[string]wsCapture{}
	for _, name := range o.names {
		replayed[name] = o.capture(recovered, name)
	}
	recovered.Kill()

	// bootstrap(snapshot) + tail: a follower seeded from the mid-stream
	// snapshot, then fed the journal records after it.
	follower := newServer(Config{Workers: 1, QueueCapacity: 8,
		Follow: &FollowerConfig{Leader: "http://127.0.0.1:1"}}.withDefaults(),
		&DurabilityConfig{Dir: t.TempDir(), SnapshotEvery: 1 << 30})
	target := followerTarget{follower}
	booted := map[string]wsCapture{}
	for _, name := range o.names {
		snap := snaps[name]
		if err := target.Bootstrap(name, replication.Snapshot{Seq: snap.seq, State: snap.state}); err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(tails[name], []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			rec, err := journal.ParseFrame(line)
			if err != nil {
				t.Fatal(err)
			}
			if err := target.ApplyFrame(name, line, rec); err != nil {
				t.Fatal(err)
			}
		}
		booted[name] = o.capture(follower, name)
	}
	follower.Kill()

	for _, name := range o.names {
		l, r, b := live[name], replayed[name], booted[name]
		// The job-ID counter is the one thing a refused submit moves: the
		// live counter keeps burned IDs, replay counts accepted submits,
		// and the snapshot carries the counter as of its capture.
		wantReplay := o.accepted[name]
		wantBoot := max(snaps[name].nextID, o.accepted[name])
		for _, c := range []struct {
			leg  string
			got  wsCapture
			next int
		}{{"replay(journal)", r, wantReplay}, {"bootstrap(snapshot)+tail", b, wantBoot}} {
			if c.got.view != l.view {
				t.Fatalf("%s: %s reads back differently from live: %s", name, c.leg, firstDiff(l.view, c.got.view))
			}
			if c.got.nextID != c.next {
				t.Fatalf("%s: %s job-ID counter = %d, want %d (live %d)", name, c.leg, c.got.nextID, c.next, l.nextID)
			}
			if want := withNextJobID(t, l.state, c.next); !bytes.Equal(c.got.state, want) {
				t.Fatalf("%s: %s encodes differently from live:\nlive %s\ngot  %s", name, c.leg, want, c.got.state)
			}
		}
	}
	return o.ops
}

// TestDurableOpsProperty is the durability contract over random op
// streams: live == replay(journal) == bootstrap(snapshot) + tail, with
// every journal fault hook exercised, and every durable op journaled.
func TestDurableOpsProperty(t *testing.T) {
	total := map[string]int{}
	for seed := 1; seed <= 64; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for op, n := range runOpsStream(t, &randChooser{r: rand.New(rand.NewSource(int64(seed)))}, opsStreamSteps) {
				total[op] += n
			}
		})
	}
	for op := range opTable {
		if total[op] == 0 {
			t.Errorf("no stream journaled a %s record", op)
		}
	}
}

// FuzzDurableOps checks the same property on op streams read from the
// fuzz input. The corpus is seeded with the choices two property-test
// streams made, which replay as the same streams.
func FuzzDurableOps(f *testing.F) {
	for seed := int64(1); seed <= 2; seed++ {
		c := &randChooser{r: rand.New(rand.NewSource(seed))}
		runOpsStream(f, c, opsStreamSteps)
		f.Add(c.log)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runOpsStream(t, &byteChooser{data: data}, 2*opsStreamSteps)
	})
}
