package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// Test tokens. Only their hashes ever reach a key set.
const (
	testAdminKey = "test-admin-key-1"
	testDataKey  = "test-data-key-1"
)

// writeKeys writes a keys file into dir and returns its path.
func writeKeys(t testing.TB, dir, content string) string {
	t.Helper()
	path := filepath.Join(dir, "keys")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// authedServer returns a server with keys installed: an admin key and a
// data key covering only workspace "alpha".
func authedServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: 2, QueueCapacity: 16})
	path := writeKeys(t, t.TempDir(),
		"# test keys\n"+testAdminKey+" admin\n"+testDataKey+" data alpha\n")
	if err := srv.SetKeysFile(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	return srv, ts
}

// authedGet issues a GET with the given bearer token ("" sends none).
func authedGet(t testing.TB, client *http.Client, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestParseKeysFile(t *testing.T) {
	limits := Limits{}
	for _, tc := range []struct {
		name    string
		data    string
		keys    int
		wantErr bool
	}{
		{"admin and data", "tok-admin-1 admin\ntok-data-11 data a,b\n", 2, false},
		{"wildcard data", "tok-data-11 data *\n", 1, false},
		{"comments and blanks", "# c\n\ntok-admin-1 admin\n", 1, false},
		{"empty", "# only comments\n", 0, true},
		{"short token", "short admin\n", 0, true},
		{"bad scope", "tok-admin-1 root\n", 0, true},
		{"data without workspaces", "tok-data-11 data\n", 0, true},
		{"admin with workspaces", "tok-admin-1 admin a,b\n", 0, true},
		{"missing scope", "tok-admin-1\n", 0, true},
		{"duplicate token", "tok-admin-1 admin\ntok-admin-1 admin\n", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ks, err := parseKeysFile([]byte(tc.data), limits)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got key set")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(ks.byHash) != tc.keys {
				t.Fatalf("keys = %d, want %d", len(ks.byHash), tc.keys)
			}
		})
	}
}

func TestParseKeysFileScoping(t *testing.T) {
	ks, err := parseKeysFile([]byte("tok-data-11 data a,b\ntok-data-22 data *\n"), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var scoped, wild *keyAuth
	for _, k := range ks.byHash {
		if k.all {
			wild = k
		} else {
			scoped = k
		}
	}
	if scoped == nil || wild == nil {
		t.Fatal("expected one scoped and one wildcard key")
	}
	if !scoped.workspaces["a"] || !scoped.workspaces["b"] || scoped.workspaces["c"] {
		t.Errorf("scoped workspaces = %v", scoped.workspaces)
	}
}

// Per-key buckets attach only when KeyRate is set; reloads reset them.
func TestKeySetBuckets(t *testing.T) {
	ks, err := parseKeysFile([]byte("tok-admin-1 admin\n"), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks.byHash {
		if k.bucket != nil {
			t.Error("bucket attached without KeyRate")
		}
	}
	ks, err = parseKeysFile([]byte("tok-admin-1 admin\n"), Limits{KeyRate: 5, KeyBurst: 10}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks.byHash {
		if k.bucket == nil {
			t.Error("no bucket despite KeyRate")
		}
	}
}

// TestAuthMatrix drives the 401/403 grid over HTTP: anonymous, unknown
// key, data key in and out of its workspace, data key on the control
// plane, admin key everywhere, and the deliberately open health probe.
func TestAuthMatrix(t *testing.T) {
	srv, ts := authedServer(t)
	client := ts.Client()

	// The data plane needs a workspace the data key covers.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/workspaces", bytes.NewReader([]byte(`{"name":"alpha"}`)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+testAdminKey)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create alpha = %d", resp.StatusCode)
	}

	for _, tc := range []struct {
		name  string
		url   string
		token string
		want  int
	}{
		{"healthz is open", "/healthz", "", http.StatusOK},
		{"anonymous data read", "/v1/schemas", "", http.StatusUnauthorized},
		{"unknown key", "/v1/schemas", "not-a-real-key", http.StatusUnauthorized},
		{"data key in its workspace", "/v1/workspaces/alpha/schemas", testDataKey, http.StatusOK},
		{"data key outside its workspace", "/v1/schemas", testDataKey, http.StatusForbidden},
		{"data key on the control plane", "/metrics", testDataKey, http.StatusForbidden},
		{"admin key on the control plane", "/metrics", testAdminKey, http.StatusOK},
		{"admin key on the data plane", "/v1/schemas", testAdminKey, http.StatusOK},
		// The admin key clears auth; the handler then refuses because a
		// memory-only server has no journal to stream (409, not 401/403).
		{"admin key on replication stream", "/v1/replication/workspaces", testAdminKey, http.StatusConflict},
		{"data key on replication stream", "/v1/replication/workspaces", testDataKey, http.StatusForbidden},
	} {
		resp := authedGet(t, client, ts.URL+tc.url, tc.token)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if resp.StatusCode == http.StatusUnauthorized && resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("%s: 401 without WWW-Authenticate", tc.name)
		}
	}

	if got := srv.Metrics().Snapshot().Admission.AuthFailuresTotal; got == 0 {
		t.Error("auth failures left no metric trace")
	}
}

// X-Api-Key works as an alternative to the Authorization header.
func TestAuthAPIKeyHeader(t *testing.T) {
	_, ts := authedServer(t)
	req, err := http.NewRequest("GET", ts.URL+"/v1/schemas", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Api-Key", testAdminKey)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("X-Api-Key auth = %d", resp.StatusCode)
	}
}

// TestReloadKeys rotates the key file in place (the SIGHUP path): the new
// key takes over, the retired key stops working, and a broken file leaves
// the previous set in force.
func TestReloadKeys(t *testing.T) {
	srv := New(Config{Workers: 2, QueueCapacity: 16})
	defer srv.Shutdown(context.Background())
	dir := t.TempDir()
	path := writeKeys(t, dir, testAdminKey+" admin\n")
	if err := srv.SetKeysFile(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	if resp := authedGet(t, client, ts.URL+"/v1/schemas", testAdminKey); resp.StatusCode != http.StatusOK {
		t.Fatalf("initial key = %d", resp.StatusCode)
	}

	const rotated = "rotated-admin-key"
	writeKeys(t, dir, rotated+" admin\n")
	if err := srv.ReloadKeys(); err != nil {
		t.Fatal(err)
	}
	if resp := authedGet(t, client, ts.URL+"/v1/schemas", rotated); resp.StatusCode != http.StatusOK {
		t.Fatalf("rotated key = %d", resp.StatusCode)
	}
	if resp := authedGet(t, client, ts.URL+"/v1/schemas", testAdminKey); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("retired key = %d, want 401", resp.StatusCode)
	}

	// A broken file rejects whole; the rotated key stays live.
	writeKeys(t, dir, "short admin\n")
	if err := srv.ReloadKeys(); err == nil {
		t.Fatal("broken keys file reloaded without error")
	}
	if resp := authedGet(t, client, ts.URL+"/v1/schemas", rotated); resp.StatusCode != http.StatusOK {
		t.Fatalf("key after failed reload = %d", resp.StatusCode)
	}
}

// TestKeysReplicateToFollower: a durable leader journals its key set; a
// follower replicates and enforces the same keys on its own read path,
// and survives recovery with them (snapshot + replay both carry keys).
func TestKeysReplicateToFollower(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()

	leader, _ := openDurable(t, dirL, journal.Hooks{})
	path := writeKeys(t, t.TempDir(),
		testAdminKey+" admin\n"+testDataKey+" data *\n")
	if err := leader.SetKeysFile(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()

	// The follower presents the admin key to the leader's peer routes.
	follower, _, err := Open(
		Config{Workers: 2, QueueCapacity: 16,
			Follow: &FollowerConfig{Leader: ts.URL, PollInterval: 3 * time.Millisecond, APIKey: testAdminKey}},
		DurabilityConfig{Dir: dirF})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()
	client := fs.Client()

	// The key set arrives through the stream; once it lands, anonymous
	// reads on the follower turn 401 and keyed reads pass.
	waitFor(t, 10*time.Second, func() bool {
		return authedGet(t, client, fs.URL+"/v1/schemas", "").StatusCode == http.StatusUnauthorized
	}, "follower to enforce replicated keys")
	if resp := authedGet(t, client, fs.URL+"/v1/schemas", testDataKey); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower keyed read = %d", resp.StatusCode)
	}
	if resp := authedGet(t, client, fs.URL+"/metrics", testDataKey); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower data key on control plane = %d, want 403", resp.StatusCode)
	}
}

// A follower without an API key cannot sync from a keyed leader — and a
// request to the leader's stream without the key is a plain 401.
func TestReplicationStreamRequiresKey(t *testing.T) {
	dirL := t.TempDir()
	leader, _ := openDurable(t, dirL, journal.Hooks{})
	path := writeKeys(t, t.TempDir(), testAdminKey+" admin\n")
	if err := leader.SetKeysFile(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Kill()

	if resp := authedGet(t, ts.Client(), ts.URL+"/v1/replication/workspaces", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous stream read = %d, want 401", resp.StatusCode)
	}
	if resp := authedGet(t, ts.Client(), ts.URL+"/v1/replication/workspaces", testAdminKey); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed stream read = %d, want 200", resp.StatusCode)
	}
}

// Keys survive the leader's own crash: journaled on the default
// workspace, they come back on recovery before the listener does.
func TestKeysSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, _ := openDurable(t, dir, journal.Hooks{})
	path := writeKeys(t, t.TempDir(), testAdminKey+" admin\n")
	if err := srv.SetKeysFile(path); err != nil {
		t.Fatal(err)
	}
	srv.Kill()

	// Reopen without SetKeysFile: the journaled set must still guard.
	srv2, _, err := Open(Config{Workers: 2, QueueCapacity: 16}, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Kill()
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()

	if resp := authedGet(t, ts.Client(), ts.URL+"/v1/schemas", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous read after recovery = %d, want 401", resp.StatusCode)
	}
	if resp := authedGet(t, ts.Client(), ts.URL+"/v1/schemas", testAdminKey); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed read after recovery = %d, want 200", resp.StatusCode)
	}
}

// Per-key buckets throttle a key across workspaces.
func TestKeyRateLimit(t *testing.T) {
	srv := New(Config{Workers: 2, QueueCapacity: 16,
		Limits: Limits{KeyRate: 0.001, KeyBurst: 2}})
	defer srv.Shutdown(context.Background())
	path := writeKeys(t, t.TempDir(), testAdminKey+" admin\n")
	if err := srv.SetKeysFile(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	codes := map[int]int{}
	for i := 0; i < 5; i++ {
		resp := authedGet(t, ts.Client(), ts.URL+"/v1/schemas", testAdminKey)
		codes[resp.StatusCode]++
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("per-key 429 without Retry-After")
		}
	}
	if codes[http.StatusOK] != 2 || codes[http.StatusTooManyRequests] != 3 {
		t.Fatalf("status counts = %v, want 2x200 + 3x429", codes)
	}
}

// TestKeySetRejournaledAfterFailedAppend: a key set whose journal append
// failed was never journaled, so reloading the same file appends it, and a
// follower then enforces it — the rotated-out key stops working there too.
func TestKeySetRejournaledAfterFailedAppend(t *testing.T) {
	var failKeys atomic.Bool
	hooks := journal.Hooks{BeforeAppend: func(line []byte) (int, error) {
		if failKeys.Load() && bytes.Contains(line, []byte(`"op":"set_keys"`)) {
			return 0, errors.New("injected: disk full")
		}
		return len(line), nil
	}}
	leader, _ := openDurable(t, t.TempDir(), hooks)
	defer leader.Kill()
	keysDir := t.TempDir()
	path := writeKeys(t, keysDir, testAdminKey+" admin\n"+testDataKey+" data *\n")
	if err := leader.SetKeysFile(path); err != nil {
		t.Fatal(err)
	}

	// Rotate the data key; the rotation's append fails once.
	const rotatedKey = "test-data-key-2"
	writeKeys(t, keysDir, testAdminKey+" admin\n"+rotatedKey+" data *\n")
	failKeys.Store(true)
	if err := leader.ReloadKeys(); err != nil {
		t.Fatal(err)
	}
	failKeys.Store(false)
	if err := leader.ReloadKeys(); err != nil {
		t.Fatal(err)
	}

	data, _, _, err := leader.Journal().TailSince(0)
	if err != nil {
		t.Fatal(err)
	}
	var last setKeysRec
	for _, line := range bytes.SplitAfter(data, []byte{'\n'}) {
		if rec, err := journal.ParseFrame(line); err == nil && rec.Op == opSetKeys {
			if err := json.Unmarshal(rec.Data, &last); err != nil {
				t.Fatal(err)
			}
		}
	}
	hashOf := func(token string) string {
		sum := sha256.Sum256([]byte(token))
		return hex.EncodeToString(sum[:])
	}
	var hashes []string
	for _, e := range last.Keys {
		hashes = append(hashes, e.Hash)
	}
	if !slices.Contains(hashes, hashOf(rotatedKey)) || slices.Contains(hashes, hashOf(testDataKey)) {
		t.Fatalf("last journaled key set = %+v, want the rotated set", last.Keys)
	}

	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	follower, _, err := Open(
		Config{Workers: 2, QueueCapacity: 16,
			Follow: &FollowerConfig{Leader: ts.URL, PollInterval: 3 * time.Millisecond, APIKey: testAdminKey}},
		DurabilityConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Kill()
	fs := httptest.NewServer(follower.Handler())
	defer fs.Close()
	client := fs.Client()
	waitFor(t, 10*time.Second, func() bool {
		return authedGet(t, client, fs.URL+"/v1/schemas", testDataKey).StatusCode == http.StatusUnauthorized
	}, "follower to reject the rotated-out key")
	if resp := authedGet(t, client, fs.URL+"/v1/schemas", rotatedKey); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower read with the rotated key = %d", resp.StatusCode)
	}
}
