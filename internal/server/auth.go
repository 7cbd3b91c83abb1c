package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
)

// API-key scopes. A data key reaches the data plane of the workspaces it
// lists; an admin key reaches everything (lifecycle, metrics, replication,
// promotion, and every workspace's data plane).
const (
	scopeData  = "data"
	scopeAdmin = "admin"
)

// minKeyLen rejects trivially guessable tokens at load time.
const minKeyLen = 8

// Auth errors, classified with errors.Is.
var (
	// ErrUnauthorized marks requests with a missing or unknown API key (401).
	ErrUnauthorized = errors.New("unauthorized")
	// ErrForbidden marks authenticated requests whose key lacks the scope
	// or workspace (403).
	ErrForbidden = errors.New("forbidden")
)

// apiKeyEntry is one key in the replicated wire form: the SHA-256 of the
// token (hex), never the token itself — the journal and snapshots carry
// only hashes, so replicating the key set never ships a secret.
type apiKeyEntry struct {
	Hash  string `json:"hash"`
	Scope string `json:"scope"`
	// Workspaces lists the data-plane workspaces the key reaches; the
	// single entry "*" means all. Ignored for admin keys.
	Workspaces []string `json:"workspaces,omitempty"`
}

// keyAuth is one loaded key, ready for request checks.
type keyAuth struct {
	hash       []byte // raw SHA-256 of the token
	scope      string
	all        bool            // data key valid for every workspace
	workspaces map[string]bool // nil unless scope is data and !all
	// bucket rate-limits this key across all its requests; nil when
	// Limits.KeyRate is unset.
	bucket *bucket
}

// keySet is an immutable loaded key table. Reloads swap whole sets
// atomically (Server.fileKeys / Server.replKeys), so requests never see a
// half-loaded table — but also means per-key bucket state resets on
// reload, which is the honest behavior for a changed key file.
type keySet struct {
	byHash map[string]*keyAuth
	// wire is the canonical replicated form, preserving file order.
	wire []apiKeyEntry
}

// buildKeySet compiles wire entries into a lookup table, attaching per-key
// buckets from the limits.
func buildKeySet(entries []apiKeyEntry, limits Limits) (*keySet, error) {
	ks := &keySet{byHash: make(map[string]*keyAuth, len(entries)), wire: entries}
	for i, e := range entries {
		raw, err := hex.DecodeString(e.Hash)
		if err != nil || len(raw) != sha256.Size {
			return nil, fmt.Errorf("key %d: hash is not a hex SHA-256", i+1)
		}
		if _, dup := ks.byHash[e.Hash]; dup {
			return nil, fmt.Errorf("key %d: duplicate key", i+1)
		}
		k := &keyAuth{hash: raw, scope: e.Scope}
		switch e.Scope {
		case scopeAdmin:
			k.all = true
		case scopeData:
			k.workspaces = map[string]bool{}
			for _, ws := range e.Workspaces {
				if ws == "*" {
					k.all = true
					continue
				}
				k.workspaces[ws] = true
			}
			if !k.all && len(k.workspaces) == 0 {
				return nil, fmt.Errorf("key %d: data key lists no workspaces", i+1)
			}
		default:
			return nil, fmt.Errorf("key %d: unknown scope %q (want %s or %s)", i+1, e.Scope, scopeData, scopeAdmin)
		}
		if limits.KeyRate > 0 {
			k.bucket = newBucket(limits.KeyRate, limits.KeyBurst)
		}
		ks.byHash[e.Hash] = k
	}
	return ks, nil
}

// parseKeysFile parses the -keys file format: one key per line,
//
//	<token> admin
//	<token> data <ws1,ws2,...|*>
//
// with blank lines and #-comments ignored. Tokens are hashed immediately;
// the plaintext never outlives this function.
func parseKeysFile(data []byte, limits Limits) (*keySet, error) {
	var entries []apiKeyEntry
	sc := bufio.NewScanner(bytes.NewReader(data))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: want \"<token> <scope> [workspaces]\"", lineNo)
		}
		token, scope := fields[0], fields[1]
		if len(token) < minKeyLen {
			return nil, fmt.Errorf("line %d: token shorter than %d characters", lineNo, minKeyLen)
		}
		sum := sha256.Sum256([]byte(token))
		e := apiKeyEntry{Hash: hex.EncodeToString(sum[:]), Scope: scope}
		switch scope {
		case scopeAdmin:
			if len(fields) > 2 {
				return nil, fmt.Errorf("line %d: admin keys take no workspace list", lineNo)
			}
		case scopeData:
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: data keys need a workspace list (or *)", lineNo)
			}
			e.Workspaces = strings.Split(fields[2], ",")
		default:
			return nil, fmt.Errorf("line %d: unknown scope %q (want %s or %s)", lineNo, scope, scopeData, scopeAdmin)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("keys file defines no keys; delete the flag to disable auth")
	}
	return buildKeySet(entries, limits)
}

// requestToken extracts the presented API key: "Authorization: Bearer
// <token>" or the X-Api-Key header.
func requestToken(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
		return ""
	}
	return r.Header.Get("X-Api-Key")
}

// effectiveKeys resolves which key set guards requests right now. A
// follower trusts the leader's journaled keys first — the fleet must agree
// on who may read — falling back to its own file before the first sync. A
// leader trusts its file (the journal echoes it out to followers).
func (s *Server) effectiveKeys() *keySet {
	repl, file := s.replKeys.Load(), s.fileKeys.Load()
	if s.follow.Load() != nil {
		if repl != nil {
			return repl
		}
		return file
	}
	if file != nil {
		return file
	}
	return repl
}

// authorize authenticates and authorizes a request. scope is the minimum
// scope; workspace (data scope only) is the workspace the request
// addresses. It returns the key (nil when auth is disabled) and whether
// the request may proceed; on refusal the 401/403 has been written. The
// hash comparison is constant-time: the map lookup keys on the hash of the
// *presented* token, so its timing reveals nothing about stored secrets,
// and the final compare never short-circuits.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request, scope, workspace string) (*keyAuth, bool) {
	ks := s.effectiveKeys()
	if ks == nil {
		return nil, true // no keys installed: auth disabled
	}
	token := requestToken(r)
	if token == "" {
		s.metrics.ObserveAuthFailure()
		w.Header().Set("WWW-Authenticate", "Bearer")
		writeError(w, http.StatusUnauthorized,
			fmt.Errorf("server: %w: send an API key as \"Authorization: Bearer <key>\" or X-Api-Key", ErrUnauthorized))
		return nil, false
	}
	sum := sha256.Sum256([]byte(token))
	k := ks.byHash[hex.EncodeToString(sum[:])]
	if k == nil || subtle.ConstantTimeCompare(k.hash, sum[:]) != 1 {
		s.metrics.ObserveAuthFailure()
		w.Header().Set("WWW-Authenticate", "Bearer")
		writeError(w, http.StatusUnauthorized, fmt.Errorf("server: %w: unknown API key", ErrUnauthorized))
		return nil, false
	}
	if scope == scopeAdmin && k.scope != scopeAdmin {
		s.metrics.ObserveAuthFailure()
		writeError(w, http.StatusForbidden, fmt.Errorf("server: %w: this route needs an admin key", ErrForbidden))
		return k, false
	}
	if scope == scopeData && k.scope == scopeData && workspace != "" && !k.all && !k.workspaces[workspace] {
		s.metrics.ObserveAuthFailure()
		writeError(w, http.StatusForbidden, fmt.Errorf("server: %w: key does not cover this workspace", ErrForbidden))
		return k, false
	}
	return k, true
}

// SetKeysFile loads (or reloads) the API-key file at path, installs it as
// the server's key set, and remembers the path for ReloadKeys. On a
// durable leader the new set is journaled (op_set_keys on the default
// workspace's journal), so followers replicate and enforce the same keys.
func (s *Server) SetKeysFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("server: read keys file: %w", err)
	}
	ks, err := parseKeysFile(data, s.limits)
	if err != nil {
		return fmt.Errorf("server: keys file %s: %w", path, err)
	}
	s.keyMu.Lock()
	s.keysPath = path
	s.keyMu.Unlock()
	s.fileKeys.Store(ks)
	s.journalKeys(ks)
	if s.log != nil {
		s.log.Info("api keys loaded", "path", path, "keys", len(ks.wire))
	}
	return nil
}

// ReloadKeys re-reads the keys file SetKeysFile installed — the SIGHUP
// handler's entry point. A parse error leaves the previous key set in
// force.
func (s *Server) ReloadKeys() error {
	s.keyMu.Lock()
	path := s.keysPath
	s.keyMu.Unlock()
	if path == "" {
		return fmt.Errorf("server: no keys file configured")
	}
	return s.SetKeysFile(path)
}

// journalKeys appends the key set to the default workspace's journal when
// it differs from the last journaled set, then applies the record, which
// makes it the last journaled set. Leaders only: a follower's key set
// arrives through the stream it replicates. A failed append leaves the
// last journaled set as it was, so reloading the same file retries the
// append. The dedupe check runs under keyMu but the append deliberately
// does not — journal I/O under an in-memory lock is a lockio finding — so
// two concurrent reloads can at worst journal the same set twice, and
// replay is last-record-wins.
func (s *Server) journalKeys(ks *keySet) {
	if s.dcfg == nil || s.follow.Load() != nil {
		return
	}
	ws, err := s.manager.Get(DefaultWorkspace)
	if err != nil || ws.persist == nil {
		return
	}
	s.keyMu.Lock()
	same := slices.EqualFunc(s.keyEntries, ks.wire, func(a, b apiKeyEntry) bool {
		return a.Hash == b.Hash && a.Scope == b.Scope && slices.Equal(a.Workspaces, b.Workspaces)
	})
	s.keyMu.Unlock()
	if same {
		return
	}
	rec := &setKeysRec{Keys: ks.wire}
	if _, err := ws.persist.j.Append(rec.op(), rec); err != nil {
		if s.log != nil {
			s.log.Error("journal api keys", "error", err)
		}
		return
	}
	if err := rec.apply(s.target(ws)); err != nil && s.log != nil {
		s.log.Error("apply api keys", "error", err)
	}
}

// applyJournaledKeys installs a key set that arrived through the journal:
// a leader's own append, recovery replay, a follower's replication stream,
// or a snapshot bootstrap. Entries are already hashes; nothing is
// re-journaled.
func (s *Server) applyJournaledKeys(entries []apiKeyEntry) error {
	ks, err := buildKeySet(entries, s.limits)
	if err != nil {
		return fmt.Errorf("journaled key set: %w", err)
	}
	s.replKeys.Store(ks)
	s.keyMu.Lock()
	s.keyEntries = entries
	s.keyMu.Unlock()
	return nil
}
