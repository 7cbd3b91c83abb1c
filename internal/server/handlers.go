package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/assertion"
	"repro/internal/ecr"
	"repro/internal/integrate"
	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/translate"
	"repro/internal/version"
)

// maxBodyBytes bounds request bodies; component schemas are text, so 4 MiB
// is generous.
const maxBodyBytes = 4 << 20

// IntegrationResult is the JSON form of an integrate.Result, shared by the
// synchronous endpoint and the job queue.
type IntegrationResult struct {
	Name string `json:"name"`
	// Schema is the integrated schema in the ECR JSON encoding.
	Schema json.RawMessage `json:"schema"`
	// DDL is the same schema in ECR DDL, for human eyes.
	DDL string `json:"ddl"`
	// Clusters lists the integrated groups, largest first.
	Clusters [][]string `json:"clusters,omitempty"`
	// Report logs the integration decisions in order.
	Report []string `json:"report,omitempty"`
	// Mappings is the component-to-integrated mapping table in the shared
	// data-dictionary JSON format.
	Mappings  json.RawMessage `json:"mappings,omitempty"`
	ElapsedMs float64         `json:"elapsedMs"`
}

func newIntegrationResult(res *integrate.Result, elapsed time.Duration) (*IntegrationResult, error) {
	schemaJSON, err := ecr.EncodeJSON(res.Schema)
	if err != nil {
		return nil, err
	}
	mappingsJSON, err := mapping.EncodeJSON(res.Mappings)
	if err != nil {
		return nil, err
	}
	out := &IntegrationResult{
		Name:      res.Schema.Name,
		Schema:    schemaJSON,
		DDL:       ecr.FormatSchema(res.Schema),
		Report:    res.Report,
		Mappings:  mappingsJSON,
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
	}
	for _, cluster := range res.Clusters {
		var names []string
		for _, k := range cluster {
			names = append(names, k.String())
		}
		out.Clusters = append(out.Clusters, names)
	}
	return out, nil
}

// --- JSON plumbing ---

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders an error body. Every 429 and 503 the server writes
// carries a Retry-After: paths that can estimate one (queue backlog, bucket
// deficit) set the header before coming here, and this fallback guarantees
// the floor for the rest — a backoff hint of "0" or none at all invites an
// immediate retry storm.
func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", strconv.Itoa(minRetryAfterSeconds))
		}
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// errStatus maps a pipeline error onto an HTTP status: durability failures
// are 503 (the request was valid; the journal could not record it), missing
// structures are 404, exhausted quotas are 429, oversized bodies are 413,
// everything else is the caller's fault. Classification goes through typed
// errors, never message text — the messages embed user-controlled names
// that could otherwise steer the status.
func errStatus(err error) int {
	var derived *assertion.DerivedError
	switch {
	case journal.IsError(err):
		return http.StatusServiceUnavailable
	case errors.As(err, &derived):
		// Retracting a derived entry conflicts with its supports.
		return http.StatusConflict
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

// bodyLimit is the mutation-body cap for this server.
func (s *Server) bodyLimit() int64 {
	if s.limits.MaxBodyBytes > 0 {
		return s.limits.MaxBodyBytes
	}
	return maxBodyBytes
}

// mapBodyError classifies a body-read failure, converting MaxBytesReader
// overflow into the typed 413 error (and counting it).
func (s *Server) mapBodyError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.metrics.ObserveBodyTooLarge()
		return fmt.Errorf("server: %w: limit is %d bytes", ErrBodyTooLarge, mbe.Limit)
	}
	return err
}

// decodeBody decodes a JSON request body under the configured size cap.
// Overflow is 413 with ErrBodyTooLarge; the cap cuts the read off at the
// limit, so an oversized upload is never buffered in full.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.bodyLimit()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		err = s.mapBodyError(err)
		if errors.Is(err, ErrBodyTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		}
		return false
	}
	return true
}

// --- health and metrics ---

// handleHealthz reports liveness plus the replication role. A follower also
// reports its per-workspace lag, and ?max-lag=N (records) turns the check
// into a load-balancer gate: a follower lagging beyond N on any workspace —
// or one that has not completed a sync round yet — answers 503, so stale
// replicas drop out of a read pool without external lag plumbing.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":  "ok",
		"version": version.Version,
		"role":    s.role(),
	}
	status := http.StatusOK
	if f := s.follow.Load(); f != nil {
		lag := f.lagSnapshot()
		resp["leader"] = f.leader
		resp["replication"] = lag
		if raw := r.URL.Query().Get("max-lag"); raw != "" {
			maxLag, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad max-lag %q", raw))
				return
			}
			if len(lag) == 0 {
				status = http.StatusServiceUnavailable
				resp["status"] = "syncing"
			}
			for _, l := range lag {
				if l.LagRecords > maxLag {
					status = http.StatusServiceUnavailable
					resp["status"] = "lagging"
					break
				}
			}
		}
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// --- workspace lifecycle ---

// workspaceInfo summarizes one workspace for listings and GETs.
type workspaceInfo struct {
	Name       string    `json:"name"`
	Created    time.Time `json:"created"`
	Schemas    int       `json:"schemas"`
	QueueDepth int       `json:"queueDepth"`
}

func newWorkspaceInfo(ws *Workspace) workspaceInfo {
	return workspaceInfo{
		Name:       ws.name,
		Created:    ws.created,
		Schemas:    len(ws.store.SchemaNames()),
		QueueDepth: ws.queue.Depth(),
	}
}

// workspacePath is the canonical URL of a workspace's API root.
func workspacePath(name string) string {
	return "/v1/workspaces/" + url.PathEscape(name)
}

func (s *Server) handleWorkspacesList(w http.ResponseWriter, r *http.Request) {
	out := []workspaceInfo{}
	for _, ws := range s.manager.List() {
		out = append(out, newWorkspaceInfo(ws))
	}
	writeJSON(w, http.StatusOK, map[string]any{"workspaces": out})
}

// workspaceRequest creates a named workspace.
type workspaceRequest struct {
	Name string `json:"name"`
}

func (s *Server) handleWorkspacesPost(w http.ResponseWriter, r *http.Request) {
	var req workspaceRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	ws, err := s.manager.Create(req.Name)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrWorkspaceExists):
			status = http.StatusConflict
		case errors.Is(err, ErrWorkspaceCap):
			status = http.StatusForbidden
		case journal.IsError(err):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Location", workspacePath(ws.name))
	writeJSON(w, http.StatusCreated, newWorkspaceInfo(ws))
}

func (s *Server) handleWorkspaceGet(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, newWorkspaceInfo(ws))
}

func (s *Server) handleWorkspaceDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("ws")
	if err := s.manager.Delete(name); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

// --- schemas ---

// schemasRequest uploads component schemas. Legacy fields: ddl (one or more
// ECR DDL "schema" blocks) or schema (one schema in the ECR JSON encoding).
// The general path is source + format: source text in any registered
// frontend language (dictionary, sql, hierarchical, avro, jsonschema); an
// empty format is sniffed. name is the fallback schema name for formats
// that do not carry one in-text.
type schemasRequest struct {
	DDL    string          `json:"ddl,omitempty"`
	Schema json.RawMessage `json:"schema,omitempty"`
	Source string          `json:"source,omitempty"`
	Format string          `json:"format,omitempty"`
	Name   string          `json:"name,omitempty"`
}

func (s *Server) handleSchemasPost(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	var req schemasRequest
	if ct == "text/plain" || ct == "application/x-ecr-ddl" {
		// Raw text bodies go straight to the registry; ?format= and ?name=
		// stand in for the JSON envelope's fields.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.bodyLimit()))
		if err != nil {
			err = s.mapBodyError(err)
			writeError(w, errStatus(err), err)
			return
		}
		req.Source = string(body)
		req.Format = r.URL.Query().Get("format")
		req.Name = r.URL.Query().Get("name")
	} else if !s.decodeBody(w, r, &req) {
		return
	}

	// Resolve the three body forms to (source, format) for the registry.
	// The legacy ddl and schema fields are both dictionary-format sources.
	var src []byte
	format := req.Format
	fields := 0
	if req.DDL != "" {
		fields++
		src, format = []byte(req.DDL), "dictionary"
	}
	if req.Schema != nil {
		fields++
		src, format = req.Schema, "dictionary"
	}
	if req.Source != "" {
		fields++
		src = []byte(req.Source)
	}
	if fields != 1 {
		var err error
		if fields == 0 {
			err = fmt.Errorf("request needs a ddl, schema or source field")
		} else {
			err = fmt.Errorf("request has more than one of ddl, schema and source; send one")
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}

	res, used, err := translate.Parse(format, req.Name, src)
	var added []string
	if err == nil {
		added, err = ws.store.AddSchemas(res.Schemas)
	}
	if err != nil {
		if errors.Is(err, ErrQuota) {
			s.metrics.ObserveQuotaRejection()
		}
		writeError(w, errStatus(err), err)
		return
	}
	s.metrics.ObserveSchemaParse(boundedFormat(used))
	writeJSON(w, http.StatusCreated, map[string]any{
		"added":  added,
		"format": used,
		"notes":  res.Notes,
	})
}

func (s *Server) handleSchemasList(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	list := ws.store.Schemas()
	if list == nil {
		list = []SchemaStats{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"schemas": list})
}

func (s *Server) handleSchemaGet(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	schema := ws.store.Schema(name)
	if schema == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("schema %q not found", name))
		return
	}
	schemaJSON, err := ecr.EncodeJSON(schema)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":   schema.Name,
		"schema": json.RawMessage(schemaJSON),
		"ddl":    ecr.FormatSchema(schema),
	})
}

func (s *Server) handleSchemaDelete(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	found, err := ws.store.RemoveSchema(name)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("schema %q not found", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

// --- equivalences ---

// equivalenceRequest declares two "object.attribute" references, each
// resolved against its named schema, attribute-equivalent.
type equivalenceRequest struct {
	Schema1 string `json:"schema1"`
	Attr1   string `json:"attr1"`
	Schema2 string `json:"schema2"`
	Attr2   string `json:"attr2"`
}

func (s *Server) handleEquivalencesPost(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	var req equivalenceRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := ws.store.DeclareEquivalence(req.Schema1, req.Attr1, req.Schema2, req.Attr2); err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"declared": true})
}

func (s *Server) handleEquivalencesList(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	classes := ws.store.EquivalenceClasses()
	if classes == nil {
		classes = [][]ecr.AttrRef{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"classes": classes})
}

// --- resemblance and suggestions ---

func pairParams(r *http.Request) (s1, s2 string, rel bool, err error) {
	q := r.URL.Query()
	s1, s2 = q.Get("schema1"), q.Get("schema2")
	if s1 == "" || s2 == "" {
		return "", "", false, fmt.Errorf("schema1 and schema2 query parameters are required")
	}
	switch kind := q.Get("kind"); kind {
	case "", "objects":
	case "relationships":
		rel = true
	default:
		return "", "", false, fmt.Errorf("bad kind %q (want objects or relationships)", kind)
	}
	return s1, s2, rel, nil
}

func (s *Server) handleResemblance(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	s1, s2, rel, err := pairParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pairs, err := ws.store.RankedPairs(s1, s2, rel)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"pairs": pairs})
}

func (s *Server) handleMatrix(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	s1, s2, rel, err := pairParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	m, err := ws.store.Matrix(s1, s2, rel)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"matrix": m})
}

func (s *Server) handleSuggestions(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	s1, s2, _, err := pairParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	threshold := 0.5
	if raw := r.URL.Query().Get("threshold"); raw != "" {
		threshold, err = strconv.ParseFloat(raw, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad threshold %q", raw))
			return
		}
	}
	cands, err := ws.store.Suggest(s1, s2, threshold)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"suggestions": cands})
}

// --- assertions ---

// assertionRequest states one assertion between structures of two schemas,
// using the tool's numeric codes (1 equals, 2 contained-in, 3 contains, 4
// disjoint-integrable, 5 may-be, 0 disjoint-nonintegrable).
type assertionRequest struct {
	Schema1 string `json:"schema1"`
	Object1 string `json:"object1"`
	Code    int    `json:"code"`
	Schema2 string `json:"schema2"`
	Object2 string `json:"object2"`
	// Relationship selects the relationship-set matrix.
	Relationship bool `json:"relationship,omitempty"`
}

// conflictJSON reports one contradiction plus the chain of DDA-specified
// assertions that jointly imply it (the conflict-explanation API).
type conflictJSON struct {
	Conflict string   `json:"conflict"`
	Implies  []string `json:"implied_by,omitempty"`
}

// assertionResponse reports the incremental closure of the matrix after the
// new assertion: the entries this operation derived and the standing
// conflicts, each grounded in its supporting assertions.
type assertionResponse struct {
	Consistent bool           `json:"consistent"`
	Derived    []string       `json:"derived,omitempty"`
	Conflicts  []string       `json:"conflicts,omitempty"`
	Explained  []conflictJSON `json:"conflict_chains,omitempty"`
}

func (s *Server) handleAssertionsPost(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	var req assertionRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	res, chains, err := ws.store.Assert(req.Schema1, req.Object1, req.Code, req.Schema2, req.Object2, req.Relationship)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	resp := assertionResponse{Consistent: res.Consistent()}
	for _, d := range res.Derived {
		resp.Derived = append(resp.Derived, d.Statement.String())
	}
	for i, c := range res.Conflicts {
		resp.Conflicts = append(resp.Conflicts, c.Error())
		cj := conflictJSON{Conflict: c.Error()}
		if i < len(chains) {
			cj.Implies = chains[i]
		}
		resp.Explained = append(resp.Explained, cj)
	}
	status := http.StatusCreated
	if !resp.Consistent {
		status = http.StatusConflict
	}
	writeJSON(w, status, resp)
}

// retractRequest names the assertion to remove; the shape mirrors
// assertionRequest without a code.
type retractRequest struct {
	Schema1      string `json:"schema1"`
	Object1      string `json:"object1"`
	Schema2      string `json:"schema2"`
	Object2      string `json:"object2"`
	Relationship bool   `json:"relationship,omitempty"`
}

// retractResponse reports what the retraction did: the statements that left
// the matrix and the derived entries that survived (or reappeared) through
// an alternative derivation.
type retractResponse struct {
	Found      bool     `json:"found"`
	Consistent bool     `json:"consistent"`
	Removed    []string `json:"removed,omitempty"`
	Rederived  []string `json:"rederived,omitempty"`
	Conflicts  []string `json:"conflicts,omitempty"`
}

func (s *Server) handleAssertionsDelete(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	var req retractRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	res, err := ws.store.Retract(req.Schema1, req.Object1, req.Schema2, req.Object2, req.Relationship)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	if !res.Found {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: no assertion held between %s.%s and %s.%s",
			req.Schema1, req.Object1, req.Schema2, req.Object2))
		return
	}
	resp := retractResponse{Found: true, Consistent: len(res.Conflicts) == 0}
	for _, st := range res.Removed {
		resp.Removed = append(resp.Removed, st.String())
	}
	for _, e := range res.Rederived {
		resp.Rederived = append(resp.Rederived, e.Statement.String())
	}
	for _, c := range res.Conflicts {
		resp.Conflicts = append(resp.Conflicts, c.Error())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAssertionExplain serves the conflict-explanation API's read side:
// the chain of DDA-specified assertions implying the entry held for a pair.
func (s *Server) handleAssertionExplain(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	s1, s2, rel, err := pairParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	o1 := r.URL.Query().Get("object1")
	o2 := r.URL.Query().Get("object2")
	if o1 == "" || o2 == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: object1 and object2 query parameters required"))
		return
	}
	chain, found, err := ws.store.ExplainAssertion(s1, o1, s2, o2, rel)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: no assertion held between %s.%s and %s.%s", s1, o1, s2, o2))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"implied_by": chain})
}

func (s *Server) handleAssertionsList(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	s1, s2, rel, err := pairParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entries, err := ws.store.Assertions(s1, s2, rel)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	type entryJSON struct {
		Statement string `json:"statement"`
		Derived   bool   `json:"derived"`
	}
	out := []entryJSON{}
	for _, e := range entries {
		out = append(out, entryJSON{Statement: e.Statement.String(), Derived: e.Derived})
	}
	writeJSON(w, http.StatusOK, map[string]any{"assertions": out})
}

// --- integration: sync endpoint and job queue ---

// runIntegration executes one integration request against the workspace's
// store, timing it into the shared latency histogram and counting it under
// the workspace's name.
func (s *Server) runIntegration(ws *Workspace, req JobRequest) (*IntegrationResult, error) {
	start := time.Now()
	var (
		res *integrate.Result
		err error
	)
	switch req.Type {
	case "integrate":
		res, err = ws.store.Integrate(req.Schema1, req.Schema2)
	case "spec":
		res, err = ws.store.RunSpec(req.Spec)
	default:
		err = fmt.Errorf("server: unknown job type %q", req.Type)
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	s.metrics.IntegrationLatency.Observe(elapsed)
	s.metrics.ObserveIntegration(ws.name)
	return newIntegrationResult(res, elapsed)
}

func (s *Server) handleIntegrate(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Type == "" {
		req.Type = "integrate"
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	result, err := s.runIntegration(ws, req)
	if err != nil {
		var ierr *integrate.Error
		if errors.As(err, &ierr) {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, result)
}

// fallbackJobSeconds paces the backlog estimate when the latency histogram
// is still empty (a fresh server has measured nothing yet): assume one
// second per queued job rather than zero, which would compute a useless
// "Retry-After: 0".
const fallbackJobSeconds = 1.0

// retryAfterSeconds estimates how long a rejected submitter should back
// off before the workspace's queue has room: the current backlog divided
// across the worker pool, paced by the mean observed integration latency
// (fallbackJobSeconds when unmeasured), clamped to
// [minRetryAfterSeconds, maxRetryAfterSeconds].
func (s *Server) retryAfterSeconds(ws *Workspace) int {
	mean := s.metrics.IntegrationLatency.Mean()
	if mean <= 0 {
		mean = fallbackJobSeconds
	}
	depth := ws.queue.Depth()
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	return clampRetryAfter(int(mean*float64(depth)/float64(workers) + 0.5))
}

// jobPath is the URL a submitted job can be polled at. Jobs are namespaced
// per workspace: a submit through the workspace-scoped route points into
// that workspace, one through the unprefixed alias keeps the legacy
// unprefixed form (both address the same default-workspace job).
func jobPath(r *http.Request, id string) string {
	if ws := r.PathValue("ws"); ws != "" {
		return workspacePath(ws) + "/jobs/" + id
	}
	return "/v1/jobs/" + id
}

func (s *Server) handleJobsPost(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	job, err := ws.queue.Submit(req)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQuota):
			// The tenant's own envelope is full — unlike a full buffer this
			// clears only when the tenant's jobs finish, so the same backlog
			// estimate paces the retry.
			status = http.StatusTooManyRequests
			s.metrics.ObserveQuotaRejection()
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(ws)))
		case errors.Is(err, errQueueFull):
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(ws)))
		case errors.Is(err, errQueueClosed), journal.IsError(err):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Location", jobPath(r, job.ID))
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleJobsList(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": ws.queue.List()})
}

func (s *Server) handleJobGet(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := ws.queue.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q not found", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}
