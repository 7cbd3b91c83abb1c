package server

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/mapping"
)

// Query translation directions (QueryResult.Direction and the /query
// request's direction field).
const (
	DirViewToIntegrated       = "view_to_integrated"
	DirIntegratedToComponents = "integrated_to_components"
)

// savedIntegration is one persisted integration result: the materialized
// integrated schema plus the component-to-integrated mapping table, saved
// under a name so queries can be translated through it long after the
// integration ran. Both pieces are journaled verbatim (saveIntegrationRec),
// so replay installs exactly what was saved without re-running the
// integration.
type savedIntegration struct {
	name             string
	schema1, schema2 string
	schema           *ecr.Schema
	table            *mapping.Table
}

// IntegrationInfo summarizes one saved integration for listings.
type IntegrationInfo struct {
	Name string `json:"name"`
	// Schema is the integrated schema's name (queries against it fan out to
	// the components).
	Schema     string   `json:"schema"`
	Components []string `json:"components"`
	Objects    int      `json:"objects"`
	Attrs      int      `json:"attrs"`
}

func (si *savedIntegration) info() IntegrationInfo {
	return IntegrationInfo{
		Name:       si.name,
		Schema:     si.schema.Name,
		Components: si.table.Components,
		Objects:    len(si.table.Objects),
		Attrs:      len(si.table.Attrs),
	}
}

// SaveIntegration integrates the two named schemas and persists the result —
// integrated schema plus mapping table — under the given name. Saving the
// same name again overwrites it (last write wins, on replay too). The
// integration itself runs outside the lock through the generation-cached
// Integrate; only the save is journaled.
func (st *Store) SaveIntegration(name, schema1, schema2 string) (IntegrationInfo, error) {
	if name == "" {
		return IntegrationInfo{}, fmt.Errorf("server: integration needs a name")
	}
	res, err := st.Integrate(schema1, schema2)
	if err != nil {
		return IntegrationInfo{}, err
	}
	schemaJSON, err := ecr.EncodeJSON(res.Schema)
	if err != nil {
		return IntegrationInfo{}, err
	}
	tableJSON, err := mapping.EncodeJSON(res.Mappings)
	if err != nil {
		return IntegrationInfo{}, err
	}
	rec := &saveIntegrationRec{
		Name: name, Schema1: schema1, Schema2: schema2,
		Schema: schemaJSON, Table: tableJSON,
	}
	if err := rec.decode(); err != nil {
		return IntegrationInfo{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.commit(rec); err != nil {
		return IntegrationInfo{}, err
	}
	return rec.si.info(), nil
}

// Integrations lists the saved integrations sorted by name.
func (st *Store) Integrations() []IntegrationInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]IntegrationInfo, 0, len(st.integrations))
	for _, name := range st.integrationNamesLocked() {
		out = append(out, st.integrations[name].info())
	}
	return out
}

// integrationNamesLocked returns the saved integration names sorted.
//
//sit:rlocked mu
func (st *Store) integrationNamesLocked() []string {
	names := make([]string, 0, len(st.integrations))
	for name := range st.integrations {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Integration returns a saved integration's schema (cloned) and mapping
// table. The table is shared and must be treated as read-only.
func (st *Store) Integration(name string) (*ecr.Schema, *mapping.Table, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	si := st.integrations[name]
	if si == nil {
		return nil, nil, fmt.Errorf("server: integration %q %w", name, ErrNotFound)
	}
	return si.schema.Clone(), si.table, nil
}

// LoadRows inserts a batch of rows into the instance store of the named
// schema — a component schema of the workspace, or the materialized schema
// of a saved integration (resolved in that order). The batch is validated,
// then journaled, then applied, so a journaled batch always replays; total
// is the structure's row count after the insert.
func (st *Store) LoadRows(schemaName, structure string, rows []instance.Row) (total int, err error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("server: no rows in request")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	is, err := st.instanceForLocked(schemaName)
	if err != nil {
		return 0, err
	}
	if err := is.ValidateRows(structure, rows); err != nil {
		return 0, err
	}
	rec := &loadRowsRec{Schema: schemaName, Structure: structure, Rows: rows}
	if err := st.commit(rec); err != nil {
		return 0, err
	}
	return rec.total, nil
}

// instanceForLocked resolves (creating on first touch) the instance store
// for a schema name: an existing store, else one over the schema the name
// denotes.
//
//sit:locked mu
func (st *Store) instanceForLocked(schemaName string) (*instance.Store, error) {
	if is := st.instances[schemaName]; is != nil {
		return is, nil
	}
	schema := st.resolveSchemaLocked(schemaName)
	if schema == nil {
		return nil, fmt.Errorf("server: schema %q %w (neither a component schema nor a saved integration's schema)", schemaName, ErrNotFound)
	}
	is, err := instance.NewStore(schema.Clone())
	if err != nil {
		return nil, err
	}
	st.instances[schemaName] = is
	return is, nil
}

// resolveSchemaLocked returns the schema a name denotes: a workspace
// component schema, else the materialized schema of a saved integration
// (the first by integration name), else nil.
//
//sit:rlocked mu
func (st *Store) resolveSchemaLocked(name string) *ecr.Schema {
	if s := st.ws.Schema(name); s != nil {
		return s
	}
	for _, n := range st.integrationNamesLocked() {
		if si := st.integrations[n]; si.schema.Name == name {
			return si.schema
		}
	}
	return nil
}

// pruneStaleLocked drops the instance store and row batches of a schema
// name that no longer denotes the schema its rows were loaded under — a
// saved integration overwritten by a different one, or an integration's
// schema shadowed by a new component schema. A snapshot rebuilds instance
// stores from what their names denote now, so rows under a superseded
// schema could not be restored from it.
//
//sit:locked mu
func (st *Store) pruneStaleLocked(name string) {
	is := st.instances[name]
	if is == nil {
		return
	}
	if cur := st.resolveSchemaLocked(name); cur != nil {
		a, errA := ecr.EncodeJSON(cur)
		b, errB := ecr.EncodeJSON(is.Schema())
		if errA == nil && errB == nil && bytes.Equal(a, b) {
			return
		}
	}
	st.pruneFederationLocked(name)
}

// pruneFederationLocked drops the instance store and row batches of a
// removed schema, so the remove record prunes the same state on replay that
// it pruned live. Saved integrations are materialized copies and survive
// their components.
//
//sit:locked mu
func (st *Store) pruneFederationLocked(name string) {
	delete(st.instances, name)
	var kept []loadRowsRec
	for _, r := range st.rowLog {
		if r.Schema != name {
			kept = append(kept, r)
		}
	}
	st.rowLog = kept
}

// QueryResult is the outcome of translating (and, when the instance data is
// loaded, executing) one federated query through a saved mapping table.
type QueryResult struct {
	Direction string
	// Queries are the rewritten queries: one against the integrated schema
	// (view_to_integrated), or one per contributing component
	// (integrated_to_components).
	Queries []mapping.Query
	// Skipped reports components that could not answer (missing attributes).
	Skipped []string
	// Rows holds the merged results when Executed; nil otherwise.
	Rows []instance.Row
	// Executed reports whether the rewritten queries ran against loaded
	// instance stores, or the translation alone is returned (see Notes).
	Executed bool
	Notes    []string
}

// TranslateQuery rewrites a query through a saved integration's mapping
// table — the paper's request translation made operational over HTTP. The
// direction defaults by the query's schema: a query phrased against the
// integrated schema fans out to the components (global schema design
// context); anything else is treated as a component view and lifted to the
// integrated schema (logical database design context). When the instance
// stores the rewritten queries need are loaded, the queries also execute
// and the merged rows come back.
func (st *Store) TranslateQuery(integration string, q mapping.Query, direction string) (*QueryResult, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	si := st.integrations[integration]
	if si == nil {
		return nil, fmt.Errorf("server: integration %q %w", integration, ErrNotFound)
	}
	if direction == "" {
		if q.Schema == si.table.Integrated {
			direction = DirIntegratedToComponents
		} else {
			direction = DirViewToIntegrated
		}
	}
	res := &QueryResult{Direction: direction}
	switch direction {
	case DirViewToIntegrated:
		rewritten, err := mapping.ViewToIntegrated(q, si.table)
		if err != nil {
			return nil, err
		}
		res.Queries = []mapping.Query{rewritten}
		is := st.instances[si.table.Integrated]
		if is == nil {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"no rows loaded for integrated schema %q; returning the translation only", si.table.Integrated))
			return res, nil
		}
		exec, err := instance.NewViewExecutor(is, si.table)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Query(q)
		if err != nil {
			return nil, err
		}
		res.Rows, res.Executed = rows, true
	case DirIntegratedToComponents:
		subs, skipped, err := mapping.IntegratedToComponents(q, si.table, si.schema)
		if err != nil {
			return nil, err
		}
		res.Queries, res.Skipped = subs, skipped
		// Execute only when at least one component has rows loaded; a
		// component with no rows still answers (emptily) through a fresh
		// store over its schema, but a component whose schema is gone
		// cannot, and then only the translation is returned.
		components := map[string]*instance.Store{}
		loaded := 0
		for _, name := range si.table.Components {
			if is := st.instances[name]; is != nil {
				components[name] = is
				loaded++
				continue
			}
			if s := st.ws.Schema(name); s != nil {
				if is, err := instance.NewStore(s.Clone()); err == nil {
					components[name] = is
					continue
				}
			}
			res.Notes = append(res.Notes, fmt.Sprintf(
				"component %q has no instance store; returning the translation only", name))
		}
		if loaded == 0 || len(res.Notes) > 0 {
			if len(res.Notes) == 0 {
				res.Notes = append(res.Notes, "no component rows loaded; returning the translation only")
			}
			return res, nil
		}
		fed, err := instance.NewFederation(si.schema, si.table, components)
		if err != nil {
			return nil, err
		}
		rows, _, err := fed.Query(q)
		if err != nil {
			return nil, err
		}
		res.Rows, res.Executed = rows, true
	default:
		return nil, fmt.Errorf("server: unknown direction %q (want %s or %s)",
			direction, DirViewToIntegrated, DirIntegratedToComponents)
	}
	return res, nil
}

// integrationRecsLocked re-materializes the saved integrations to their
// record form for a snapshot.
//
//sit:locked mu
func (st *Store) integrationRecsLocked() ([]saveIntegrationRec, error) {
	var ints []saveIntegrationRec
	for _, name := range st.integrationNamesLocked() {
		si := st.integrations[name]
		schemaJSON, err := ecr.EncodeJSON(si.schema)
		if err != nil {
			return nil, err
		}
		tableJSON, err := mapping.EncodeJSON(si.table)
		if err != nil {
			return nil, err
		}
		ints = append(ints, saveIntegrationRec{
			Name: si.name, Schema1: si.schema1, Schema2: si.schema2,
			Schema: schemaJSON, Table: tableJSON,
		})
	}
	return ints, nil
}
