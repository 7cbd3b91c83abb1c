package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/batch"
	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/integrate"
	"repro/internal/workload"
)

// equivReq and assertReq are the wire bodies of POST /equivalences and
// POST /assertions.
type equivReq struct {
	Schema1 string `json:"schema1"`
	Attr1   string `json:"attr1"`
	Schema2 string `json:"schema2"`
	Attr2   string `json:"attr2"`
}

type assertReq struct {
	Schema1      string `json:"schema1"`
	Object1      string `json:"object1"`
	Code         int    `json:"code"`
	Schema2      string `json:"schema2"`
	Object2      string `json:"object2"`
	Relationship bool   `json:"relationship,omitempty"`
}

// queryReq is the wire body of POST /query.
type queryReq struct {
	Integration string `json:"integration"`
	Direction   string `json:"direction,omitempty"`
	Query       struct {
		Schema string `json:"schema"`
		Object string `json:"object"`
	} `json:"query"`
}

// rowsReq is the wire body of POST /rows.
type rowsReq struct {
	Schema    string         `json:"schema"`
	Structure string         `json:"structure"`
	Rows      []instance.Row `json:"rows"`
}

// formSource is one schema in one frontend language, as POST /schemas takes
// it.
type formSource struct {
	Source string `json:"source"`
	Format string `json:"format"`
	Name   string `json:"name"`
}

// pairInputs is one generated schema pair and everything the DDA flow sends
// for it, plus the oracle answers the checks compare against.
type pairInputs struct {
	w      *workload.Workload
	ddl    string // both schemas in dictionary DDL
	equivs []equivReq
	objs   []assertReq
	rels   []assertReq
	spec   string // batch spec carrying the oracle equivalences and assertions

	oracleDDL string // ecr.FormatSchema of integrate.Integrate on the oracle
	specDDL   string // ecr.FormatSchema of batch.Run on spec

	// Rows and queries for the federated-query phase: componentRows go
	// into component object viewObject, integratedRows into the integrated
	// object it maps to; each query must answer exactly the rows loaded on
	// the side it reads.
	integrated     string
	viewObject     string
	targetObject   string
	componentRows  []instance.Row
	integratedRows []instance.Row
}

// pairConfig sizes a generated pair: objects per schema, four attributes
// each, a third as many relationship sets.
func pairConfig(seed int64, objects int) workload.Config {
	cfg := workload.DefaultConfig(seed)
	cfg.Objects = objects
	cfg.Relationships = objects / 3
	return cfg
}

const rowsPerLoad = 24

func newPairInputs(seed int64, objects int) (*pairInputs, error) {
	w, err := workload.Generate(pairConfig(seed, objects))
	if err != nil {
		return nil, err
	}
	p := &pairInputs{w: w, ddl: ecr.FormatSchemas([]*ecr.Schema{w.S1, w.S2})}

	var spec strings.Builder
	spec.WriteString("schemas w1 w2\n")
	for _, class := range w.Registry.Classes() {
		var a, b []ecr.AttrRef
		for _, ref := range class {
			if ref.Schema == w.S1.Name {
				a = append(a, ref)
			} else {
				b = append(b, ref)
			}
		}
		for _, x := range a {
			for _, y := range b {
				p.equivs = append(p.equivs, equivReq{
					Schema1: x.Schema, Attr1: x.Object + "." + x.Attr,
					Schema2: y.Schema, Attr2: y.Object + "." + y.Attr,
				})
				fmt.Fprintf(&spec, "equiv %s.%s = %s.%s\n", x.Object, x.Attr, y.Object, y.Attr)
			}
		}
	}
	for _, e := range w.Objects.Entries() {
		if e.Derived {
			continue
		}
		p.objs = append(p.objs, assertReq{Schema1: e.A.Schema, Object1: e.A.Object, Code: e.Kind.Code(),
			Schema2: e.B.Schema, Object2: e.B.Object})
		fmt.Fprintf(&spec, "assert %s %d %s\n", e.A.Object, e.Kind.Code(), e.B.Object)
	}
	for _, e := range w.Relationships.Entries() {
		if e.Derived {
			continue
		}
		p.rels = append(p.rels, assertReq{Schema1: e.A.Schema, Object1: e.A.Object, Code: e.Kind.Code(),
			Schema2: e.B.Schema, Object2: e.B.Object, Relationship: true})
		fmt.Fprintf(&spec, "rel-assert %s %d %s\n", e.A.Object, e.Kind.Code(), e.B.Object)
	}
	p.spec = spec.String()

	res, err := integrate.Integrate(integrate.Input{
		S1: w.S1, S2: w.S2, Registry: w.Registry, Objects: w.Objects, Relationships: w.Relationships,
	})
	if err != nil {
		return nil, fmt.Errorf("oracle integration: %w", err)
	}
	p.oracleDDL = ecr.FormatSchema(res.Schema)
	parsed, err := batch.ParseSpec(p.spec)
	if err != nil {
		return nil, fmt.Errorf("oracle spec: %w", err)
	}
	specRes, err := batch.Run([]*ecr.Schema{w.S1, w.S2}, parsed)
	if err != nil {
		return nil, fmt.Errorf("oracle spec run: %w", err)
	}
	p.specDDL = ecr.FormatSchema(specRes.Schema)

	if err := p.pickRows(seed, res); err != nil {
		return nil, err
	}
	return p, nil
}

// pickRows chooses the first object private to the first schema (it maps
// one-to-one into the integrated schema) and generates rows for both sides
// of it.
func (p *pairInputs) pickRows(seed int64, res *integrate.Result) error {
	p.integrated = res.Schema.Name
	for _, o := range p.w.S1.Objects {
		if p.asserted(o.Name) {
			continue
		}
		target, ok := res.Mappings.TargetObject(ecr.ObjectRef{Schema: p.w.S1.Name, Object: o.Name, Kind: o.Kind})
		if !ok {
			continue
		}
		to := res.Schema.Object(target)
		if to == nil {
			continue
		}
		p.viewObject, p.targetObject = o.Name, target
		rng := rand.New(rand.NewSource(seed))
		p.componentRows = genRows(rng, o.Attributes, "c")
		p.integratedRows = genRows(rng, to.Attributes, "i")
		return nil
	}
	return fmt.Errorf("generated pair has no private object to load rows into")
}

// asserted reports whether an oracle assertion relates the first schema's
// object to an object of the second.
func (p *pairInputs) asserted(object string) bool {
	for _, a := range p.objs {
		if a.Object1 == object {
			return true
		}
	}
	return false
}

func genRows(rng *rand.Rand, attrs []ecr.Attribute, prefix string) []instance.Row {
	rows := make([]instance.Row, rowsPerLoad)
	for i := range rows {
		row := instance.Row{}
		for j, a := range attrs {
			if j == 0 || a.Key {
				row[a.Name] = fmt.Sprintf("%s%04d", prefix, i)
				continue
			}
			row[a.Name] = fmt.Sprintf("%d", rng.Intn(1000))
		}
		rows[i] = row
	}
	return rows
}

// rowValues reduces rows to a sorted list of their sorted values, so rows
// compare equal whatever the attribute names they travel under.
func rowValues(rows []instance.Row) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		vals := make([]string, 0, len(r))
		for _, v := range r {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		out = append(out, strings.Join(vals, "\x1f"))
	}
	sort.Strings(out)
	return out
}

// queries returns the two POST /query bodies of the flow, the integrated
// schema read down to the components and the component view read up
// through the integrated schema, each with the rows it must answer.
func (p *pairInputs) queries(integration string) ([2]queryReq, [2][]instance.Row) {
	var down, up queryReq
	down.Integration, down.Direction = integration, "integrated_to_components"
	down.Query.Schema, down.Query.Object = p.integrated, p.targetObject
	up.Integration, up.Direction = integration, "view_to_integrated"
	up.Query.Schema, up.Query.Object = p.w.S1.Name, p.viewObject
	return [2]queryReq{down, up}, [2][]instance.Row{p.componentRows, p.integratedRows}
}

// formsInputs renders one generated schema in the three non-dictionary
// frontends.
func formsInputs(seed int64, objects int) (map[string]formSource, error) {
	f, err := workload.GenerateForms(workload.FormsConfig{
		Seed: seed, Objects: objects, AttrsPerObject: 4, Refs: objects / 3,
	})
	if err != nil {
		return nil, err
	}
	return map[string]formSource{
		"sql":        {Source: f.SQL, Format: "sql", Name: f.Name},
		"jsonschema": {Source: f.JSONSchema, Format: "jsonschema", Name: f.Name},
		"avro":       {Source: f.Avro, Format: "avro", Name: f.Name},
	}, nil
}

// frontendOrder is the rotation of the uploaded forms schema's language.
var frontendOrder = []string{"sql", "jsonschema", "avro"}

// pairPool generates n pairs from seeds drawn from seed. A run spreads its
// work over the pool, so its medians describe the generator's population
// rather than one draw, and runs on different seeds agree.
func pairPool(seed int64, n, objects int) ([]*pairInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]*pairInputs, n)
	for i := range pairs {
		p, err := newPairInputs(rng.Int63(), objects)
		if err != nil {
			return nil, err
		}
		pairs[i] = p
	}
	return pairs, nil
}
