package view

import (
	"context"
	"fmt"

	"hrdb/internal/algebra"
	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/hql"
)

// defKind classifies a view's defining query, which decides its maintenance
// strategy (see maintain in manager.go).
type defKind int

const (
	// kindExtension — EXTENSION <rel>: the flat atomic extension. The
	// flagship case: flattening is the paper's expensive read, and its
	// maintenance is O(delta) — a changed tuple re-evaluates only the
	// atoms it subsumes.
	kindExtension defKind = iota
	// kindSelect — SELECT FROM <rel> [WHERE ...], consolidated: a change
	// disjoint from the WHERE region is skipped, any other re-derives the
	// rows at or under the changed items (foldSelect).
	kindSelect
	// kindCount — COUNT <rel> [BY ...]: keeps the extension like
	// kindExtension and folds its atom delta into per-group counters.
	kindCount
	// kindMirror — an internal feed over a base relation's stored tuples,
	// backing SUBSCRIBE <relation>. Never user-created.
	kindMirror
)

// def is a compiled view definition.
type def struct {
	kind   defKind
	source string // the single base relation
	conds  []algebra.Condition
	by     []string
}

// compile parses and classifies a canonical defining query.
func compile(query string) (*def, error) {
	stmts, err := hql.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("view: defining query: %w", err)
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("view: defining query must be a single statement, got %d", len(stmts))
	}
	if err := hql.Materializable(stmts[0]); err != nil {
		return nil, err
	}
	switch st := stmts[0].(type) {
	case hql.ExtensionStmt:
		return &def{kind: kindExtension, source: st.Relation}, nil
	case hql.SelectStmt:
		conds := make([]algebra.Condition, len(st.Conds))
		for i, c := range st.Conds {
			conds[i] = algebra.Condition{Attr: c[0], Class: c[1]}
		}
		return &def{kind: kindSelect, source: st.Relation, conds: conds}, nil
	case hql.CountStmt:
		return &def{kind: kindCount, source: st.Relation, by: st.By}, nil
	default:
		return nil, fmt.Errorf("view: %T cannot define a view", st)
	}
}

// evalResult is one full evaluation of a view's defining query.
type evalResult struct {
	// rel is the view's relation form: the extension atoms (extension and
	// count views), the consolidated selection, or a mirror's copy of the
	// source's stored tuples.
	rel *core.Relation
	// pre is a select view's selection before consolidation.
	pre *core.Relation
	// counts is a count view's atoms per rendered group.
	counts map[string]int
	// domains names the hierarchies the result depends on; a mutation of
	// any of them invalidates incremental maintenance.
	domains map[string]bool
}

// eval runs a view's defining query from scratch against the current
// database state.
func eval(ctx context.Context, db *catalog.Database, name string, d *def) (evalResult, error) {
	src, err := db.Relation(d.source)
	if err != nil {
		return evalResult{}, err
	}
	schema := src.Schema()
	res := evalResult{domains: domainsOf(schema)}

	switch d.kind {
	case kindExtension, kindCount:
		ext, err := src.ExtensionContext(ctx)
		if err != nil {
			return evalResult{}, err
		}
		res.rel = core.NewRelation(name, schema)
		for _, it := range ext {
			if err := res.rel.Insert(it, true); err != nil {
				return evalResult{}, err
			}
		}
		if d.kind == kindExtension {
			break
		}
		group, err := d.grouper(src)
		if err != nil {
			return evalResult{}, err
		}
		res.counts = map[string]int{}
		if len(d.by) == 0 {
			res.counts[group(nil)] = 0 // an ungrouped count has a row even at zero
		}
		for _, it := range ext {
			res.counts[group(it)]++
		}

	case kindSelect:
		sel, err := algebra.SelectContext(ctx, name, src, d.conds...)
		if err != nil {
			return evalResult{}, err
		}
		res.pre, res.rel = sel, sel.Consolidate()

	case kindMirror:
		res.rel = src.Clone()

	default:
		return evalResult{}, fmt.Errorf("view: unknown kind %d", d.kind)
	}
	return res, nil
}

// domainsOf names the hierarchies a schema's attributes range over.
func domainsOf(schema *core.Schema) map[string]bool {
	domains := map[string]bool{}
	for i := 0; i < schema.Arity(); i++ {
		domains[schema.Attr(i).Domain.Domain()] = true
	}
	return domains
}

// grouper returns the function rendering the group an atom of src counts
// toward: its BY coordinates as an item, or "count" when ungrouped.
func (d *def) grouper(src *core.Relation) (func(core.Item) string, error) {
	cols := make([]int, len(d.by))
	for i, a := range d.by {
		j, ok := src.Schema().Index(a)
		if !ok {
			return nil, fmt.Errorf("%w: count: no attribute %q in %q", core.ErrUnknownAttribute, a, src.Name())
		}
		cols[i] = j
	}
	return func(it core.Item) string {
		if len(cols) == 0 {
			return "count"
		}
		g := make(core.Item, len(cols))
		for i, c := range cols {
			g[i] = it[c]
		}
		return g.String()
	}, nil
}

func countRow(group string, n int) string { return fmt.Sprintf("%s = %d", group, n) }
