// Package algebra implements the standard relational operators — selection,
// projection, natural join, union, intersection, difference, rename — on
// the hierarchical relations of the core package (§3.4 of Jagadish,
// SIGMOD '89).
//
// The paper requires each operator to have flat-extension semantics: a
// hierarchical relation is equivalent to a unique flat relation, and an
// operator applied to hierarchical relations must yield a relation whose
// extension equals the flat operator applied to the arguments' extensions.
//
// The implementation strategy is uniform:
//
//  1. Candidates — the result's tuples are placed at the items of the
//     argument tuples and at the pairwise meets (maximal common subsumees)
//     of argument tuples, so every region where the result's truth value
//     can change carries a tuple.
//  2. Pointwise evaluation — each candidate's sign is computed by
//     evaluating the arguments at the candidate item and combining the
//     values with the operator's boolean function.
//  3. Repair — if the candidate placement leaves an ambiguity conflict
//     (possible when incomparable candidates disagree), a resolving tuple
//     with the pointwise-correct sign is inserted at each conflicting item
//     until the result is consistent.
//
// As in the paper's examples, results may contain redundant tuples; apply
// Consolidate to obtain the minimum form.
package algebra

import (
	"context"
	"errors"
	"fmt"

	"hrdb/internal/core"
)

// maxRepairRounds bounds the conflict-repair loop; each round pins at least
// one item with an exact tuple, so realistic inputs converge in one or two
// rounds.
const maxRepairRounds = 64

// ErrRepairDiverged indicates that the conflict-repair loop did not reach a
// consistent result within maxRepairRounds.
var ErrRepairDiverged = errors.New("algebra: conflict repair did not converge")

// batchEval returns the operator's truth value at each of the given items,
// positionally. Implementations evaluate the argument relations through
// the core batch API, so candidate signing fans out across cores.
type batchEval func(ctx context.Context, items []core.Item) ([]bool, error)

// combine builds a result over schema s with candidate items cand; the sign
// of every tuple is the operator's boolean function evaluated on the
// argument relations at that item, computed in bulk by eval.
func combine(ctx context.Context, name string, s *core.Schema, cand []core.Item, eval batchEval) (*core.Relation, error) {
	out := core.NewRelation(name, s)
	_, err := fill(ctx, out, cand, eval, out.Conflicts)
	return out, err
}

// fill places a pointwise-signed tuple in out at every candidate item it has
// none on, then repairs until conflicts() is empty, and returns the items it
// placed tuples on.
func fill(ctx context.Context, out *core.Relation, cand []core.Item, eval batchEval, conflicts func() []*core.ConflictError) ([]core.Item, error) {
	var placed []core.Item
	for round := 0; ; round++ {
		seen := map[string]bool{}
		var todo []core.Item
		for _, m := range cand {
			if _, present := out.Lookup(m); present || seen[m.Key()] {
				continue
			}
			seen[m.Key()] = true
			todo = append(todo, m)
		}
		signs, err := eval(ctx, todo)
		if err != nil {
			return placed, err
		}
		for i, m := range todo {
			if err := out.Insert(m, signs[i]); err != nil {
				return placed, err
			}
		}
		placed = append(placed, todo...)
		// Repair: resolve residual ambiguity with pointwise-correct tuples.
		cs := conflicts()
		if len(cs) == 0 {
			return placed, nil
		}
		if round >= maxRepairRounds {
			return placed, fmt.Errorf("%w: %s after %d rounds", ErrRepairDiverged, out.Name(), maxRepairRounds)
		}
		cand = nil
		for _, c := range cs {
			cand = append(cand, c.Item)
		}
	}
}

// binaryCandidates returns the tuple items of both relations plus every
// pairwise meet.
func binaryCandidates(a, b *core.Relation) []core.Item {
	var out []core.Item
	at := a.Tuples()
	bt := b.Tuples()
	for _, t := range at {
		out = append(out, t.Item)
	}
	for _, t := range bt {
		out = append(out, t.Item)
	}
	for _, ta := range at {
		for _, tb := range bt {
			out = append(out, a.MinimalResolutionSet(ta.Item, tb.Item)...)
		}
	}
	return out
}

// checkUnionCompatible verifies the two relations share a schema.
func checkUnionCompatible(op string, a, b *core.Relation) error {
	if !a.Schema().Equal(b.Schema()) {
		return fmt.Errorf("%w: %s of %q and %q", core.ErrIncompatible, op, a.Name(), b.Name())
	}
	return nil
}

// setOp runs a binary boolean set operation with flat-extension semantics.
// Candidate items are signed by evaluating both arguments in bulk through
// the core batch evaluator.
func setOp(ctx context.Context, name, op string, a, b *core.Relation, f func(x, y bool) bool) (*core.Relation, error) {
	if err := checkUnionCompatible(op, a, b); err != nil {
		return nil, err
	}
	eval := func(ctx context.Context, items []core.Item) ([]bool, error) {
		xs, err := a.HoldsBatch(ctx, items)
		if err != nil {
			return nil, fmt.Errorf("algebra: %s: left argument: %w", op, err)
		}
		ys, err := b.HoldsBatch(ctx, items)
		if err != nil {
			return nil, fmt.Errorf("algebra: %s: right argument: %w", op, err)
		}
		out := make([]bool, len(items))
		for i := range items {
			out[i] = f(xs[i], ys[i])
		}
		return out, nil
	}
	return combine(ctx, name, a.Schema(), binaryCandidates(a, b), eval)
}

// Union returns a relation whose extension is Ext(a) ∪ Ext(b) (Fig. 10c).
func Union(name string, a, b *core.Relation) (*core.Relation, error) {
	return UnionContext(context.Background(), name, a, b)
}

// UnionContext is Union with cancellation.
func UnionContext(ctx context.Context, name string, a, b *core.Relation) (*core.Relation, error) {
	return setOp(ctx, name, "union", a, b, func(x, y bool) bool { return x || y })
}

// Intersect returns a relation whose extension is Ext(a) ∩ Ext(b)
// (Fig. 10d).
func Intersect(name string, a, b *core.Relation) (*core.Relation, error) {
	return IntersectContext(context.Background(), name, a, b)
}

// IntersectContext is Intersect with cancellation.
func IntersectContext(ctx context.Context, name string, a, b *core.Relation) (*core.Relation, error) {
	return setOp(ctx, name, "intersect", a, b, func(x, y bool) bool { return x && y })
}

// Difference returns a relation whose extension is Ext(a) − Ext(b)
// (Fig. 10e/f).
func Difference(name string, a, b *core.Relation) (*core.Relation, error) {
	return DifferenceContext(context.Background(), name, a, b)
}

// DifferenceContext is Difference with cancellation.
func DifferenceContext(ctx context.Context, name string, a, b *core.Relation) (*core.Relation, error) {
	return setOp(ctx, name, "difference", a, b, func(x, y bool) bool { return x && !y })
}

// Condition restricts one attribute to a class (or instance) of its domain.
type Condition struct {
	Attr  string
	Class string
}

// Select restricts the relation to the sub-hierarchy under the given
// conditions: the result's extension is exactly the argument's extension
// narrowed to atoms whose selected attributes fall under the given classes
// (Figs. 7 and 8). Conditions on the same attribute intersect.
func Select(name string, r *core.Relation, conds ...Condition) (*core.Relation, error) {
	return SelectContext(context.Background(), name, r, conds...)
}

// SelectContext is Select with cancellation. Candidate enumeration goes
// through the cost-based planner (plan.go): a conditioned column whose
// posting lists are selective enough is probed through the secondary index,
// otherwise the stored tuples are scanned. Both paths enumerate the same
// candidate set; WithForceScan pins the scan for reference runs.
func SelectContext(ctx context.Context, name string, r *core.Relation, conds ...Condition) (*core.Relation, error) {
	region, err := selectRegion(r, conds)
	if err != nil {
		return nil, err
	}
	plan := planSelect(r, region)
	var tuples []core.Tuple
	if plan.Access == IndexProbe && !scanForced(ctx) {
		tuples = r.OverlapCandidates(plan.attr, region[plan.attr])
	} else {
		tuples = r.Tuples()
	}
	return combine(ctx, name, r.Schema(), selectCandidates(r, region, tuples), selectEval(r, region))
}

// selectCandidates returns where a selection places tuples: the region item
// (it acts as a one-tuple positive relation ANDed with r), the items of those
// of the given tuples that overlap it, and their meets with it. A tuple that
// does not overlap the region contributes nothing: every positive result
// tuple lies under the region, so it can never sit below a positive one.
func selectCandidates(r *core.Relation, region core.Item, tuples []core.Tuple) []core.Item {
	kept := []core.Item{region}
	for _, t := range tuples {
		if r.Overlapping(t.Item, region) {
			kept = append(append(kept, t.Item), r.MinimalResolutionSet(t.Item, region)...)
		}
	}
	return kept
}

// selectEval signs a selection's tuples: r holds at the item and the region
// subsumes it.
func selectEval(r *core.Relation, region core.Item) batchEval {
	return func(ctx context.Context, items []core.Item) ([]bool, error) {
		out, err := r.HoldsBatch(ctx, items)
		if err != nil {
			return nil, fmt.Errorf("algebra: select: %w", err)
		}
		for i, m := range items {
			out[i] = out[i] && r.Subsumes(region, m)
		}
		return out, nil
	}
}

// Reselect brings sel — what SelectContext returned for r before r's tuples
// on the changed items were inserted, retracted or re-signed — to what it
// returns now, rewriting only the tuples at or under a changed item that
// overlaps the region: candidates, signs and repairs can differ nowhere else
// (docs/THEORY.md §4, view corollary). It returns the items it dropped or
// placed a tuple on, each once; none means the change is disjoint from the
// region.
func Reselect(ctx context.Context, sel, r *core.Relation, changed []core.Item, conds ...Condition) ([]core.Item, error) {
	region, err := selectRegion(r, conds)
	if err != nil {
		return nil, err
	}
	var live []core.Item
	for _, d := range changed {
		if r.Overlapping(d, region) {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		return nil, nil
	}
	under := func(m core.Item) bool {
		for _, d := range live {
			if r.Subsumes(d, m) {
				return true
			}
		}
		return false
	}
	var touched, cand []core.Item
	dropped := map[string]bool{}
	for _, t := range sel.TuplesOverlapping(live) {
		if under(t.Item) {
			sel.Retract(t.Item)
			touched = append(touched, t.Item)
			dropped[t.Item.Key()] = true
		}
	}
	for _, m := range selectCandidates(r, region, r.TuplesOverlapping(live)) {
		if under(m) {
			cand = append(cand, m)
		}
	}
	placed, err := fill(ctx, sel, cand, selectEval(r, region), func() []*core.ConflictError { return sel.ConflictsUnder(live) })
	for _, m := range placed {
		if !dropped[m.Key()] {
			touched = append(touched, m)
		}
	}
	return touched, err
}

// Rename returns a copy of the relation with attributes renamed according
// to the mapping (attributes not mentioned keep their names). Domains are
// unchanged.
func Rename(name string, r *core.Relation, mapping map[string]string) (*core.Relation, error) {
	s := r.Schema()
	attrs := make([]core.Attribute, s.Arity())
	for i := 0; i < s.Arity(); i++ {
		a := s.Attr(i)
		if n, ok := mapping[a.Name]; ok {
			a.Name = n
		}
		attrs[i] = a
	}
	ns, err := core.NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	out := core.NewRelation(name, ns)
	out.SetMode(r.Mode())
	for _, t := range r.Tuples() {
		if err := out.Insert(t.Item, t.Sign); err != nil {
			return nil, err
		}
	}
	return out, nil
}
