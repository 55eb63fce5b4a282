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
//     until the result is consistent. Selection skips the sweep where
//     docs/THEORY.md §5 proves it finds nothing.
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
// placed tuples on. Unless binding order is is-a order, a repair tuple can
// outrank by preference a tuple it does not subsume at an atom under it that
// no conflict names, so the atoms under the repairs are then checked (pin).
func fill(ctx context.Context, out *core.Relation, cand []core.Item, eval batchEval, conflicts func() []*core.ConflictError) ([]core.Item, error) {
	var placed, repairs []core.Item
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
		if round > 0 {
			repairs = append(repairs, todo...)
		}
		// Repair: resolve residual ambiguity with pointwise-correct tuples.
		cs := conflicts()
		if len(cs) == 0 {
			if len(repairs) == 0 || isaBinding(out) {
				return placed, nil
			}
			pinned, err := pin(ctx, out, repairs, eval)
			return append(placed, pinned...), err
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

// pin gives each atom under the repair items where out and eval differ an
// exact tuple of eval's sign, and returns those atoms. An atom's own tuple
// binds it strongest and applies nowhere else, so one pass settles them.
func pin(ctx context.Context, out *core.Relation, repairs []core.Item, eval batchEval) ([]core.Item, error) {
	s := out.Schema()
	seen := map[string]bool{}
	var atoms, pinned []core.Item
	for _, m := range repairs {
		leaves := make([][]string, len(m))
		for i, v := range m {
			leaves[i] = s.Attr(i).Domain.Leaves(v)
		}
		for _, a := range core.Product(leaves) {
			if k := a.Key(); !seen[k] {
				seen[k] = true
				atoms = append(atoms, a)
			}
		}
	}
	have, err := out.HoldsBatch(ctx, atoms)
	if err != nil {
		return nil, err
	}
	want, err := eval(ctx, atoms)
	if err != nil {
		return nil, err
	}
	for i, a := range atoms {
		if have[i] != want[i] {
			if err := out.Insert(a, want[i]); err != nil {
				return pinned, err
			}
			pinned = append(pinned, a)
		}
	}
	return pinned, nil
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
// candidate set; WithForceScan pins the scan for reference runs. The result
// repair is skipped where docs/THEORY.md §5 proves it finds nothing.
func SelectContext(ctx context.Context, name string, r *core.Relation, conds ...Condition) (*core.Relation, error) {
	region, err := SelectRegion(r, conds...)
	if err != nil {
		return nil, err
	}
	plan := planSelect(r, region)
	var tuples []core.Tuple
	if plan.Access == IndexProbe && !ScanForced(ctx) {
		tuples = r.OverlapCandidates(plan.attr, region[plan.attr])
	} else {
		tuples = r.Tuples()
	}
	out := core.NewRelation(name, r.Schema())
	cand, disjoint := selectCandidates(r, region, tuples)
	conflicts := out.Conflicts
	if disjoint && r.Mode() == core.OffPath && r.VerifiedConsistent() && isaBinding(r) {
		conflicts = func() []*core.ConflictError { return nil }
	}
	_, err = fill(ctx, out, cand, selectEval(r, region), conflicts)
	return out, err
}

// selectCandidates returns where a selection places tuples: the region item
// (it acts as a one-tuple positive relation ANDed with r) and the meets of
// the given tuples with it, none for a tuple that does not overlap it. Each
// such tuple's own item is added too unless isaBinding(r): under the region
// it is its own meet, and elsewhere it is signed false and lies above its
// meets, so in is-a binding order it binds nothing under the region and
// Consolidate drops it. disjoint reports whether each tuple's meets are
// pairwise disjoint, a premise of docs/THEORY.md §5.
func selectCandidates(r *core.Relation, region core.Item, tuples []core.Tuple) (cand []core.Item, disjoint bool) {
	cand, disjoint = []core.Item{region}, true
	isa := isaBinding(r)
	for _, t := range tuples {
		meets := r.MinimalResolutionSet(t.Item, region)
		if len(meets) > 0 && !isa {
			cand = append(cand, t.Item)
		}
		disjoint = disjoint && (len(meets) < 2 || disjointMeets(r, meets))
		cand = append(cand, meets...)
	}
	return cand, disjoint
}

// disjointMeets reports whether no two items of a minimal resolution set
// overlap. They are pairwise incomparable, and an atom overlaps only what
// subsumes it, so only pairs of non-atomic items are tested.
func disjointMeets(r *core.Relation, meets []core.Item) bool {
	var classes []core.Item
	for _, m := range meets {
		if !r.IsAtomic(m) {
			for _, c := range classes {
				if r.Overlapping(c, m) {
					return false
				}
			}
			classes = append(classes, m)
		}
	}
	return true
}

// isaBinding reports whether binding order is is-a order for r: no attribute
// has preference edges, and every binding graph is irredundant.
func isaBinding(r *core.Relation) bool {
	s := r.Schema()
	for i := 0; i < s.Arity(); i++ {
		if h := s.Attr(i).Domain; h.HasPreferences() || !h.BindingIrredundant() {
			return false
		}
	}
	return true
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
	region, err := SelectRegion(r, conds...)
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
	all, _ := selectCandidates(r, region, r.TuplesOverlapping(live))
	for _, m := range all {
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
