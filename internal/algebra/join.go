package algebra

import (
	"context"
	"fmt"
	"slices"

	"hrdb/internal/core"
)

// Join computes the natural join of two hierarchical relations over their
// shared attribute names (Fig. 11b). Shared attributes must be drawn from
// the same hierarchy object. The result's schema is a's attributes followed
// by b's non-shared attributes, and its extension equals the flat natural
// join of the argument extensions.
func Join(name string, a, b *core.Relation) (*core.Relation, error) {
	return JoinContext(context.Background(), name, a, b)
}

// sharedCol pairs the positions of one shared attribute in the two join
// arguments (ai in the left schema, bi in the right).
type sharedCol struct{ ai, bi int }

// joinColumns computes the shared columns, the right-only columns, and the
// output schema of a natural join.
func joinColumns(a, b *core.Relation) (shared []sharedCol, bOnly []int, outSchema *core.Schema, err error) {
	sa, sb := a.Schema(), b.Schema()
	for j := 0; j < sb.Arity(); j++ {
		attr := sb.Attr(j)
		if i, ok := sa.Index(attr.Name); ok {
			if sa.Attr(i).Domain != attr.Domain {
				return nil, nil, nil, fmt.Errorf("%w: join: attribute %q has different domains",
					core.ErrIncompatible, attr.Name)
			}
			shared = append(shared, sharedCol{ai: i, bi: j})
		} else {
			bOnly = append(bOnly, j)
		}
	}
	attrs := make([]core.Attribute, 0, sa.Arity()+len(bOnly))
	for i := 0; i < sa.Arity(); i++ {
		attrs = append(attrs, sa.Attr(i))
	}
	for _, j := range bOnly {
		attrs = append(attrs, sb.Attr(j))
	}
	outSchema, err = core.NewSchema(attrs...)
	if err != nil {
		return nil, nil, nil, err
	}
	return shared, bOnly, outSchema, nil
}

// joinPairs enumerates the tuple pairs that can contribute candidates. The
// full scan visits the whole cross product; an index-probe plan iterates
// the smaller side and probes the bigger side's posting lists with each
// outer value, skipping pairs whose probed coordinate cannot overlap —
// pairs the scan would discard anyway when their meets come up empty.
func joinPairs(ctx context.Context, a, b *core.Relation, plan *Plan) [][2]core.Tuple {
	var pairs [][2]core.Tuple
	if plan.Access == IndexProbe && !ScanForced(ctx) {
		if plan.outerIsLeft {
			for _, ta := range a.Tuples() {
				for _, tb := range b.OverlapCandidates(plan.attr, ta.Item[plan.outAttr]) {
					pairs = append(pairs, [2]core.Tuple{ta, tb})
				}
			}
		} else {
			for _, tb := range b.Tuples() {
				for _, ta := range a.OverlapCandidates(plan.attr, tb.Item[plan.outAttr]) {
					pairs = append(pairs, [2]core.Tuple{ta, tb})
				}
			}
		}
		return pairs
	}
	for _, ta := range a.Tuples() {
		for _, tb := range b.Tuples() {
			pairs = append(pairs, [2]core.Tuple{ta, tb})
		}
	}
	return pairs
}

// JoinContext is Join with cancellation. Pair enumeration goes through the
// cost-based planner (plan.go): with a selective shared column the bigger
// side is probed through its secondary index per outer tuple, otherwise the
// cross product is scanned. Both paths feed the same candidate set;
// WithForceScan pins the scan for reference runs.
func JoinContext(ctx context.Context, name string, a, b *core.Relation) (*core.Relation, error) {
	sa, sb := a.Schema(), b.Schema()
	shared, bOnly, outSchema, err := joinColumns(a, b)
	if err != nil {
		return nil, err
	}

	// Projections from a result item to the argument items.
	projA := func(m core.Item) core.Item { return m[:sa.Arity()].Clone() }
	projB := func(m core.Item) core.Item {
		it := make(core.Item, sb.Arity())
		for _, sc := range shared {
			it[sc.bi] = m[sc.ai]
		}
		for n, j := range bOnly {
			it[j] = m[sa.Arity()+n]
		}
		return it
	}

	// Candidates: for each contributing pair of tuples, combine a's
	// coordinates with b's extra coordinates, narrowing every shared
	// coordinate to each maximal common subsumee of the pair's values.
	// Pairs with a disjoint shared coordinate produce nothing.
	var cand []core.Item
	for _, pair := range joinPairs(ctx, a, b, planJoin(a, b, shared)) {
		ta, tb := pair[0], pair[1]
		perAttr := make([][]string, outSchema.Arity())
		for i, v := range ta.Item {
			perAttr[i] = []string{v}
		}
		for n, j := range bOnly {
			perAttr[sa.Arity()+n] = []string{tb.Item[j]}
		}
		for _, sc := range shared {
			perAttr[sc.ai] = sa.Attr(sc.ai).Domain.Meets(ta.Item[sc.ai], tb.Item[sc.bi])
		}
		cand = append(cand, core.Product(perAttr)...)
	}
	slices.SortFunc(cand, core.CompareItems)

	eval := func(ctx context.Context, items []core.Item) ([]bool, error) {
		itemsA := make([]core.Item, len(items))
		itemsB := make([]core.Item, len(items))
		for i, m := range items {
			itemsA[i] = projA(m)
			itemsB[i] = projB(m)
		}
		xs, err := a.HoldsBatch(ctx, itemsA)
		if err != nil {
			return nil, fmt.Errorf("algebra: join: left argument: %w", err)
		}
		ys, err := b.HoldsBatch(ctx, itemsB)
		if err != nil {
			return nil, fmt.Errorf("algebra: join: right argument: %w", err)
		}
		out := make([]bool, len(items))
		for i := range items {
			out[i] = xs[i] && ys[i]
		}
		return out, nil
	}
	return combine(ctx, name, outSchema, cand, eval)
}
