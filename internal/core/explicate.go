package core

import (
	"context"
	"fmt"
	"sort"
)

// This file implements the paper's second new relational operator,
// Explicate (§3.3.2): flatten a relation so that the specified attributes
// hold only atomic (leaf) values, preserving the extension exactly.
//
// The algorithm follows the paper: traverse the relation's subsumption
// graph in reverse topologically sorted order (most specific tuples first);
// for the tuple at each node, enumerate the membership of the classes in
// the attributes being explicated; insert each enumerated tuple unless a
// tuple for the same item has already been inserted (the earlier, more
// specific source wins).

// Explicate returns a relation with the same extension in which every
// listed attribute holds only leaf values. With no attributes listed, all
// attributes are explicated; the negated tuples that remain afterwards are
// redundant (their only predecessor is the universal negated tuple) and can
// be removed with a following Consolidate, exactly as the paper describes.
//
// The result is capped: if the enumeration would produce more than
// maxProductNodes tuples, ErrTooLarge is returned.
func (r *Relation) Explicate(attrs ...string) (*Relation, error) {
	return r.ExplicateContext(context.Background(), attrs...)
}

// ExplicateContext is Explicate with cancellation: a long enumeration is
// abandoned with ctx's error at the next tuple boundary.
func (r *Relation) ExplicateContext(ctx context.Context, attrs ...string) (*Relation, error) {
	cols := make([]int, 0, len(attrs))
	if len(attrs) == 0 {
		for i := 0; i < r.schema.Arity(); i++ {
			cols = append(cols, i)
		}
	} else {
		for _, a := range attrs {
			i, ok := r.schema.Index(a)
			if !ok {
				return nil, fmt.Errorf("%w: no attribute %q in %q", ErrUnknownAttribute, a, r.name)
			}
			cols = append(cols, i)
		}
		sort.Ints(cols)
	}
	explicated := make([]bool, r.schema.Arity())
	for _, c := range cols {
		explicated[c] = true
	}

	out := NewRelation(r.name, r.schema)
	out.mode = r.mode
	ordered := r.sortMostSpecificFirst(r.Tuples())
	inserted := 0
	for _, t := range ordered {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Enumerate leaves for the explicated coordinates.
		perAttr := make([][]string, r.schema.Arity())
		for i, v := range t.Item {
			if explicated[i] {
				perAttr[i] = r.schema.attrs[i].Domain.Leaves(v)
			} else {
				perAttr[i] = []string{v}
			}
		}
		var rec func(prefix Item, i int) error
		rec = func(prefix Item, i int) error {
			if i == r.schema.Arity() {
				item := prefix.Clone()
				if _, present := out.Lookup(item); present {
					return nil // a more specific tuple already decided this item
				}
				if inserted >= maxProductNodes {
					return fmt.Errorf("%w: explication of %q exceeds %d tuples",
						ErrTooLarge, r.name, maxProductNodes)
				}
				inserted++
				return out.Insert(item, t.Sign)
			}
			for _, n := range perAttr[i] {
				if err := rec(append(prefix, n), i+1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(make(Item, 0, r.schema.Arity()), 0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Extension returns the relation's unique flat extension — the sorted
// atomic items for which the relation holds (§3, "every hierarchical
// relation must be equivalent to a unique flat relation"). It is computed
// by full explication followed by dropping the (now redundant) negated
// tuples. ErrTooLarge is returned if the extension exceeds
// maxProductNodes items.
func (r *Relation) Extension() ([]Item, error) {
	return r.ExtensionContext(context.Background())
}

// ExtensionContext is Extension with cancellation.
func (r *Relation) ExtensionContext(ctx context.Context) ([]Item, error) {
	flat, err := r.ExplicateContext(ctx)
	if err != nil {
		return nil, err
	}
	var out []Item
	for _, t := range flat.Tuples() {
		if t.Sign {
			out = append(out, t.Item)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// AtomicItems enumerates every atomic item of the relation's schema — the
// full product of the attribute domains' leaves — in sorted order.
// ErrTooLarge is returned if the product exceeds maxProductNodes.
func (r *Relation) AtomicItems() ([]Item, error) {
	k := r.schema.Arity()
	perAttr := make([][]string, k)
	size := 1
	for i := 0; i < k; i++ {
		leaves := r.schema.attrs[i].Domain.AllLeaves()
		sort.Strings(leaves)
		perAttr[i] = leaves
		size *= len(leaves)
		if size > maxProductNodes {
			return nil, fmt.Errorf("%w: atomic-item space of %q exceeds %d items",
				ErrTooLarge, r.name, maxProductNodes)
		}
	}
	return Product(perAttr), nil
}

// ExtensionByEvaluation computes the extension by bulk-evaluating every
// atomic item of the schema through EvaluateBatch, instead of by the
// paper's explication rewrite. Both agree on consistent relations (that
// equivalence is exercised by tests); this path parallelizes across cores
// and honors cancellation, which suits wide, shallow relations, while
// Explicate suits relations whose tuples cover the space sparsely.
func (r *Relation) ExtensionByEvaluation(ctx context.Context, opts ...BatchOption) ([]Item, error) {
	atoms, err := r.AtomicItems()
	if err != nil {
		return nil, err
	}
	verdicts, err := r.EvaluateBatch(ctx, atoms, opts...)
	if err != nil {
		return nil, err
	}
	var out []Item
	for i, v := range verdicts {
		if v.Value {
			out = append(out, atoms[i])
		}
	}
	return out, nil
}

// ExtensionSize returns the number of atomic items in the extension.
func (r *Relation) ExtensionSize() (int, error) {
	ext, err := r.Extension()
	if err != nil {
		return 0, err
	}
	return len(ext), nil
}
