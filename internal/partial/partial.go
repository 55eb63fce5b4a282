// Package partial implements the first future-work direction of §4 of
// Jagadish (SIGMOD '89): "through the use of existential rather than
// universal quantifiers, and the use of three-valued (positive, negative,
// and unknown) rather than two-valued assertions, it may be possible to
// have a sound and conceptually pleasing treatment of partial information."
//
// A partial.Relation pairs a hierarchical relation (whose tuples quantify
// universally, as in the paper's core model) with existential assertions:
// ∃(C) states that at least one member of C satisfies the relation, without
// saying which. Queries come in two forms, both three-valued:
//
//   - HoldsEvery(item): does the relation hold for every member? This is
//     the open-world reading of the universal layer (tvl).
//   - HoldsSome(item): does the relation hold for at least one member?
//     True when a witness is derivable (an atom under the item evaluates
//     true, or an existential assertion's class is contained in the item);
//     False when every atom under the item is explicitly false and no
//     existential assertion could place its witness inside; Unknown
//     otherwise.
package partial

import (
	"fmt"
	"sort"

	"hrdb/internal/core"
	"hrdb/internal/tvl"
)

// maxWitnessScan bounds the atom enumeration used by HoldsSome.
const maxWitnessScan = 1 << 16

// Relation is a hierarchical relation with existential assertions.
type Relation struct {
	base *core.Relation
	// some holds the existential assertions, keyed canonically.
	some map[string]core.Item
}

// New wraps a hierarchical relation. The base relation remains usable
// directly; existential assertions live only in this wrapper.
func New(base *core.Relation) *Relation {
	return &Relation{base: base, some: map[string]core.Item{}}
}

// Base returns the underlying universal relation.
func (r *Relation) Base() *core.Relation { return r.base }

// AssertSome records "at least one member of item satisfies the relation".
// The item may be composite (classes) or atomic (in which case it is
// equivalent to a universal positive tuple on that atom, but remains a
// weaker, existential fact here).
func (r *Relation) AssertSome(values ...string) error {
	item := core.Item(values).Clone()
	// Validate against the base relation's schema.
	if _, err := r.base.Evaluate(item); err != nil {
		if _, conflict := err.(*core.ConflictError); !conflict {
			return err
		}
	}
	r.some[item.Key()] = item
	return nil
}

// RetractSome removes an existential assertion.
func (r *Relation) RetractSome(values ...string) bool {
	k := core.Item(values).Key()
	_, ok := r.some[k]
	delete(r.some, k)
	return ok
}

// Existentials returns the existential assertions, sorted.
func (r *Relation) Existentials() []core.Item {
	keys := make([]string, 0, len(r.some))
	for k := range r.some {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]core.Item, len(keys))
	for i, k := range keys {
		out[i] = r.some[k]
	}
	return out
}

// HoldsEvery is the three-valued universal query: true iff the relation is
// known to hold for every member of the item, false iff known not to hold
// for every member (some member is known-false… no: the universal reading
// of the paper's tuples is per-item binding), unknown when no tuple
// applies. Existential assertions never strengthen a universal answer.
func (r *Relation) HoldsEvery(values ...string) (tvl.Truth, error) {
	return tvl.Evaluate(r.base, core.Item(values))
}

// HoldsSome is the three-valued existential query over the members of the
// item.
func (r *Relation) HoldsSome(values ...string) (tvl.Truth, error) {
	item := core.Item(values)
	s := r.base.Schema()
	if len(item) != s.Arity() {
		return tvl.Unknown, fmt.Errorf("%w: item %v", core.ErrArity, item)
	}

	// An existential assertion contained in the item supplies a witness.
	for _, e := range r.Existentials() {
		if r.base.Subsumes(item, e) {
			return tvl.True, nil
		}
	}

	// Scan the atoms under the item: any true atom is a witness; if every
	// atom is known-false the answer can be false.
	var pools [][]string
	size := 1
	for i := 0; i < s.Arity(); i++ {
		leaves := s.Attr(i).Domain.Leaves(item[i])
		if len(leaves) == 0 {
			return tvl.Unknown, fmt.Errorf("%w: %q", core.ErrUnknownValue, item[i])
		}
		pools = append(pools, leaves)
		size *= len(pools[i])
		if size > maxWitnessScan {
			return tvl.Unknown, fmt.Errorf("%w: existential scan over %v needs %d atoms",
				core.ErrTooLarge, item, size)
		}
	}
	allFalse := true
	for _, atom := range core.Product(pools) {
		v, err := tvl.Evaluate(r.base, atom)
		if err != nil || v == tvl.True {
			return v, err
		}
		allFalse = allFalse && v == tvl.False
	}

	if allFalse {
		// Every atom is explicitly false; an existential assertion merely
		// overlapping the item could still have its witness outside, so it
		// does not weaken this answer — but one *contained* would have
		// returned True above, and one overlapping contradicts nothing.
		// However, an existential overlapping the item may place its
		// witness inside, contradicting all-false: report Unknown then
		// (the database holds conflicting partial information).
		for _, e := range r.Existentials() {
			if r.overlaps(e, item) {
				return tvl.Unknown, nil
			}
		}
		return tvl.False, nil
	}
	return tvl.Unknown, nil
}

// overlaps reports componentwise overlap of two items.
func (r *Relation) overlaps(a, b core.Item) bool {
	s := r.base.Schema()
	for i := range a {
		if !s.Attr(i).Domain.Overlaps(a[i], b[i]) {
			return false
		}
	}
	return true
}
