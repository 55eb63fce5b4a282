package core

import (
	"fmt"
	"math"
	"sort"
)

// Overlapping reports whether two items can share atomic items: every
// coordinate pair overlaps in its hierarchy (one subsumes the other or they
// have a common descendant). This is the paper's "optimistic" evidence rule
// (§3.1): items are assumed disjoint unless the hierarchy proves otherwise.
func (r *Relation) Overlapping(a, b Item) bool {
	for i := range a {
		if !r.schema.attrs[i].Domain.Overlaps(a[i], b[i]) {
			return false
		}
	}
	return true
}

// MinimalResolutionSet returns the paper's minimal conflict resolution set
// for two items: the maximal items subsumed by both (§3.1). It is the
// componentwise product of the per-attribute maximal common descendants and
// is empty iff the items do not overlap.
func (r *Relation) MinimalResolutionSet(a, b Item) []Item {
	k := r.schema.Arity()
	perAttr := make([][]string, k)
	for i := 0; i < k; i++ {
		m := r.schema.attrs[i].Domain.Meets(a[i], b[i])
		if len(m) == 0 {
			return nil
		}
		perAttr[i] = m
	}
	out := Product(perAttr)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// CompleteResolutionSet returns every item subsumed by both a and b — the
// paper's complete conflict resolution set. The result can be large; limit
// caps the number of items returned (0 means no cap), with ErrTooLarge when
// exceeded.
func (r *Relation) CompleteResolutionSet(a, b Item, limit int) ([]Item, error) {
	perAttr, size := r.commonNodes(a, b)
	if perAttr == nil {
		return nil, nil
	}
	if limit > 0 && size > limit {
		return nil, fmt.Errorf("%w: complete resolution set exceeds %d items", ErrTooLarge, limit)
	}
	out := Product(perAttr)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// commonNodes returns, per attribute and sorted, every node subsumed by both
// coordinates — their meets and all below them — and how many items those
// combine into (saturating). perAttr is nil when the items do not overlap.
func (r *Relation) commonNodes(a, b Item) (perAttr [][]string, size int) {
	perAttr, size = make([][]string, len(a)), 1
	for i := range a {
		h := r.schema.attrs[i].Domain
		seen := map[string]bool{}
		for _, m := range h.Meets(a[i], b[i]) {
			for _, d := range append([]string{m}, h.Descendants(m)...) {
				if !seen[d] {
					seen[d] = true
					perAttr[i] = append(perAttr[i], d)
				}
			}
		}
		if len(perAttr[i]) == 0 {
			return nil, 0
		}
		sort.Strings(perAttr[i])
		size = min(size, math.MaxInt/len(perAttr[i])) * len(perAttr[i])
	}
	return perAttr, size
}

// Conflicts returns every ambiguity-constraint violation in the relation.
//
// Under off-path preemption with irredundant hierarchies the check is
// pairwise-complete: an item-level conflict exists iff, for some pair of
// opposite-sign, mutually incomparable, overlapping tuples, an item of
// their minimal resolution set evaluates to a conflict. (If a conflict
// existed at any item y, its mixed-sign minimal applicable tuples t1, t2
// are incomparable and overlap at y; y lies under some X in M(t1,t2); every
// tuple applicable to X is applicable to y, so had any tuple cut strictly
// below t1 or t2 at X it would contradict their minimality at y — hence t1
// and t2 are still minimal at X and X itself conflicts.)
//
// Under the other preemption modes, or with redundant hierarchy edges,
// minimality arguments do not apply; the checker then additionally
// evaluates every atomic item of each overlap region, bounded by
// maxProductNodes per pair.
func (r *Relation) Conflicts() []*ConflictError {
	metricChecksFull.Inc()
	return r.conflictsAmong(r.Tuples())
}

// ConflictsUnder returns what Conflicts would, provided Conflicts was empty
// before the relation's tuples on the changed items were inserted, retracted
// or re-signed and nothing else (hierarchies, mode) has changed since. A
// mutation at δ alters app(y) only for y ⊑ δ, and an item's verdict depends
// on app(y) alone; so every item the checker would flag now lies under some
// changed δ — elsewhere verdicts are what they were, and a pair with a new
// tuple probes only under that tuple's item, itself a δ — and both tuples of
// the flagging pair subsume the item, hence overlap δ. Pairing only the
// tuples that overlap a changed item therefore finds the same conflicts, in
// every preemption mode: the argument never uses minimality
// (docs/THEORY.md §4, locality corollary).
func (r *Relation) ConflictsUnder(changed []Item) []*ConflictError {
	metricChecksDelta.Inc()
	return r.conflictsAmong(r.TuplesOverlapping(changed))
}

// conflictsAmong is the checker: it pairs the given tuples across signs and
// reports the conflicted items their pairs point at, sorted by item key.
func (r *Relation) conflictsAmong(tuples []Tuple) []*ConflictError {
	metricCheckCandidates.Observe(int64(len(tuples)))
	exhaustive := r.mode != OffPath || !r.fastPathOK()

	var out []*ConflictError
	seen := map[string]bool{}
	record := func(item Item) {
		if seen[item.Key()] {
			return
		}
		if _, err := r.Evaluate(item); err != nil {
			if ce, ok := err.(*ConflictError); ok {
				seen[item.Key()] = true
				ce.Resolution = r.resolutionFor(ce)
				out = append(out, ce)
			}
		}
	}

	// Only opposite-sign pairs can conflict: pair positives with negatives,
	// each interned once so a pair is tested on node ids.
	var pos, neg []Tuple
	for _, t := range tuples {
		if t.Sign {
			pos = append(pos, t)
		} else {
			neg = append(neg, t)
		}
	}
	k := r.schema.Arity()
	posIDs, negIDs := r.internTuples(pos), r.internTuples(neg)
	for p, t1 := range pos {
		a := posIDs[p*k : (p+1)*k]
		for q, t2 := range neg {
			b := negIDs[q*k : (q+1)*k]
			comparable := r.subsumesIDs(a, b) || r.subsumesIDs(b, a)
			if comparable && !exhaustive {
				continue // an exception, not a conflict, under off-path
			}
			if !r.overlapsIDs(a, b) {
				continue
			}
			if !comparable {
				for _, m := range r.MinimalResolutionSet(t1.Item, t2.Item) {
					record(m)
				}
			}
			if exhaustive {
				// Without full off-path preemption, conflicts can appear at
				// any item of the shared region — including composite items
				// and items under a comparable pair — so every common node
				// combination is checked.
				for _, it := range r.overlapItems(t1.Item, t2.Item) {
					record(it)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Item.Key() < out[j].Item.Key() })
	return out
}

// resolutionFor computes the minimal resolution set for the first
// opposite-sign pair among a conflict's binders.
func (r *Relation) resolutionFor(ce *ConflictError) []Item {
	for i := 0; i < len(ce.Binders); i++ {
		for j := i + 1; j < len(ce.Binders); j++ {
			if ce.Binders[i].Sign != ce.Binders[j].Sign {
				return r.MinimalResolutionSet(ce.Binders[i].Item, ce.Binders[j].Item)
			}
		}
	}
	return nil
}

// overlapItems enumerates every item (composite or atomic) in the
// intersection of two items: the componentwise combinations of all nodes
// subsumed by both coordinates. Nothing when that exceeds maxProductNodes.
func (r *Relation) overlapItems(a, b Item) []Item {
	perAttr, size := r.commonNodes(a, b)
	if perAttr == nil || size > maxProductNodes {
		return nil
	}
	return Product(perAttr)
}

// CheckConsistency returns nil when the relation satisfies the ambiguity
// constraint, or an *InconsistencyError naming every conflict. A nil result
// is remembered for exactly the state it was computed on (see
// VerifiedConsistent).
func (r *Relation) CheckConsistency() error {
	return r.verdictOf(r.Conflicts())
}

// CheckConsistencyUnder is CheckConsistency for a relation that was
// VerifiedConsistent before its tuples on the changed items — and nothing
// else — were mutated: same result, at the cost of the region those items
// overlap (ConflictsUnder).
func (r *Relation) CheckConsistencyUnder(changed []Item) error {
	return r.verdictOf(r.ConflictsUnder(changed))
}

func (r *Relation) verdictOf(conflicts []*ConflictError) error {
	if len(conflicts) > 0 {
		return &InconsistencyError{Relation: r.name, Conflicts: conflicts}
	}
	s := r.stamp(r.mode)
	r.verified.Store(&s)
	return nil
}

// VerifiedConsistent reports whether a consistency check has passed on
// exactly the current state: same tuples (epoch), same attribute
// hierarchies (generations), same preemption mode. Any Insert, Retract,
// SetMode or hierarchy edit since makes it false — the stamp is compared,
// never cleared.
func (r *Relation) VerifiedConsistent() bool {
	s := r.verified.Load()
	return s != nil && *s == r.stamp(r.mode)
}
