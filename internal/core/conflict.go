package core

import (
	"fmt"
	"math"
	"slices"
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
	var bufA, bufB [8]int32
	ia, errA := r.validateItem(a, bufA[:0])
	ib, errB := r.validateItem(b, bufB[:0])
	if errA != nil || errB != nil {
		return nil
	}
	return r.meets(ia, ib)
}

// meets is MinimalResolutionSet on two items' node ids.
func (r *Relation) meets(a, b []int32) []Item {
	perAttr := make([][]string, len(a))
	var buf [8]int
	for i := range a {
		h := r.schema.attrs[i].Domain
		m := h.MeetIDs(int(a[i]), int(b[i]), buf[:0])
		if len(m) == 0 {
			return nil
		}
		perAttr[i] = make([]string, len(m))
		for j, id := range m {
			perAttr[i][j] = h.NameOf(id)
		}
		sort.Strings(perAttr[i])
	}
	out := Product(perAttr)
	slices.SortFunc(out, CompareItems)
	return out
}

// CompleteResolutionSet returns every item subsumed by both a and b — the
// paper's complete conflict resolution set. The result can be large; limit
// caps the number of items returned (0 means no cap), with ErrTooLarge when
// exceeded.
func (r *Relation) CompleteResolutionSet(a, b Item, limit int) ([]Item, error) {
	var bufA, bufB [8]int32
	ia, errA := r.validateItem(a, bufA[:0])
	ib, errB := r.validateItem(b, bufB[:0])
	if errA != nil || errB != nil {
		return nil, nil
	}
	perAttr, size := r.commonNodes(ia, ib)
	if perAttr == nil {
		return nil, nil
	}
	if limit > 0 && size > limit {
		return nil, fmt.Errorf("%w: complete resolution set exceeds %d items", ErrTooLarge, limit)
	}
	out := Product(perAttr)
	slices.SortFunc(out, CompareItems)
	return out, nil
}

// commonNodes returns, per attribute and sorted, the name of every node
// subsumed by both coordinates, given as node ids — their meets and all
// below them — and how many items those combine into (saturating). perAttr
// is nil when the items do not overlap.
func (r *Relation) commonNodes(a, b []int32) (perAttr [][]string, size int) {
	perAttr, size = make([][]string, len(a)), 1
	for i := range a {
		h := r.schema.attrs[i].Domain
		below := h.Reach(int(b[i]))
		for _, id := range h.Reach(int(a[i])).Members() {
			if below.Has(id) {
				perAttr[i] = append(perAttr[i], h.NameOf(id))
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
	return r.conflictsAmong(r.sortedRows())
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
	return r.conflictsAmong(r.overlapping(changed))
}

// conflictsAmong is the checker: it pairs the given rows across signs and
// reports the conflicted items their pairs point at, sorted by item key.
func (r *Relation) conflictsAmong(rows []int32) []*ConflictError {
	metricCheckCandidates.Observe(int64(len(rows)))
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
				cp := *ce // a cache miss's error is the cached one: annotate a copy
				cp.Resolution = r.resolutionFor(ce)
				out = append(out, &cp)
			}
		}
	}

	// Only opposite-sign pairs can conflict: pair positives with negatives,
	// each pair tested on the rows' node ids.
	var pos, neg []int32
	for _, n := range rows {
		if r.rows[n].Sign {
			pos = append(pos, n)
		} else {
			neg = append(neg, n)
		}
	}
	posReach, negReach := r.reachRows(pos), r.reachRows(neg)
	for p, n1 := range pos {
		a, ra := r.rowIDs(n1), posReach[p]
		for q, n2 := range neg {
			b, rb := r.rowIDs(n2), negReach[q]
			comparable := r.subsumesRows(ra, a, b) || r.subsumesRows(rb, b, a)
			if comparable && !exhaustive {
				continue // an exception, not a conflict, under off-path
			}
			// Incomparable items overlap when every coordinate pair shares
			// a node: one reaches the other, or a common descendant.
			if !comparable && !r.overlapsRows(ra, rb, a, b) {
				continue
			}
			if !comparable {
				for _, m := range r.meets(a, b) {
					record(m)
				}
			}
			if exhaustive {
				// Without full off-path preemption, conflicts can appear at
				// any item of the shared region — including composite items
				// and items under a comparable pair — so every common node
				// combination is checked, up to maxProductNodes of them.
				if perAttr, size := r.commonNodes(a, b); perAttr != nil && size <= maxProductNodes {
					for _, it := range Product(perAttr) {
						record(it)
					}
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b *ConflictError) int { return CompareItems(a.Item, b.Item) })
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
	s := r.stamp()
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
	return s != nil && *s == r.stamp()
}
