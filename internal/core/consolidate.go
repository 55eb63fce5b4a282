package core

import (
	"slices"

	"hrdb/internal/dag"
)

// This file implements the paper's first new relational operator,
// Consolidate (§3.3.1): eliminate redundant tuples.
//
// A tuple is redundant iff it has the same truth value as all of its
// immediate predecessors in the subsumption graph of the relation — where
// tuples with no predecessor are given the universal negated tuple as their
// predecessor (so a top-level negated tuple is redundant and a top-level
// positive tuple is not). Because deleting a tuple changes the subsumption
// graph, the result depends on deletion order; the paper proves that
// processing nodes in topologically sorted order (general → specific)
// yields the unique minimum relation, which is what Consolidate does.

// RedundantTuples returns the tuples that are redundant in the current
// subsumption graph (without removing anything). Note that redundancy is
// evaluated against the graph as it stands: removing one redundant tuple
// can make another, previously irredundant tuple redundant — Consolidate
// handles the cascade.
func (r *Relation) RedundantTuples() []Tuple {
	rows := r.sortedRows()
	sub := r.bindMatrix(rows)
	var out []Tuple
	for i, n := range rows {
		if r.redundantAt(rows, sub, i, nil) {
			out = append(out, r.rows[n])
		}
	}
	return out
}

// redundantAt reports whether rows[i] has the sign of every immediate
// predecessor it has in the rows' subsumption graph sub among the rows not
// gone — of the universal negated tuple when it has none.
func (r *Relation) redundantAt(rows []int32, sub []dag.Bitset, i int, gone []bool) bool {
	sign := r.rows[rows[i]].Sign
	preds := predecessors(sub, i, gone)
	if len(preds) == 0 {
		return !sign
	}
	for _, j := range preds {
		if r.rows[rows[j]].Sign != sign {
			return false
		}
	}
	return true
}

// Consolidate returns the unique minimum relation with the same extension:
// it walks the subsumption graph in topologically sorted order and deletes
// every tuple that is redundant with respect to the tuples remaining at
// that point (§3.3.1). The receiver is not modified. The result comes with
// its binding order, the walk's restricted to the survivors (see kahn).
func (r *Relation) Consolidate() *Relation {
	rows := r.sortedRows()
	order, sub := r.bindOrder(rows)
	removed := make([]bool, len(rows))
	for _, i := range order {
		removed[i] = r.redundantAt(rows, sub, i, removed)
	}
	out := newRelation(r.name, r.schema, len(rows))
	out.mode, out.cacheOff = r.mode, r.cacheOff
	kept := make([]int32, len(rows)) // out's row of each survivor
	for i, n := range rows {
		if !removed[i] {
			kept[i] = out.put(r.rows[n], r.rowIDs(n)) // items are never written in place, so the two share them
		}
	}
	if out.Len() == len(rows) && r.VerifiedConsistent() {
		s := out.stamp() // nothing removed: the state r was verified at
		out.verified.Store(&s)
	}
	if !out.cacheOff {
		walk := kahn(sub, removed)
		order := make([]int32, len(walk))
		for n, i := range walk {
			order[n] = kept[i]
		}
		out.order.Store(&memo[[]int32]{stamp: out.stamp(), v: order})
	}
	return out
}

// Reconsolidate brings c, which was r.Consolidate() before r's tuples on the
// touched items were inserted, retracted or re-signed, up to date in place.
// Whether a tuple survives consolidation is decided by the survivors above
// it alone, so only tuples under a touched item can change.
// The caller guarantees that every such tuple of r is itself touched (true of
// any down-closed rewrite) and that no attribute has preference edges, so the
// tuples above one are its applicable rows.
func (r *Relation) Reconsolidate(c *Relation, touched []Item) {
	var rows []int32
	for _, d := range touched {
		c.Retract(d)
		if n, ok := r.find(d); ok {
			rows = append(rows, n)
		}
	}
	r.sortRows(rows)
	rows = slices.Compact(rows)
	order, _ := r.bindOrder(rows)
	for _, i := range order {
		n := rows[i]
		var group []int32
		for _, u := range r.applicable(r.rowIDs(n), nil) {
			if _, live := c.rowOf(r.rowIDs(u)); live {
				group = append(group, u)
			}
		}
		group = append(group, n)
		if !r.redundantAt(group, r.bindMatrix(group), len(group)-1, nil) {
			c.put(r.rows[n], r.rowIDs(n))
		}
	}
}

// SubsumptionEdge is an edge of the relation's subsumption graph. From is
// nil when the source is the universal negated tuple.
type SubsumptionEdge struct {
	From *Tuple
	To   Tuple
}

// SubsumptionGraph returns the relation's subsumption graph (Fig. 1c,
// Fig. 6a): one node per tuple plus the implicit universal negated tuple,
// with edges from each tuple's immediate predecessors.
func (r *Relation) SubsumptionGraph() []SubsumptionEdge {
	rows := r.sortedRows()
	tuples, sub := r.tuplesOf(rows), r.bindMatrix(rows)
	var out []SubsumptionEdge
	for i, t := range tuples {
		preds := predecessors(sub, i, nil)
		if len(preds) == 0 {
			out = append(out, SubsumptionEdge{From: nil, To: t})
		}
		for _, j := range preds {
			out = append(out, SubsumptionEdge{From: &tuples[j], To: t})
		}
	}
	return out
}
