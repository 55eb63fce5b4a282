package core

import (
	"fmt"
	"slices"
	"strings"

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
	ts := r.Tuples()
	sub := r.bindMatrix(ts)
	var out []Tuple
	for i, t := range ts {
		if redundantAt(ts, sub, i, nil) {
			out = append(out, t)
		}
	}
	return out
}

// redundantAt reports whether ts[i] has the sign of every immediate
// predecessor it has in the subsumption graph sub among the tuples not gone
// — of the universal negated tuple when it has none.
func redundantAt(ts []Tuple, sub []dag.Bitset, i int, gone []bool) bool {
	preds := predecessors(sub, i, gone)
	if len(preds) == 0 {
		return !ts[i].Sign
	}
	for _, j := range preds {
		if ts[j].Sign != ts[i].Sign {
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
	tuples := r.Tuples()
	order, sub := r.bindOrder(tuples)
	removed := make([]bool, len(tuples))
	for _, i := range order {
		removed[i] = redundantAt(tuples, sub, i, removed)
	}
	out := newRelation(r.name, r.schema, len(tuples))
	out.mode, out.cacheOff = r.mode, r.cacheOff
	for i, t := range tuples {
		if !removed[i] {
			out.put(t.Item.Key(), t) // items are never written in place, so the two share them
		}
	}
	if out.Len() == len(tuples) && r.VerifiedConsistent() {
		s := out.stamp() // nothing removed: the state r was verified at
		out.verified.Store(&s)
	}
	if !out.cacheOff {
		kept := kahn(sub, removed)
		ts := make([]Tuple, len(kept))
		for n, i := range kept {
			ts[n] = tuples[i]
		}
		out.order.Store(&memo[[]Tuple]{stamp: out.stamp(), v: ts})
	}
	return out
}

// Reconsolidate brings c, which was r.Consolidate() before r's tuples on the
// touched items (listed once each) were inserted, retracted or re-signed, up
// to date in place. Whether a tuple survives consolidation is decided by the
// survivors above it alone, so only tuples under a touched item can change.
// The caller guarantees that every such tuple of r is itself touched (true of
// any down-closed rewrite) and that no attribute has preference edges, so the
// tuples above one are its Applicable set.
func (r *Relation) Reconsolidate(c *Relation, touched []Item) error {
	var ts []Tuple
	for _, d := range touched {
		c.Retract(d)
		if t, ok := r.Lookup(d); ok {
			ts = append(ts, t)
		}
	}
	slices.SortFunc(ts, compareTuples)
	for _, t := range r.sortGeneralFirst(ts) {
		var group []Tuple
		for _, u := range r.Applicable(t.Item) {
			if _, live := c.Lookup(u.Item); live {
				group = append(group, u)
			}
		}
		group = append(group, t)
		if !redundantAt(group, r.bindMatrix(group), len(group)-1, nil) {
			if err := c.Insert(t.Item, t.Sign); err != nil {
				return err
			}
		}
	}
	return nil
}

// SubsumptionEdge is an edge of the relation's subsumption graph. From is
// nil when the source is the universal negated tuple.
type SubsumptionEdge struct {
	From *Tuple
	To   Tuple
}

// SubsumptionDOT renders the relation's subsumption graph in Graphviz
// syntax (Fig. 1c, Fig. 6a); the universal negated tuple appears as utop.
func (r *Relation) SubsumptionDOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", r.name)
	b.WriteString("  utop [label=\"universal negated tuple\"];\n")
	ids := map[string]int{}
	for i, t := range r.Tuples() {
		ids[t.Item.Key()] = i
		fmt.Fprintf(&b, "  t%d [label=%q];\n", i, t.String())
	}
	for _, e := range r.SubsumptionGraph() {
		from := "utop"
		if e.From != nil {
			from = fmt.Sprintf("t%d", ids[e.From.Item.Key()])
		}
		fmt.Fprintf(&b, "  %s -> t%d;\n", from, ids[e.To.Item.Key()])
	}
	b.WriteString("}\n")
	return b.String()
}

// SubsumptionGraph returns the relation's subsumption graph (Fig. 1c,
// Fig. 6a): one node per tuple plus the implicit universal negated tuple,
// with edges from each tuple's immediate predecessors.
func (r *Relation) SubsumptionGraph() []SubsumptionEdge {
	tuples := r.Tuples()
	sub := r.bindMatrix(tuples)
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
