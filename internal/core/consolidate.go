package core

import (
	"fmt"
	"strings"
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
	var out []Tuple
	for _, t := range r.Tuples() {
		if r.isRedundant(t, r.Tuples()) {
			out = append(out, t)
		}
	}
	return out
}

// isRedundant reports whether t has the same sign as all its immediate
// predecessors among the given tuple set (the universal negated tuple if it
// has none).
func (r *Relation) isRedundant(t Tuple, tuples []Tuple) bool {
	var above []Tuple
	for _, u := range tuples {
		if !u.Item.Equal(t.Item) && r.BindSubsumes(u.Item, t.Item) {
			above = append(above, u)
		}
	}
	if len(above) == 0 {
		// Immediate predecessor is the universal negated tuple.
		return !t.Sign
	}
	// Immediate predecessors: minimal elements of the tuples strictly above.
	for _, u := range r.minimalTuples(above) {
		if u.Sign != t.Sign {
			return false
		}
	}
	return true
}

// Consolidate returns the unique minimum relation with the same extension:
// it walks the subsumption graph in topologically sorted order and deletes
// every tuple that is redundant with respect to the tuples remaining at
// that point (§3.3.1). The receiver is not modified.
func (r *Relation) Consolidate() *Relation {
	out := r.Clone()
	tuples := r.Tuples()
	n := len(tuples)

	// Precompute the strict-binding-subsumption matrix with interned node
	// ids so the O(n²) scans below avoid per-pair string-map lookups.
	sub := r.subsumptionMatrix(tuples)

	// Topologically order the tuples general-first (Kahn over the matrix;
	// Tuples() is already key-sorted, giving a deterministic tie-break).
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if sub[i][j] {
				indeg[j]++
			}
		}
	}
	var frontier []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	orderedIdx := make([]int, 0, n)
	for len(frontier) > 0 {
		i := frontier[0]
		frontier = frontier[1:]
		orderedIdx = append(orderedIdx, i)
		for j := 0; j < n; j++ {
			if sub[i][j] {
				indeg[j]--
				if indeg[j] == 0 {
					frontier = append(frontier, j)
				}
			}
		}
		sortInts(frontier)
	}

	removed := make([]bool, n)
	for oi := 0; oi < n; oi++ {
		i := orderedIdx[oi]
		// Immediate predecessors of i among the survivors: the minimal
		// elements of {j live : sub[j][i]}.
		var above []int
		for j := 0; j < n; j++ {
			if !removed[j] && j != i && sub[j][i] {
				above = append(above, j)
			}
		}
		redundant := true
		if len(above) == 0 {
			// The universal negated tuple is the only predecessor.
			redundant = !tuples[i].Sign
		} else {
			for _, a := range above {
				minimal := true
				for _, b := range above {
					if b != a && sub[a][b] {
						minimal = false
						break
					}
				}
				if minimal && tuples[a].Sign != tuples[i].Sign {
					redundant = false
					break
				}
			}
		}
		if redundant {
			out.Retract(tuples[i].Item)
			removed[i] = true
		}
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
	for _, t := range r.sortGeneralFirst(ts) {
		var above []Tuple
		for _, u := range r.Applicable(t.Item) {
			if _, live := c.Lookup(u.Item); live {
				above = append(above, u)
			}
		}
		if !r.isRedundant(t, above) {
			if err := c.Insert(t.Item, t.Sign); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortInts sorts a small int slice ascending (insertion sort; frontiers are
// tiny).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// subsumptionMatrix returns sub[i][j] = ordered[i].Item strictly
// bind-subsumes ordered[j].Item, computed via reachability bitsets.
func (r *Relation) subsumptionMatrix(ordered []Tuple) [][]bool {
	n := len(ordered)
	k := r.schema.Arity()
	// Intern every coordinate id once.
	ids := make([][]int, n)
	for i, t := range ordered {
		ids[i] = make([]int, k)
		for a := 0; a < k; a++ {
			ids[i][a] = r.schema.attrs[a].Domain.MustID(t.Item[a])
		}
	}
	sub := make([][]bool, n)
	for i := 0; i < n; i++ {
		sub[i] = make([]bool, n)
		// Reach sets for i's coordinates.
		reaches := make([]func(int) bool, k)
		for a := 0; a < k; a++ {
			set, ok := r.schema.attrs[a].Domain.BindReachSet(ordered[i].Item[a])
			if !ok {
				reaches[a] = func(int) bool { return false }
				continue
			}
			s := set
			reaches[a] = s.Get
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			all := true
			equal := true
			for a := 0; a < k; a++ {
				if !reaches[a](ids[j][a]) {
					all = false
					break
				}
				if ids[i][a] != ids[j][a] {
					equal = false
				}
			}
			sub[i][j] = all && !equal
		}
	}
	return sub
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
	var out []SubsumptionEdge
	for _, t := range tuples {
		var above []Tuple
		for _, u := range tuples {
			if !u.Item.Equal(t.Item) && r.BindSubsumes(u.Item, t.Item) {
				above = append(above, u)
			}
		}
		if len(above) == 0 {
			out = append(out, SubsumptionEdge{From: nil, To: t})
			continue
		}
		for _, u := range r.minimalTuples(above) {
			u := u
			out = append(out, SubsumptionEdge{From: &u, To: t})
		}
	}
	return out
}
