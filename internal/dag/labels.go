package dag

import (
	"slices"
	"sync/atomic"
)

// Labels is the reachability index: the compressed transitive closure of
// Agrawal, Borgida and Jagadish (SIGMOD '89). Every live node carries a
// pre-order rank over a spanning forest of the graph, and its subtree of
// that forest is the rank span [rank, rank+size), so "to is a tree
// descendant of from" is two integer compares. Tree descent implies
// reachability in the graph (tree edges are graph edges), and when the graph
// *is* a forest — every node has at most one parent, the common shape for
// single-inheritance taxonomies — the spans decide every query. A node that
// reaches beyond its subtree through non-tree edges keeps its whole reach as
// a sorted list of disjoint rank spans, so the index costs O(V + non-tree
// spans), never V².
//
// A Labels value is immutable once built, but for its ancestor-list memo,
// and stamped with the graph generation it was built at; Graph.invalidate
// drops it, so a stale index or list is never consulted through the Graph
// API.
type Labels struct {
	tree     []span  // subtree rank span per node id; {-1, -1} for dead nodes
	order    []int32 // node id per rank
	off      []int32 // reach of id is spans[off[id]:off[id+1]] when non-empty; nil when treeOnly
	spans    []span
	treeOnly bool   // no node reaches beyond its subtree
	gen      uint64 // graph generation this index was built at

	// anc[id] memoizes Graph.Ancestors(id), filled on first use.
	anc []atomic.Pointer[[]int]
}

// span is the half-open rank range [lo, hi).
type span struct{ lo, hi int32 }

// reach returns the spans of the nodes reachable from id, ascending and
// disjoint; id must be live.
func (l *Labels) reach(id int) []span {
	if !l.treeOnly {
		if lo, hi := l.off[id], l.off[id+1]; lo < hi {
			return l.spans[lo:hi:hi]
		}
	}
	return l.tree[id : id+1 : id+1]
}

// HasPath reports whether to is reachable from from. Both ids must be live
// nodes of the graph the index was built from. It never allocates.
func (l *Labels) HasPath(from, to int) bool {
	t, r := l.tree[from], l.tree[to].lo
	if t.lo <= r && r < t.hi {
		return true
	}
	return !l.treeOnly && contains(l.reach(from), r)
}

// TreeOnly reports whether the index answers every query from subtree spans
// alone (no node reached beyond its spanning-forest subtree when the index
// was built).
func (l *Labels) TreeOnly() bool { return l.treeOnly }

// Generation returns the graph generation the index was built at.
func (l *Labels) Generation() uint64 { return l.gen }

// Interval returns the subtree rank span [lo, hi) of id, or (-1, -1) if id
// was dead when the index was built.
func (l *Labels) Interval(id int) (lo, hi int32) {
	if id < 0 || id >= len(l.tree) {
		return -1, -1
	}
	return l.tree[id].lo, l.tree[id].hi
}

// contains reports whether rank r lies in one of the ascending disjoint
// spans.
func contains(spans []span, r int32) bool {
	i, j := 0, len(spans)
	for i < j {
		h := int(uint(i+j) >> 1)
		if spans[h].lo <= r {
			i = h + 1
		} else {
			j = h
		}
	}
	return i > 0 && r < spans[i-1].hi
}

// intersect calls fn on every non-empty intersection of a span of a with a
// span of b, ascending, and stops early when fn returns false.
func intersect(a, b []span, fn func(span) bool) {
	for len(a) > 0 && len(b) > 0 {
		lo, hi := max(a[0].lo, b[0].lo), min(a[0].hi, b[0].hi)
		if lo < hi && !fn(span{lo, hi}) {
			return
		}
		if a[0].hi < b[0].hi {
			a = a[1:]
		} else {
			b = b[1:]
		}
	}
}

// Set is the read-only set of the nodes reachable from one node, itself
// included, as a reachability index saw them. The zero Set is empty.
type Set struct {
	l     *Labels
	spans []span
}

// Has reports whether id is in the set. It never allocates.
func (s Set) Has(id int) bool {
	return s.l != nil && id >= 0 && id < len(s.l.tree) && contains(s.spans, s.l.tree[id].lo)
}

// Count returns the number of members.
func (s Set) Count() int {
	n := 0
	for _, sp := range s.spans {
		n += int(sp.hi - sp.lo)
	}
	return n
}

// Members returns the members in ascending id order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	for _, sp := range s.spans {
		for r := sp.lo; r < sp.hi; r++ {
			out = append(out, int(s.l.order[r]))
		}
	}
	slices.Sort(out)
	return out
}

// Overlaps reports whether s and o share a member. It never allocates.
func (s Set) Overlaps(o Set) bool {
	found := false
	intersect(s.spans, o.spans, func(span) bool { found = true; return false })
	return found
}

// ensureLabels computes (memoizing) the reachability index.
func (g *Graph) ensureLabels() (*Labels, error) {
	if l := g.labelMemo.Load(); l != nil {
		return l, nil
	}
	g.memoMu.Lock()
	defer g.memoMu.Unlock()
	if l := g.labelMemo.Load(); l != nil {
		return l, nil
	}
	l, err := g.buildLabelsLocked()
	if err != nil {
		return nil, err
	}
	g.labelMemo.Store(l)
	return l, nil
}

// buildLabelsLocked constructs the index; caller holds memoMu. The spanning
// forest takes each node's smallest-id predecessor as its tree parent, and
// roots and children are ranked in ascending id order, so the ranking is
// deterministic.
func (g *Graph) buildLabelsLocked() (*Labels, error) {
	// Reject cyclic graphs (possible only via Decode of corrupted data)
	// before ranking rather than mislabeling them.
	topo, err := g.topoLocked()
	if err != nil {
		return nil, err
	}
	n := len(g.alive)
	l := &Labels{
		tree:     make([]span, n),
		order:    make([]int32, g.nodes),
		treeOnly: true,
		gen:      g.gen.Load(),
		anc:      make([]atomic.Pointer[[]int], n),
	}
	kids := make([][]int32, n) // ascending, as ids are visited in order
	for id := range kids {
		l.tree[id] = span{-1, -1}
		if p := g.pred[id]; len(p) > 0 { // a dead node holds nil
			kids[p[0]] = append(kids[p[0]], int32(id))
		}
	}
	// Subtree sizes bottom-up, then ranks top-down: a node's children take
	// consecutive spans right after its own rank.
	size := make([]int32, n)
	for i := len(topo) - 1; i >= 0; i-- {
		size[topo[i]] = 1
		for _, c := range kids[topo[i]] {
			size[topo[i]] += size[c]
		}
	}
	next := int32(0)
	for id, ok := range g.alive {
		if ok && len(g.pred[id]) == 0 {
			l.tree[id], next = span{next, next + size[id]}, next+size[id]
		}
	}
	for _, id := range topo {
		r := l.tree[id].lo
		l.order[r] = int32(id)
		for _, c := range kids[id] {
			l.tree[c], r = span{r + 1, r + 1 + size[c]}, r+size[c]
		}
	}
	l.closeLocked(g, topo)
	return l, nil
}

// closeLocked fills the non-tree reach of every node, in reverse topological
// order so successors are done first: a node's reach is its subtree span
// merged with its successors' reach. Only a node whose reach leaves its
// subtree stores spans.
func (l *Labels) closeLocked(g *Graph, topo []int) {
	reach := make([][]span, len(g.alive))
	var buf []span
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		own := l.tree[id]
		buf = append(buf[:0], own)
		for _, s := range g.succ[id] {
			sub := reach[s]
			if sub == nil {
				sub = l.tree[s : s+1]
			}
			for _, sp := range sub {
				if sp.lo < own.lo || sp.hi > own.hi {
					buf = append(buf, sp)
				}
			}
		}
		if len(buf) == 1 {
			continue
		}
		slices.SortFunc(buf, func(a, b span) int { return int(a.lo - b.lo) })
		merged := buf[:1]
		for _, sp := range buf[1:] {
			if last := &merged[len(merged)-1]; sp.lo <= last.hi {
				last.hi = max(last.hi, sp.hi)
			} else {
				merged = append(merged, sp)
			}
		}
		reach[id] = slices.Clone(merged)
		l.treeOnly = false
	}
	if l.treeOnly {
		return
	}
	l.off = make([]int32, len(reach)+1)
	for id, r := range reach {
		l.spans = append(l.spans, r...)
		l.off[id+1] = int32(len(l.spans))
	}
	l.spans = slices.Clip(l.spans)
}

// Labels returns the graph's reachability index, building it if needed.
// The returned index is immutable; it describes the graph as of the returned
// index's Generation and must be re-fetched after mutations.
func (g *Graph) Labels() (*Labels, error) {
	return g.ensureLabels()
}

// LabelsWarm reports whether the reachability index is currently built,
// i.e. whether HasPath runs without touching adjacency. The planner uses
// this as its "label-index warmth" cost signal.
func (g *Graph) LabelsWarm() bool { return g.labelMemo.Load() != nil }
