package dag

import (
	"sort"
	"sync/atomic"
)

// Labels is the interval-label reachability index: every live node carries a
// [pre, post] DFS interval over a spanning forest of the graph, so "to is a
// tree descendant of from" is two integer compares. Tree descent implies
// reachability in the graph (tree edges are graph edges), and when the graph
// *is* a forest — every node has at most one parent, the common shape for
// single-inheritance taxonomies — the intervals decide every query exactly
// with O(V) memory and no bitsets at all. Graphs with multi-parent nodes
// keep the dense reachability bitsets as a fallback for the paths the
// spanning forest cannot see.
//
// A Labels value is immutable once built, but for its ancestor-list memo,
// and stamped with the graph generation it was built at; Graph.invalidate
// drops it, so a stale index or list is never consulted through the Graph
// API.
type Labels struct {
	pre      []int32  // DFS entry clock per node id; -1 for dead nodes
	post     []int32  // DFS exit clock per node id; -1 for dead nodes
	treeOnly bool     // every edge is a tree edge: intervals are exact
	reach    []Bitset // fallback for non-tree edges; nil when treeOnly
	gen      uint64   // graph generation this index was built at

	// anc[id] memoizes Graph.Ancestors(id), filled on first use.
	anc []atomic.Pointer[[]int]
}

// HasPath reports whether to is reachable from from. Both ids must be live
// nodes of the graph the index was built from. It never allocates.
func (l *Labels) HasPath(from, to int) bool {
	if from == to {
		return true
	}
	if l.pre[from] <= l.pre[to] && l.post[to] <= l.post[from] {
		return true
	}
	if l.treeOnly {
		return false
	}
	return l.reach[from].Get(to)
}

// TreeOnly reports whether the index answers every query from intervals
// alone (the graph was a forest when the index was built).
func (l *Labels) TreeOnly() bool { return l.treeOnly }

// Generation returns the graph generation the index was built at.
func (l *Labels) Generation() uint64 { return l.gen }

// Interval returns the [pre, post] DFS interval of id, or (-1, -1) if id was
// dead when the index was built.
func (l *Labels) Interval(id int) (pre, post int32) {
	if id < 0 || id >= len(l.pre) {
		return -1, -1
	}
	return l.pre[id], l.post[id]
}

// ensureLabels computes (memoizing) the interval-label index.
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

// buildLabelsLocked constructs the label index; caller holds memoMu. The
// spanning forest takes each node's smallest-id predecessor as its tree
// parent, and children are visited in ascending order, so the labeling is
// deterministic.
func (g *Graph) buildLabelsLocked() (*Labels, error) {
	// Reject cyclic graphs (possible only via Decode of corrupted data)
	// before the DFS rather than mislabeling them.
	if _, err := g.topoLocked(); err != nil {
		return nil, err
	}
	n := len(g.alive)
	l := &Labels{
		pre:      make([]int32, n),
		post:     make([]int32, n),
		treeOnly: true,
		gen:      g.gen.Load(),
		anc:      make([]atomic.Pointer[[]int], n),
	}
	kids := make([][]int32, n)
	for id := 0; id < n; id++ {
		l.pre[id], l.post[id] = -1, -1
		if !g.alive[id] {
			continue
		}
		if len(g.pred[id]) == 0 {
			continue
		}
		if len(g.pred[id]) > 1 {
			l.treeOnly = false
		}
		parent := -1
		for p := range g.pred[id] {
			if parent < 0 || p < parent {
				parent = p
			}
		}
		kids[parent] = append(kids[parent], int32(id))
	}
	for id := range kids {
		sort.Slice(kids[id], func(a, b int) bool { return kids[id][a] < kids[id][b] })
	}
	type frame struct {
		node int32
		next int // index into kids[node] of the next child to enter
	}
	var clock int32
	stack := make([]frame, 0, 64)
	for root := 0; root < n; root++ {
		if !g.alive[root] || len(g.pred[root]) > 0 {
			continue
		}
		l.pre[root] = clock
		clock++
		stack = append(stack[:0], frame{node: int32(root)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(kids[f.node]) {
				c := kids[f.node][f.next]
				f.next++
				l.pre[c] = clock
				clock++
				stack = append(stack, frame{node: c})
				continue
			}
			l.post[f.node] = clock
			clock++
			stack = stack[:len(stack)-1]
		}
	}
	if !l.treeOnly {
		reach, err := g.reachLocked()
		if err != nil {
			return nil, err
		}
		l.reach = reach
	}
	return l, nil
}

// Labels returns the graph's interval-label index, building it if needed.
// The returned index is immutable; it describes the graph as of the returned
// index's Generation and must be re-fetched after mutations.
func (g *Graph) Labels() (*Labels, error) {
	return g.ensureLabels()
}

// LabelsWarm reports whether the interval-label index is currently built,
// i.e. whether HasPath runs in O(1) without touching adjacency. The planner
// uses this as its "label-index warmth" cost signal.
func (g *Graph) LabelsWarm() bool { return g.labelMemo.Load() != nil }
