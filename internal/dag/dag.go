// Package dag provides the directed-acyclic-graph substrate used by the
// hierarchical relational model: topological ordering, reachability,
// transitive closure and reduction, and the node-elimination procedure of
// Jagadish (SIGMOD '89), in both its irredundant (off-path preemption) and
// redundant-edge-preserving (on-path preemption) variants.
//
// Nodes are dense non-negative integer ids assigned by AddNode. The graph is
// mutable; derived structures (topological order, reachability) are computed
// on demand and cached until the next mutation. The memos are published
// through atomic pointers, so a graph that is not being mutated may be
// queried from any number of goroutines concurrently (mutation remains
// single-writer, with no concurrent readers).
package dag

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrCycle is returned when an operation would create, or requires the
// absence of, a directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// ErrNoNode is returned when an operation references a node id that is not
// present in the graph.
var ErrNoNode = errors.New("dag: no such node")

// Graph is a mutable directed graph intended to be acyclic. Acyclicity is
// enforced by AddEdge. The zero value is an empty graph ready for use.
type Graph struct {
	// succ[i] and pred[i] are the adjacency lists of node i: ascending,
	// duplicate-free, nil when empty. A node exists iff alive[i]. AddNode
	// never hands out a deleted id again; only Revive makes it live.
	succ  [][]int32
	pred  [][]int32
	alive []bool
	nodes int // count of live nodes

	// memoized derived state, invalidated on mutation and safe for
	// concurrent readers: lookups go through atomic loads, builds are
	// serialized by memoMu and published with atomic stores.
	memoMu    sync.Mutex
	topoMemo  atomic.Pointer[[]int]
	labelMemo atomic.Pointer[Labels] // reachability index (labels.go)

	// gen counts mutations; derived structures are stamped with the
	// generation they were built at, so callers holding an index across a
	// mutation can detect staleness the same way the verdict cache does.
	gen atomic.Uint64

	// pathQueries counts HasPath calls since the last mutation; once the
	// graph has been stable for about one query per node, the full
	// reachability index pays for itself and is built.
	pathQueries atomic.Int64
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// invalidate drops memoized derived state after a mutation.
func (g *Graph) invalidate() {
	g.gen.Add(1)
	g.topoMemo.Store(nil)
	g.labelMemo.Store(nil)
	g.pathQueries.Store(0)
}

// Generation returns a counter that increases on every mutation. Derived
// indexes record the generation they were built at; equality proves the
// index still describes the current graph.
func (g *Graph) Generation() uint64 { return g.gen.Load() }

// AddNode creates a new node and returns its id.
func (g *Graph) AddNode() int {
	id := len(g.succ)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.alive = append(g.alive, true)
	g.nodes++
	g.invalidate()
	return id
}

// Revive makes the removed node id live again, with no edges. It is a no-op
// for a live id or one never allocated.
func (g *Graph) Revive(id int) {
	if id < 0 || id >= len(g.alive) || g.alive[id] {
		return
	}
	g.alive[id] = true
	g.nodes++
	g.invalidate()
}

// Has reports whether id is a live node of the graph.
func (g *Graph) Has(id int) bool {
	return id >= 0 && id < len(g.alive) && g.alive[id]
}

// Len returns the number of live nodes.
func (g *Graph) Len() int { return g.nodes }

// MaxID returns the largest id ever allocated plus one (the capacity needed
// to index any node of this graph).
func (g *Graph) MaxID() int { return len(g.alive) }

// AddEdge inserts the edge from→to. It returns ErrCycle if the edge would
// create a cycle (including self-loops) and ErrNoNode if either endpoint is
// missing. Adding an existing edge is a no-op.
func (g *Graph) AddEdge(from, to int) error {
	if !g.Has(from) || !g.Has(to) {
		return ErrNoNode
	}
	if from == to {
		return ErrCycle
	}
	i, ok := slices.BinarySearch(g.succ[from], int32(to))
	if ok {
		return nil
	}
	if g.HasPath(to, from) {
		return ErrCycle
	}
	g.succ[from] = slices.Insert(g.succ[from], i, int32(to))
	j, _ := slices.BinarySearch(g.pred[to], int32(from))
	g.pred[to] = slices.Insert(g.pred[to], j, int32(from))
	g.invalidate()
	return nil
}

// RemoveEdge deletes the edge from→to if present.
func (g *Graph) RemoveEdge(from, to int) {
	if !g.HasEdge(from, to) {
		return
	}
	g.succ[from] = without(g.succ[from], to)
	g.pred[to] = without(g.pred[to], from)
	g.invalidate()
}

// HasEdge reports whether the direct edge from→to exists.
func (g *Graph) HasEdge(from, to int) bool {
	if !g.Has(from) || !g.Has(to) {
		return false
	}
	_, ok := slices.BinarySearch(g.succ[from], int32(to))
	return ok
}

// Succ returns the direct successors of id in ascending order.
func (g *Graph) Succ(id int) []int {
	if !g.Has(id) {
		return nil
	}
	return ints(g.succ[id])
}

// Pred returns the direct predecessors of id in ascending order.
func (g *Graph) Pred(id int) []int {
	if !g.Has(id) {
		return nil
	}
	return ints(g.pred[id])
}

// IsLeaf reports whether id is a live node with no successors.
func (g *Graph) IsLeaf(id int) bool { return g.Has(id) && len(g.succ[id]) == 0 }

// Nodes returns all live node ids in ascending order.
func (g *Graph) Nodes() []int {
	out := make([]int, 0, g.nodes)
	for id, ok := range g.alive {
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// Edges returns all edges as [2]int{from, to} pairs in deterministic order.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for from, ok := range g.alive {
		if !ok {
			continue
		}
		for _, to := range g.succ[from] {
			out = append(out, [2]int{from, int(to)})
		}
	}
	return out
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for id, ok := range g.alive {
		if ok {
			n += len(g.succ[id])
		}
	}
	return n
}

// Roots returns all live nodes with no predecessors, ascending.
func (g *Graph) Roots() []int {
	var out []int
	for id, ok := range g.alive {
		if ok && len(g.pred[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Leaves returns all live nodes with no successors, ascending.
func (g *Graph) Leaves() []int {
	var out []int
	for id, ok := range g.alive {
		if ok && len(g.succ[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// RemoveNode deletes a node and all edges incident on it. This is a plain
// deletion; use Eliminate for the paper's reachability-preserving node
// elimination procedure.
func (g *Graph) RemoveNode(id int) {
	if !g.Has(id) {
		return
	}
	for _, s := range g.succ[id] {
		g.pred[s] = without(g.pred[s], id)
	}
	for _, p := range g.pred[id] {
		g.succ[p] = without(g.succ[p], id)
	}
	g.succ[id], g.pred[id] = nil, nil
	g.alive[id] = false
	g.nodes--
	g.invalidate()
}

// Topo returns a deterministic topological ordering of the live nodes
// (Kahn's algorithm with an ascending-id tie-break). It returns ErrCycle if
// the graph is cyclic (possible only if the graph was built by Decode from
// corrupted data, since AddEdge rejects cycles).
func (g *Graph) Topo() ([]int, error) {
	if t := g.topoMemo.Load(); t != nil {
		return append([]int(nil), (*t)...), nil
	}
	g.memoMu.Lock()
	defer g.memoMu.Unlock()
	order, err := g.topoLocked()
	if err != nil {
		return nil, err
	}
	return append([]int(nil), order...), nil
}

// topoLocked returns (memoizing) the topological order; caller holds memoMu.
func (g *Graph) topoLocked() ([]int, error) {
	if t := g.topoMemo.Load(); t != nil {
		return *t, nil
	}
	order, err := g.computeTopo()
	if err != nil {
		return nil, err
	}
	g.topoMemo.Store(&order)
	return order, nil
}

// computeTopo runs Kahn's algorithm without touching the memo, always
// taking the smallest ready id next so that the order is deterministic.
func (g *Graph) computeTopo() ([]int, error) {
	indeg := make([]int, len(g.alive))
	var ready idHeap // ascending ids: already a heap
	for id, ok := range g.alive {
		if !ok {
			continue
		}
		d := len(g.pred[id])
		indeg[id] = d
		if d == 0 {
			ready.IntSlice = append(ready.IntSlice, id)
		}
	}
	order := make([]int, 0, g.nodes)
	for ready.Len() > 0 {
		id := heap.Pop(&ready).(int)
		order = append(order, id)
		for _, s := range g.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				heap.Push(&ready, int(s))
			}
		}
	}
	if len(order) != g.nodes {
		return nil, ErrCycle
	}
	return order, nil
}

// idHeap is a min-heap of node ids for container/heap.
type idHeap struct{ sort.IntSlice }

func (h *idHeap) Push(x any) { h.IntSlice = append(h.IntSlice, x.(int)) }

func (h *idHeap) Pop() any {
	n := len(h.IntSlice) - 1
	id := h.IntSlice[n]
	h.IntSlice = h.IntSlice[:n]
	return id
}

// Warm eagerly builds the memoized derived state (topological order and
// the reachability index) so that subsequent concurrent readers share it
// instead of racing to build it. It is a no-op on an already-warm graph.
func (g *Graph) Warm() {
	_, _ = g.ensureLabels()
}

// HasPath reports whether to is reachable from from (every node reaches
// itself). It returns false if either node is missing. On a warm graph this
// is a span compare (plus a binary search of the spans a node reaches
// through non-tree edges); during construction it falls back to a bounded
// DFS.
func (g *Graph) HasPath(from, to int) bool {
	if !g.Has(from) || !g.Has(to) {
		return false
	}
	if from == to {
		return true
	}
	if l := g.labelMemo.Load(); l != nil {
		return l.HasPath(from, to)
	}
	// During construction (mutations interleaved with queries) a plain DFS
	// avoids thrashing the cache; once the graph has been stable for about
	// one query per node, the index pays for itself and is built.
	if g.pathQueries.Add(1) > int64(g.nodes+16) {
		if l, err := g.ensureLabels(); err == nil {
			return l.HasPath(from, to)
		}
	}
	if len(g.succ[from]) == 0 {
		return false // a leaf, such as a node just added, reaches nothing
	}
	// Mark on push: a node enters the stack at most once, so the stack is
	// bounded by V even on dense graphs.
	seen := make([]bool, len(g.alive))
	seen[from] = true
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[n] {
			if int(s) == to {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, int(s))
			}
		}
	}
	return false
}

// LeavesUnder appends to dst, ascending, every leaf reachable from id
// (id itself when it is a leaf) and returns the extended slice.
func (g *Graph) LeavesUnder(id int, dst []int) []int {
	reach, err := g.Reach(id)
	if err != nil {
		return dst
	}
	n := len(dst)
	for _, sp := range reach.spans {
		for r := sp.lo; r < sp.hi; r++ {
			if c := int(reach.l.order[r]); len(g.succ[c]) == 0 {
				dst = append(dst, c)
			}
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// Ancestors returns every node from which id is reachable, excluding id
// itself, in ascending order. On a graph whose label index is built the
// list is memoized per node beside the labels, so it lives until the next
// mutation and the caller must not modify it. Otherwise it walks pred upward
// with the result as the work list, so cost and memory follow the ancestor
// region, not the graph.
func (g *Graph) Ancestors(id int) []int {
	if !g.Has(id) {
		return nil
	}
	l := g.labelMemo.Load()
	if l != nil {
		if p := l.anc[id].Load(); p != nil {
			return *p
		}
	}
	var out []int
	seen := map[int]struct{}{}
	for i, n := -1, id; i < len(out); i++ {
		if i >= 0 {
			n = out[i]
		}
		for _, p := range g.pred[n] {
			if _, ok := seen[int(p)]; !ok {
				seen[int(p)] = struct{}{}
				out = append(out, int(p))
			}
		}
	}
	sort.Ints(out)
	if l != nil {
		out = out[:len(out):len(out)] // an append by a caller copies
		l.anc[id].Store(&out)
	}
	return out
}

// Overlap reports whether some node is reachable from both a and b (each
// reaches itself). Comparable nodes answer from the index; in a forest
// nothing else overlaps; otherwise it is a merge of the two nodes' reach
// spans. It never allocates on a warm graph.
func (g *Graph) Overlap(a, b int) bool {
	if g.HasPath(a, b) || g.HasPath(b, a) {
		return true
	}
	if !g.Has(a) || !g.Has(b) {
		return false
	}
	l, err := g.ensureLabels()
	return err == nil && !l.treeOnly && Set{l, l.reach(a)}.Overlaps(Set{l, l.reach(b)})
}

// OverlapRegion returns every node n with Overlap(n, id): the nodes reachable
// from id, then each ancestor of one of those. The nodes below come from the
// index when it is built and from a walk of succ otherwise (a region query
// alone does not build it); the ancestors from a walk of pred. Its cost
// follows the region; ok is false, with nothing enumerated, when more than
// maxBelow nodes are reachable from id.
func (g *Graph) OverlapRegion(id, maxBelow int) (region []int, ok bool) {
	if !g.Has(id) {
		return nil, false
	}
	var below func(int) bool
	if l := g.labelMemo.Load(); l != nil {
		set := Set{l, l.reach(id)}
		if set.Count() > maxBelow {
			return nil, false
		}
		region, below = set.Members(), set.Has
	} else if region, below = g.walkBelow(id, maxBelow); region == nil {
		return nil, false
	}
	above := map[int]struct{}{}
	for i := 0; i < len(region); i++ {
		for _, p := range g.pred[region[i]] {
			if _, seen := above[int(p)]; !seen && !below(int(p)) {
				above[int(p)] = struct{}{}
				region = append(region, int(p))
			}
		}
	}
	return region, true
}

// walkBelow returns the nodes reachable from id and a membership test for
// them, or nil when there are more than max.
func (g *Graph) walkBelow(id, max int) ([]int, func(int) bool) {
	seen := map[int]struct{}{id: {}}
	below := []int{id}
	for i := 0; i < len(below) && len(below) <= max; i++ {
		for _, s := range g.succ[below[i]] {
			if _, ok := seen[int(s)]; !ok {
				seen[int(s)] = struct{}{}
				below = append(below, int(s))
			}
		}
	}
	if len(below) > max {
		return nil, nil
	}
	return below, func(n int) bool { _, ok := seen[n]; return ok }
}

// MaximalCommon returns, ascending, the nodes reachable from both a and b
// that no other such node reaches. The common set is closed downward, so a
// member is maximal iff none of its direct predecessors is a member.
func (g *Graph) MaximalCommon(a, b int) []int {
	ra, errA := g.Reach(a)
	rb, errB := g.Reach(b)
	if errA != nil || errB != nil {
		return nil
	}
	var out []int
	intersect(ra.spans, rb.spans, func(sp span) bool {
	next:
		for r := sp.lo; r < sp.hi; r++ {
			c := int(ra.l.order[r])
			for _, p := range g.pred[c] {
				if ra.Has(int(p)) && rb.Has(int(p)) {
					continue next
				}
			}
			out = append(out, c)
		}
		return true
	})
	slices.Sort(out)
	return out
}

// Reach returns the set of nodes reachable from id (including id). The set
// describes the graph as of the call and does not follow later mutations.
func (g *Graph) Reach(id int) (Set, error) {
	if !g.Has(id) {
		return Set{}, ErrNoNode
	}
	l, err := g.ensureLabels()
	if err != nil {
		return Set{}, err
	}
	return Set{l, l.reach(id)}, nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		succ:  make([][]int32, len(g.succ)),
		pred:  make([][]int32, len(g.pred)),
		alive: append([]bool(nil), g.alive...),
		nodes: g.nodes,
	}
	for i := range g.succ {
		c.succ[i] = slices.Clone(g.succ[i])
		c.pred[i] = slices.Clone(g.pred[i])
	}
	return c
}

// Eliminate removes node id using the node-elimination procedure of
// Jagadish §2.1: for each immediate predecessor j (in reverse topological
// order) and each immediate successor k (in topological order), an edge j→k
// is introduced unless a directed path from j to k already exists after the
// deletion. This preserves reachability among the remaining nodes while
// keeping the graph irredundant (the off-path preemption variant).
//
// If keepRedundant is true, the edge j→k is added even when a path already
// exists (the on-path preemption variant from the paper's appendix).
func (g *Graph) Eliminate(id int, keepRedundant bool) error {
	if !g.Has(id) {
		return ErrNoNode
	}
	order, err := g.Topo()
	if err != nil {
		return err
	}
	pos := make(map[int]int, len(order))
	for i, n := range order {
		pos[n] = i
	}
	preds := g.Pred(id)
	succs := g.Succ(id)
	// reverse topological order over predecessors
	sort.Slice(preds, func(a, b int) bool { return pos[preds[a]] > pos[preds[b]] })
	// topological order over successors
	sort.Slice(succs, func(a, b int) bool { return pos[succs[a]] < pos[succs[b]] })

	g.RemoveNode(id)

	for _, j := range preds {
		for _, k := range succs {
			if keepRedundant || !g.HasPath(j, k) {
				if err := g.AddEdge(j, k); err != nil {
					return fmt.Errorf("dag: eliminate %d: %w", id, err)
				}
			}
		}
	}
	return nil
}

// TransitiveReduction removes every edge u→v for which an alternative path
// from u to v exists. For a DAG the transitive reduction is unique.
func (g *Graph) TransitiveReduction() error {
	order, err := g.Topo()
	if err != nil {
		return err
	}
	_ = order
	for _, u := range g.Nodes() {
		for _, v := range g.Succ(u) {
			// Temporarily remove the edge and test for an alternate path.
			g.RemoveEdge(u, v)
			if !g.HasPath(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// TransitiveClosure adds an edge u→v for every pair where v is reachable
// from u.
func (g *Graph) TransitiveClosure() error {
	// Snapshot reachability before mutating (mutation invalidates it).
	type edge struct{ u, v int }
	var add []edge
	for _, u := range g.Nodes() {
		reach, err := g.Reach(u)
		if err != nil {
			return err
		}
		for _, v := range reach.Members() {
			if u != v && !g.HasEdge(u, v) {
				add = append(add, edge{u, v})
			}
		}
	}
	for _, e := range add {
		if err := g.AddEdge(e.u, e.v); err != nil {
			return err
		}
	}
	return nil
}

// IsRedundantEdge reports whether the existing edge u→v is transitively
// redundant (an alternate directed path from u to v exists). The check is a
// pure read — in a DAG, an alternate path must leave u through a successor
// other than v — so it is safe under concurrent readers and does not thrash
// the memoized derived state.
func (g *Graph) IsRedundantEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	for _, w := range g.succ[u] {
		if int(w) != v && g.HasPath(int(w), v) {
			return true
		}
	}
	return false
}

// ints returns a copy of an adjacency list as ints.
func ints(list []int32) []int {
	out := make([]int, len(list))
	for i, v := range list {
		out[i] = int(v)
	}
	return out
}

// without returns the adjacency list without v, which it must hold; the
// last entry out leaves a nil list.
func without(list []int32, v int) []int32 {
	if len(list) == 1 {
		return nil
	}
	i, _ := slices.BinarySearch(list, int32(v))
	return slices.Delete(list, i, i+1)
}
