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
	"errors"
	"fmt"
	"math/bits"
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
	// succ[i] and pred[i] are the adjacency sets of node i. A node exists
	// iff alive[i]. Deleted ids are never reused.
	succ  []map[int]struct{}
	pred  []map[int]struct{}
	alive []bool
	nodes int // count of live nodes

	// memoized derived state, invalidated on mutation and safe for
	// concurrent readers: lookups go through atomic loads, builds are
	// serialized by memoMu and published with atomic stores.
	memoMu    sync.Mutex
	topoMemo  atomic.Pointer[[]int]
	reachMemo atomic.Pointer[[]Bitset] // reach[i] = nodes reachable from i (including i)
	labelMemo atomic.Pointer[Labels]   // interval-label reachability index (labels.go)

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
	g.reachMemo.Store(nil)
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
	g.succ = append(g.succ, map[int]struct{}{})
	g.pred = append(g.pred, map[int]struct{}{})
	g.alive = append(g.alive, true)
	g.nodes++
	g.invalidate()
	return id
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
	if _, ok := g.succ[from][to]; ok {
		return nil
	}
	if g.HasPath(to, from) {
		return ErrCycle
	}
	g.succ[from][to] = struct{}{}
	g.pred[to][from] = struct{}{}
	g.invalidate()
	return nil
}

// RemoveEdge deletes the edge from→to if present.
func (g *Graph) RemoveEdge(from, to int) {
	if !g.Has(from) || !g.Has(to) {
		return
	}
	if _, ok := g.succ[from][to]; !ok {
		return
	}
	delete(g.succ[from], to)
	delete(g.pred[to], from)
	g.invalidate()
}

// HasEdge reports whether the direct edge from→to exists.
func (g *Graph) HasEdge(from, to int) bool {
	if !g.Has(from) || !g.Has(to) {
		return false
	}
	_, ok := g.succ[from][to]
	return ok
}

// Succ returns the direct successors of id in ascending order.
func (g *Graph) Succ(id int) []int {
	if !g.Has(id) {
		return nil
	}
	return sortedKeys(g.succ[id])
}

// Pred returns the direct predecessors of id in ascending order.
func (g *Graph) Pred(id int) []int {
	if !g.Has(id) {
		return nil
	}
	return sortedKeys(g.pred[id])
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
		for _, to := range sortedKeys(g.succ[from]) {
			out = append(out, [2]int{from, to})
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
	for s := range g.succ[id] {
		delete(g.pred[s], id)
	}
	for p := range g.pred[id] {
		delete(g.succ[p], id)
	}
	g.succ[id] = map[int]struct{}{}
	g.pred[id] = map[int]struct{}{}
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

// computeTopo runs Kahn's algorithm without touching the memo.
func (g *Graph) computeTopo() ([]int, error) {
	indeg := make(map[int]int, g.nodes)
	var frontier []int
	for id, ok := range g.alive {
		if !ok {
			continue
		}
		d := len(g.pred[id])
		indeg[id] = d
		if d == 0 {
			frontier = append(frontier, id)
		}
	}
	sort.Ints(frontier)
	order := make([]int, 0, g.nodes)
	for len(frontier) > 0 {
		// pop the smallest id for determinism
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		next := sortedKeys(g.succ[id])
		var added bool
		for _, s := range next {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
				added = true
			}
		}
		if added {
			sort.Ints(frontier)
		}
	}
	if len(order) != g.nodes {
		return nil, ErrCycle
	}
	return order, nil
}

// ensureReach computes (memoizing) the reachability bitsets for all live
// nodes and returns them.
func (g *Graph) ensureReach() ([]Bitset, error) {
	if r := g.reachMemo.Load(); r != nil {
		return *r, nil
	}
	g.memoMu.Lock()
	defer g.memoMu.Unlock()
	return g.reachLocked()
}

// reachLocked returns (memoizing) the reachability bitsets; caller holds
// memoMu.
func (g *Graph) reachLocked() ([]Bitset, error) {
	if r := g.reachMemo.Load(); r != nil {
		return *r, nil
	}
	order, err := g.topoLocked()
	if err != nil {
		return nil, err
	}
	reach := make([]Bitset, len(g.alive))
	// process in reverse topological order so successors are ready
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		b := NewBitset(len(g.alive))
		b.Set(id)
		for s := range g.succ[id] {
			b.Or(reach[s])
		}
		reach[id] = b
	}
	g.reachMemo.Store(&reach)
	return reach, nil
}

// Warm eagerly builds the memoized derived state (topological order, the
// interval-label index and the reachability index) so that subsequent
// concurrent readers share it instead of racing to build it. It is a no-op
// on an already-warm graph.
func (g *Graph) Warm() {
	_, _ = g.ensureLabels()
	_, _ = g.ensureReach()
}

// HasPath reports whether to is reachable from from (every node reaches
// itself). It returns false if either node is missing. On a warm graph this
// is an O(1) interval compare (plus a bitset probe for non-tree DAG edges);
// during construction it falls back to a bounded DFS.
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
	if r := g.reachMemo.Load(); r != nil {
		return (*r)[from].Get(to)
	}
	// During construction (mutations interleaved with queries) a plain DFS
	// avoids thrashing the cache; once the graph has been stable for about
	// one query per node, the label index pays for itself and is built.
	if g.pathQueries.Add(1) > int64(g.nodes+16) {
		if l, err := g.ensureLabels(); err == nil {
			return l.HasPath(from, to)
		}
	}
	// Mark on push: a node enters the stack at most once, so the stack is
	// bounded by V even on dense graphs.
	seen := make([]bool, len(g.alive))
	seen[from] = true
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := range g.succ[n] {
			if s == to {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Descendants returns every node reachable from id, excluding id itself,
// in ascending order.
func (g *Graph) Descendants(id int) []int {
	if !g.Has(id) {
		return nil
	}
	reach, err := g.ensureReach()
	if err != nil {
		return nil
	}
	var out []int
	for _, n := range reach[id].Members() {
		if n != id {
			out = append(out, n)
		}
	}
	return out
}

// LeavesUnder appends to dst, ascending, every leaf reachable from id
// (id itself when it is a leaf) and returns the extended slice.
func (g *Graph) LeavesUnder(id int, dst []int) []int {
	reach, err := g.ReachableSet(id)
	for w := 0; err == nil && w < len(reach); w++ {
		for word := reach[w]; word != 0; word &= word - 1 {
			if n := w*64 + bits.TrailingZeros64(word); len(g.succ[n]) == 0 {
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// Ancestors returns every node from which id is reachable, excluding id
// itself, in ascending order. It walks pred upward with the result as the
// work list, so cost and memory follow the ancestor region, not the graph.
func (g *Graph) Ancestors(id int) []int {
	if !g.Has(id) {
		return nil
	}
	var out []int
	seen := map[int]struct{}{}
	for i, n := -1, id; i < len(out); i++ {
		if i >= 0 {
			n = out[i]
		}
		for p := range g.pred[n] {
			if _, ok := seen[p]; !ok {
				seen[p] = struct{}{}
				out = append(out, p)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Overlap reports whether some node is reachable from both a and b (each
// reaches itself). Comparable nodes answer from the label index; in a forest
// nothing else overlaps; otherwise it is a word-wise test of the memoized
// reach sets. It never allocates on a warm graph.
func (g *Graph) Overlap(a, b int) bool {
	if g.HasPath(a, b) || g.HasPath(b, a) {
		return true
	}
	if !g.Has(a) || !g.Has(b) {
		return false
	}
	if l := g.labelMemo.Load(); l != nil && l.treeOnly {
		return false
	}
	reach, err := g.ensureReach()
	return err == nil && reach[a].Intersects(reach[b])
}

// OverlapRegion returns every node n with Overlap(n, id): the nodes reachable
// from id, then each ancestor of one of those. It walks pred from the
// reachable set, so its cost follows the region; ok is false, with nothing
// enumerated, when more than maxBelow nodes are reachable from id.
func (g *Graph) OverlapRegion(id, maxBelow int) (region []int, ok bool) {
	below, err := g.ReachableSet(id)
	if err != nil || below.Count() > maxBelow {
		return nil, false
	}
	region = below.Members()
	above := map[int]struct{}{}
	for i := 0; i < len(region); i++ {
		for p := range g.pred[region[i]] {
			if _, seen := above[p]; !seen && !below.Get(p) {
				above[p] = struct{}{}
				region = append(region, p)
			}
		}
	}
	return region, true
}

// MaximalCommon returns, ascending, the nodes reachable from both a and b
// that no other such node reaches. The common set is closed downward, so a
// member is maximal iff none of its direct predecessors is a member.
func (g *Graph) MaximalCommon(a, b int) []int {
	if !g.Has(a) || !g.Has(b) {
		return nil
	}
	reach, err := g.ensureReach()
	if err != nil {
		return nil
	}
	ra, rb := reach[a], reach[b]
	var out []int
	for w := range ra {
	next:
		for x := ra[w] & rb[w]; x != 0; x &= x - 1 {
			c := w*64 + bits.TrailingZeros64(x)
			for p := range g.pred[c] {
				if ra.Get(p) && rb.Get(p) {
					continue next
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// ReachableSet returns the Bitset of nodes reachable from id (including id).
// The returned Bitset must not be modified.
func (g *Graph) ReachableSet(id int) (Bitset, error) {
	if !g.Has(id) {
		return nil, ErrNoNode
	}
	reach, err := g.ensureReach()
	if err != nil {
		return nil, err
	}
	return reach[id], nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		succ:  make([]map[int]struct{}, len(g.succ)),
		pred:  make([]map[int]struct{}, len(g.pred)),
		alive: append([]bool(nil), g.alive...),
		nodes: g.nodes,
	}
	for i := range g.succ {
		c.succ[i] = copySet(g.succ[i])
		c.pred[i] = copySet(g.pred[i])
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
	preds := sortedKeys(g.pred[id])
	succs := sortedKeys(g.succ[id])
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
	reach, err := g.ensureReach()
	if err != nil {
		return err
	}
	// Snapshot reachability before mutating (mutation invalidates it).
	type edge struct{ u, v int }
	var add []edge
	for _, u := range g.Nodes() {
		for _, v := range reach[u].Members() {
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
	for w := range g.succ[u] {
		if w != v && g.HasPath(w, v) {
			return true
		}
	}
	return false
}

func sortedKeys(m map[int]struct{}) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func copySet(m map[int]struct{}) map[int]struct{} {
	c := make(map[int]struct{}, len(m))
	for k := range m {
		c[k] = struct{}{}
	}
	return c
}
