package dag

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// refGraph is the reference model the adjacency lists are checked against:
// plain maps of sets, with every derived answer computed the slow way.
type refGraph struct {
	alive      map[int]bool
	succ, pred map[int]map[int]bool
	next       int // the id the next AddNode hands out
}

func newRefGraph() *refGraph {
	return &refGraph{alive: map[int]bool{}, succ: map[int]map[int]bool{}, pred: map[int]map[int]bool{}}
}

func (r *refGraph) clone() *refGraph {
	c := newRefGraph()
	c.next = r.next
	for id := range r.alive {
		c.alive[id] = true
	}
	for _, pair := range r.edges() {
		c.link(pair[0], pair[1])
	}
	return c
}

func (r *refGraph) addNode() int {
	id := r.next
	r.next++
	r.alive[id] = true
	return id
}

func (r *refGraph) link(from, to int) {
	if r.succ[from] == nil {
		r.succ[from] = map[int]bool{}
	}
	if r.pred[to] == nil {
		r.pred[to] = map[int]bool{}
	}
	r.succ[from][to], r.pred[to][from] = true, true
}

func (r *refGraph) unlink(from, to int) {
	delete(r.succ[from], to)
	delete(r.pred[to], from)
}

// addEdge mirrors Graph.AddEdge's contract.
func (r *refGraph) addEdge(from, to int) error {
	switch {
	case !r.alive[from] || !r.alive[to]:
		return ErrNoNode
	case from == to:
		return ErrCycle
	case r.succ[from][to]:
		return nil
	case r.reaches(to, from):
		return ErrCycle
	}
	r.link(from, to)
	return nil
}

// revive mirrors Graph.Revive: an id handed out before and removed since
// comes back with no edges.
func (r *refGraph) revive(id int) {
	if id >= 0 && id < r.next {
		r.alive[id] = true
	}
}

func (r *refGraph) removeNode(id int) {
	if !r.alive[id] {
		return
	}
	for s := range r.succ[id] {
		r.unlink(id, s)
	}
	for p := range r.pred[id] {
		r.unlink(p, id)
	}
	delete(r.alive, id)
}

// eliminate mirrors Jagadish's node elimination over the reference's own
// topological order and reachability.
func (r *refGraph) eliminate(id int, keepRedundant bool) {
	pos := map[int]int{}
	for i, n := range r.topo() {
		pos[n] = i
	}
	preds, succs := sorted(r.pred[id]), sorted(r.succ[id])
	sort.Slice(preds, func(a, b int) bool { return pos[preds[a]] > pos[preds[b]] })
	sort.Slice(succs, func(a, b int) bool { return pos[succs[a]] < pos[succs[b]] })
	r.removeNode(id)
	for _, j := range preds {
		for _, k := range succs {
			if keepRedundant || !r.reaches(j, k) {
				r.link(j, k)
			}
		}
	}
}

// reduce drops every edge u→v that a longer path also covers; in a DAG
// that set is unique, so it is computed on the graph as it stands.
func (r *refGraph) reduce() {
	var drop [][2]int
	for _, e := range r.edges() {
		for w := range r.succ[e[0]] {
			if w != e[1] && r.reaches(w, e[1]) {
				drop = append(drop, e)
				break
			}
		}
	}
	for _, e := range drop {
		r.unlink(e[0], e[1])
	}
}

func (r *refGraph) reaches(from, to int) bool { return r.reach(from)[to] }

// reach is every node reachable from id, itself included; empty for a dead
// id.
func (r *refGraph) reach(id int) map[int]bool {
	if !r.alive[id] {
		return nil
	}
	seen := map[int]bool{id: true}
	for queue := []int{id}; len(queue) > 0; queue = queue[1:] {
		for s := range r.succ[queue[0]] {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return seen
}

func (r *refGraph) nodes() []int { return sorted(r.alive) }

func (r *refGraph) edges() [][2]int {
	var out [][2]int
	for _, from := range r.nodes() {
		for _, to := range sorted(r.succ[from]) {
			out = append(out, [2]int{from, to})
		}
	}
	return out
}

// topo is Kahn's algorithm that always takes the smallest ready id.
func (r *refGraph) topo() []int {
	indeg := map[int]int{}
	for _, n := range r.nodes() {
		indeg[n] = len(r.pred[n])
	}
	var out []int
	for len(indeg) > 0 {
		next := -1
		for n, d := range indeg {
			if d == 0 && (next < 0 || n < next) {
				next = n
			}
		}
		delete(indeg, next)
		out = append(out, next)
		for s := range r.succ[next] {
			indeg[s]--
		}
	}
	return out
}

func sorted(set map[int]bool) []int {
	out := []int{}
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// checkAgainstRef compares every adjacency answer of g with the reference
// and checks the representation: lists strictly ascending, nil when empty,
// and succ and pred mirroring each other.
func checkAgainstRef(t *testing.T, g *Graph, r *refGraph, what string) {
	t.Helper()
	if g.MaxID() != r.next || g.Len() != len(r.alive) {
		t.Fatalf("%s: MaxID %d Len %d, want %d %d", what, g.MaxID(), g.Len(), r.next, len(r.alive))
	}
	var roots, leaves []int
	for id := 0; id < r.next; id++ {
		ws, wp := sorted(r.succ[id]), sorted(r.pred[id])
		if r.alive[id] && len(wp) == 0 {
			roots = append(roots, id)
		}
		if r.alive[id] && len(ws) == 0 {
			leaves = append(leaves, id)
		}
		if got, want := g.IsLeaf(id), r.alive[id] && len(ws) == 0; got != want {
			t.Fatalf("%s: IsLeaf(%d) = %v, want %v", what, id, got, want)
		}
		if got := g.Succ(id); !slices.Equal(got, ws) {
			t.Fatalf("%s: Succ(%d) = %v, want %v", what, id, got, ws)
		}
		if got := g.Pred(id); !slices.Equal(got, wp) {
			t.Fatalf("%s: Pred(%d) = %v, want %v", what, id, got, wp)
		}
		for dir, list := range [][]int32{g.succ[id], g.pred[id]} {
			if list != nil && len(list) == 0 {
				t.Fatalf("%s: node %d holds an empty non-nil list (direction %d)", what, id, dir)
			}
			for i := 1; i < len(list); i++ {
				if list[i-1] >= list[i] {
					t.Fatalf("%s: node %d list %v not strictly ascending (direction %d)", what, id, list, dir)
				}
			}
		}
		for _, s := range g.succ[id] {
			if _, ok := slices.BinarySearch(g.pred[s], int32(id)); !ok {
				t.Fatalf("%s: edge %d→%d in succ but not in pred", what, id, s)
			}
		}
		for _, p := range g.pred[id] {
			if _, ok := slices.BinarySearch(g.succ[p], int32(id)); !ok {
				t.Fatalf("%s: edge %d→%d in pred but not in succ", what, p, id)
			}
		}
		reach := r.reach(id)
		for to := -1; to <= r.next; to++ {
			if got, want := g.HasEdge(id, to), r.succ[id][to]; got != want {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, want %v", what, id, to, got, want)
			}
			if got, want := g.HasPath(id, to), reach[to]; got != want {
				t.Fatalf("%s: HasPath(%d,%d) = %v, want %v", what, id, to, got, want)
			}
		}
	}
	edges := r.edges()
	if got := g.Edges(); !slices.Equal(got, edges) {
		t.Fatalf("%s: Edges() = %v, want %v", what, got, edges)
	}
	if got := g.EdgeCount(); got != len(edges) {
		t.Fatalf("%s: EdgeCount() = %d, want %d", what, got, len(edges))
	}
	if got := g.Roots(); !slices.Equal(got, roots) {
		t.Fatalf("%s: Roots() = %v, want %v", what, got, roots)
	}
	if got := g.Leaves(); !slices.Equal(got, leaves) {
		t.Fatalf("%s: Leaves() = %v, want %v", what, got, leaves)
	}
	if got, err := g.Topo(); err != nil || !slices.Equal(got, r.topo()) {
		t.Fatalf("%s: Topo() = %v, %v, want %v", what, got, err, r.topo())
	}
}

// TestPropertyAdjacencyMatchesReference drives seeded random sequences of
// every mutation — duplicate edges, cycle attempts, edges to dead or
// missing ids, removals, a removal and Revive of one id, both elimination
// variants, reduction and clones —
// through the graph and a map-of-sets reference, and compares every
// adjacency answer after each step. A cloned graph is set aside with a copy
// of the reference and checked again at the end, while the sequence goes on
// mutating the clone, so a list the two shared would show.
func TestPropertyAdjacencyMatchesReference(t *testing.T) {
	rounds := 5 * closureRounds(t)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g, r := New(), newRefGraph()
		type pair struct {
			g *Graph
			r *refGraph
		}
		var clones []pair
		pick := func() int { return rng.Intn(r.next+2) - 1 } // dead and missing ids too
		for step := 0; step < 80; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(21); {
			case op < 4 || r.next < 2:
				if got, want := g.AddNode(), r.addNode(); got != want {
					t.Fatalf("%s: AddNode() = %d, want %d", what, got, want)
				}
			case op < 12:
				from, to := pick(), pick()
				if e := r.edges(); len(e) > 0 && rng.Intn(3) == 0 {
					// an existing edge again, or reversed: a cycle
					e := e[rng.Intn(len(e))]
					if from, to = e[0], e[1]; rng.Intn(2) == 0 {
						from, to = to, from
					}
				}
				if got, want := g.AddEdge(from, to), r.addEdge(from, to); !errors.Is(got, want) {
					t.Fatalf("%s: AddEdge(%d,%d) = %v, want %v", what, from, to, got, want)
				}
			case op < 14:
				from, to := pick(), pick()
				if e := r.edges(); len(e) > 0 && rng.Intn(2) == 0 {
					e := e[rng.Intn(len(e))]
					from, to = e[0], e[1]
				}
				g.RemoveEdge(from, to)
				r.unlink(from, to)
			case op < 15:
				id := pick()
				g.RemoveNode(id)
				r.removeNode(id)
			case op < 16:
				id := pick()
				g.RemoveNode(id)
				r.removeNode(id)
				checkAgainstRef(t, g, r, what+" before Revive")
				g.Revive(id)
				r.revive(id)
			case op < 18:
				id, keep := pick(), rng.Intn(2) == 0
				err := g.Eliminate(id, keep)
				if !r.alive[id] {
					if !errors.Is(err, ErrNoNode) {
						t.Fatalf("%s: Eliminate(%d) of a dead node = %v", what, id, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("%s: Eliminate(%d, %v): %v", what, id, keep, err)
				}
				r.eliminate(id, keep)
			case op < 19:
				if err := g.TransitiveReduction(); err != nil {
					t.Fatalf("%s: TransitiveReduction: %v", what, err)
				}
				r.reduce()
			case op < 20:
				clones = append(clones, pair{g, r})
				g, r = g.Clone(), r.clone()
			default:
				g.Warm()
			}
			checkAgainstRef(t, g, r, what)
		}
		for i, c := range clones {
			checkAgainstRef(t, c.g, c.r, fmt.Sprintf("seed %d clone %d", seed, i))
		}
	}
}

// fixtureGraph builds the shape of the benchmark's Animal hierarchy: a
// depth-5 ternary tree of classes under one root, 3,978 leaves dealt over
// the bottom classes, and 5% of the leaves with a second parent.
func fixtureGraph(t testing.TB) (g *Graph, bottom []int) {
	g = New()
	level := []int{g.AddNode()}
	for depth := 1; depth <= 5; depth++ {
		var next []int
		for _, p := range level {
			for k := 0; k < 3; k++ {
				c := g.AddNode()
				if err := g.AddEdge(p, c); err != nil {
					t.Fatal(err)
				}
				next = append(next, c)
			}
		}
		level = next
	}
	for i := 0; i < 3978; i++ {
		leaf := g.AddNode()
		if err := g.AddEdge(level[i%len(level)], leaf); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			if err := g.AddEdge(level[(i+7)%len(level)], leaf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g, level
}

// TestAdjacencyHeapPerNode pins what a hierarchy-shaped graph keeps live:
// a sorted int32 list per node and direction is about 70 bytes a node,
// where a map per node and direction was about 300.
func TestAdjacencyHeapPerNode(t *testing.T) {
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const copies = 4
	graphs := make([]*Graph, copies)
	before := heap()
	for i := range graphs {
		graphs[i], _ = fixtureGraph(t)
	}
	after := heap()
	nodes := copies * graphs[0].Len()
	runtime.KeepAlive(graphs)
	perNode := float64(int64(after)-int64(before)) / float64(nodes)
	t.Logf("%d nodes hold %.1f heap bytes each", nodes, perNode)
	if perNode > 96 {
		t.Fatalf("%d nodes hold %.1f heap bytes each, want at most 96", nodes, perNode)
	}
}

// TestAddLeafAllocs: adding a leaf under an existing class allocates the
// leaf's one-entry parent list and, amortized, little else — no reach
// walk, no per-node map.
func TestAddLeafAllocs(t *testing.T) {
	g, bottom := fixtureGraph(t)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		if err := g.AddEdge(bottom[i%len(bottom)], g.AddNode()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("adding a leaf costs %.2f allocations", allocs)
	if allocs > 2 {
		t.Fatalf("adding a leaf costs %.2f allocations, want at most 2", allocs)
	}
}
