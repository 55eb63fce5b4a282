package dag

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"
)

// closureRounds is the number of random graphs the property test walks:
// CHAOS_ROUNDS when set (the nightly soak), 40 by default.
func closureRounds(t *testing.T) int {
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_ROUNDS %q", s)
		}
		return n
	}
	return 40
}

// refReach is the DFS reference: every node reachable from id, itself
// included, ascending.
func refReach(g *Graph, id int) []int {
	seen := map[int]bool{id: true}
	stack := []int{id}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := range g.succ[n] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// randomShapedDAG grows a DAG of n nodes whose shape the seed picks: a
// forest, a tree with a share of second parents, or one with redundant
// (transitively implied) edges as well, each with several roots.
func randomShapedDAG(rng *rand.Rand, n int) *Graph {
	g := New()
	multi, redundant := []float64{0, 0.15, 0.4}[rng.Intn(3)], rng.Intn(2) == 0
	for i := 0; i < n; i++ {
		id := g.AddNode()
		if id == 0 || rng.Intn(6) == 0 {
			continue // another root
		}
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		must(g.AddEdge(rng.Intn(id), id))
		if rng.Float64() < multi {
			must(g.AddEdge(rng.Intn(id), id))
		}
		if redundant && rng.Intn(5) == 0 {
			// An edge from some ancestor of a parent: implied by a path.
			if anc := g.Ancestors(g.Pred(id)[0]); len(anc) > 0 {
				must(g.AddEdge(anc[rng.Intn(len(anc))], id))
			}
		}
	}
	return g
}

// checkClosure compares every reachability query of g with the DFS
// reference.
func checkClosure(t *testing.T, g *Graph, what string) {
	t.Helper()
	nodes := g.Nodes()
	reach := map[int][]int{}
	has := map[[2]int]bool{}
	for _, a := range nodes {
		reach[a] = refReach(g, a)
		for _, b := range reach[a] {
			has[[2]int{a, b}] = true
		}
	}
	for _, a := range nodes {
		set, err := g.Reach(a)
		if err != nil {
			t.Fatalf("%s: Reach(%d): %v", what, a, err)
		}
		if got := set.Members(); !slices.Equal(got, reach[a]) || set.Count() != len(reach[a]) {
			t.Fatalf("%s: Reach(%d) = %v (count %d), want %v", what, a, got, set.Count(), reach[a])
		}
		var leaves, anc []int
		for _, n := range reach[a] {
			if len(g.succ[n]) == 0 {
				leaves = append(leaves, n)
			}
		}
		if got := g.LeavesUnder(a, nil); !slices.Equal(got, leaves) {
			t.Fatalf("%s: LeavesUnder(%d) = %v, want %v", what, a, got, leaves)
		}
		for _, b := range nodes {
			if b != a && has[[2]int{b, a}] {
				anc = append(anc, b)
			}
		}
		if got := g.Ancestors(a); !slices.Equal(got, anc) {
			t.Fatalf("%s: Ancestors(%d) = %v, want %v", what, a, got, anc)
		}
		var region []int
		for _, b := range nodes {
			if b == a || has[[2]int{a, b}] || has[[2]int{b, a}] || len(common(reach[a], reach[b])) > 0 {
				region = append(region, b)
			}
		}
		got, ok := g.OverlapRegion(a, len(reach[a]))
		slices.Sort(got)
		if !ok || !slices.Equal(got, region) {
			t.Fatalf("%s: OverlapRegion(%d) = %v, %v, want %v", what, a, got, ok, region)
		}
		if _, ok := g.OverlapRegion(a, len(reach[a])-1); ok {
			t.Fatalf("%s: OverlapRegion(%d, %d) accepted %d nodes below", what, a, len(reach[a])-1, len(reach[a]))
		}
		for _, b := range nodes {
			if got, want := g.HasPath(a, b), has[[2]int{a, b}]; got != want {
				t.Fatalf("%s: HasPath(%d,%d) = %v, want %v", what, a, b, got, want)
			}
			both := common(reach[a], reach[b])
			if got, want := g.Overlap(a, b), len(both) > 0; got != want {
				t.Fatalf("%s: Overlap(%d,%d) = %v, want %v", what, a, b, got, want)
			}
			if got := set.Has(b); got != has[[2]int{a, b}] {
				t.Fatalf("%s: Reach(%d).Has(%d) = %v", what, a, b, got)
			}
			var maximal []int
		next:
			for _, c := range both {
				for p := range g.pred[c] {
					if slices.Contains(both, p) {
						continue next
					}
				}
				maximal = append(maximal, c)
			}
			if got := g.MaximalCommon(a, b); !slices.Equal(got, maximal) {
				t.Fatalf("%s: MaximalCommon(%d,%d) = %v, want %v", what, a, b, got, maximal)
			}
			other, _ := g.Reach(b)
			if got := set.Overlaps(other); got != (len(both) > 0) {
				t.Fatalf("%s: Reach(%d).Overlaps(Reach(%d)) = %v, want %v", what, a, b, got, both)
			}
		}
	}
	if l, err := g.Labels(); err != nil || l.Generation() != g.Generation() {
		t.Fatalf("%s: index at generation %d, graph at %d (%v)", what, l.Generation(), g.Generation(), err)
	}
}

// common intersects two ascending lists.
func common(a, b []int) []int {
	var out []int
	for _, x := range a {
		if _, ok := slices.BinarySearch(b, x); ok {
			out = append(out, x)
		}
	}
	return out
}

// TestPropertyClosureMatchesDFS checks the compressed closure against a DFS
// reference on seeded random DAGs — forests, multi-parent nodes, redundant
// edges, several roots — cold and warm, and again after RemoveNode and
// Eliminate (both variants) move the graph to a new generation.
func TestPropertyClosureMatchesDFS(t *testing.T) {
	rounds := closureRounds(t)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := randomShapedDAG(rng, 8+rng.Intn(32))
		for step := 0; step < 4 && g.Len() > 1; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			if rng.Intn(2) == 0 {
				g.Warm()
			}
			checkClosure(t, g, what)
			gen := g.Generation()
			nodes := g.Nodes()
			victim := nodes[rng.Intn(len(nodes))]
			switch rng.Intn(3) {
			case 0:
				g.RemoveNode(victim)
			default:
				if err := g.Eliminate(victim, rng.Intn(2) == 0); err != nil {
					t.Fatalf("%s: Eliminate(%d): %v", what, victim, err)
				}
			}
			if g.Generation() == gen || g.LabelsWarm() {
				t.Fatalf("%s: mutation kept generation %d or a warm index", what, gen)
			}
		}
	}
}

// TestClosureHeapFollowsNodes warms a 20,000-node tree in which 5% of the
// nodes have a second parent and bounds what the index adds to the heap. A
// dense V×V closure of this graph is about 50 MB; the compressed one keeps a
// few words per node plus the spans that non-tree edges add.
func TestClosureHeapFollowsNodes(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	g := New()
	for i := 0; i < n; i++ {
		id := g.AddNode()
		if id == 0 {
			continue
		}
		if err := g.AddEdge(rng.Intn(id), id); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(20) == 0 {
			if err := g.AddEdge(rng.Intn(id), id); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	g.Warm()
	after := heap()
	runtime.KeepAlive(g)
	if l, _ := g.Labels(); l.TreeOnly() {
		t.Fatal("second parents left the index tree-only")
	}
	grew := int64(after) - int64(before)
	t.Logf("warming %d nodes added %d bytes of heap", n, grew)
	if grew > 1<<20 {
		t.Fatalf("warming %d nodes added %d bytes of heap, want under 1 MiB", n, grew)
	}
}
