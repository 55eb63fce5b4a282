package dag

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refReachable is an independent BFS over the adjacency lists, used as the
// ground truth the label index is checked against.
func refReachable(g *Graph, from, to int) bool {
	if !g.Has(from) || !g.Has(to) {
		return false
	}
	seen := map[int]bool{from: true}
	queue := []int{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == to {
			return true
		}
		for s := range g.succ[n] {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return false
}

// randomForest builds a random single-parent DAG (every node's parent is a
// smaller id), the shape where intervals alone decide every query.
func randomForest(rng *rand.Rand, n int) *Graph {
	g := New()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = g.AddNode()
	}
	for i := 1; i < n; i++ {
		if rng.Intn(5) == 0 {
			continue // extra root
		}
		if err := g.AddEdge(ids[rng.Intn(i)], ids[i]); err != nil {
			panic(err)
		}
	}
	return g
}

func TestLabelsForestExactAndTreeOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		g := randomForest(rng, 30)
		l, err := g.Labels()
		if err != nil {
			t.Fatalf("trial %d: Labels: %v", trial, err)
		}
		if !l.TreeOnly() {
			t.Fatalf("trial %d: forest labeled non-tree", trial)
		}
		for a := 0; a < 30; a++ {
			for b := 0; b < 30; b++ {
				if got, want := g.HasPath(a, b), refReachable(g, a, b); got != want {
					t.Fatalf("trial %d: HasPath(%d,%d) = %v, want %v", trial, a, b, got, want)
				}
			}
		}
	}
}

func TestLabelsDAGFallbackMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(rng, 25, 0.25)
		l, err := g.Labels()
		if err != nil {
			t.Fatal(err)
		}
		_ = l
		for a := 0; a < 25; a++ {
			for b := 0; b < 25; b++ {
				if got, want := g.HasPath(a, b), refReachable(g, a, b); got != want {
					t.Fatalf("trial %d: HasPath(%d,%d) = %v, want %v", trial, a, b, got, want)
				}
			}
		}
	}
}

func TestLabelsInvalidatedByMutation(t *testing.T) {
	g, ids := buildChain(t, 5)
	g.Warm()
	if !g.LabelsWarm() {
		t.Fatal("Warm did not build the label index")
	}
	l, _ := g.Labels()
	gen := l.Generation()
	if gen != g.Generation() {
		t.Fatalf("label generation %d != graph generation %d", gen, g.Generation())
	}
	extra := g.AddNode()
	if g.LabelsWarm() {
		t.Fatal("mutation left a stale label index published")
	}
	if err := g.AddEdge(ids[4], extra); err != nil {
		t.Fatal(err)
	}
	if !g.HasPath(ids[0], extra) {
		t.Fatal("new path not visible after invalidation")
	}
	g.Warm()
	l2, _ := g.Labels()
	if l2.Generation() == gen {
		t.Fatal("rebuilt index kept the old generation stamp")
	}
	if !l2.HasPath(ids[0], extra) {
		t.Fatal("rebuilt index misses the new path")
	}
}

func TestLabelsIntervalAccessor(t *testing.T) {
	g, ids := buildChain(t, 3)
	l, err := g.Labels()
	if err != nil {
		t.Fatal(err)
	}
	pre0, post0 := l.Interval(ids[0])
	pre2, post2 := l.Interval(ids[2])
	if !(pre0 <= pre2 && post2 <= post0) {
		t.Fatalf("chain tail [%d,%d] not nested in head [%d,%d]", pre2, post2, pre0, post0)
	}
	if pre, post := l.Interval(-1); pre != -1 || post != -1 {
		t.Fatalf("Interval(-1) = (%d,%d), want (-1,-1)", pre, post)
	}
	if pre, post := l.Interval(99); pre != -1 || post != -1 {
		t.Fatalf("Interval(99) = (%d,%d), want (-1,-1)", pre, post)
	}
}

func TestLabelsAfterRemoveNode(t *testing.T) {
	g, _ := buildDiamond(t)
	g.Warm()
	g.RemoveNode(1)
	l, err := g.Labels()
	if err != nil {
		t.Fatal(err)
	}
	if pre, post := l.Interval(1); pre != -1 || post != -1 {
		t.Fatalf("dead node labeled (%d,%d)", pre, post)
	}
	if !g.HasPath(0, 3) {
		t.Fatal("path through surviving branch lost")
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if got, want := g.HasPath(a, b), refReachable(g, a, b); got != want {
				t.Fatalf("HasPath(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestHasPathWarmNoAllocs pins the acceptance criterion: a warm HasPath is
// a pure label compare — zero allocations, no graph walk.
func TestHasPathWarmNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := randomDAG(rng, 64, 0.15)
	g.Warm()
	if avg := testing.AllocsPerRun(200, func() {
		g.HasPath(0, 63)
		g.HasPath(63, 0)
		g.HasPath(5, 40)
	}); avg != 0 {
		t.Fatalf("warm HasPath allocates %.1f per run, want 0", avg)
	}
}

// TestHasPathDenseStackBounded pins the mark-on-push fix: on a complete DAG
// the DFS stack is bounded by V, not E. The pre-fix DFS pushed one stack
// entry per edge, which on this graph grows the stack slice past 250 KiB
// per query; the fixed DFS stays within a few KiB (seen slice + V ints).
func TestHasPathDenseStackBounded(t *testing.T) {
	const n = 256
	g := New()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = g.AddNode()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(ids[i], ids[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	target := g.AddNode() // unreachable: forces a full traversal
	if g.HasPath(ids[0], target) {
		t.Fatal("target should be unreachable")
	}
	if !g.HasPath(ids[0], ids[n-1]) {
		t.Fatal("dense DAG lost reachability")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.pathQueries.Store(0) // stay on the DFS path, not the index
			g.HasPath(ids[0], target)
		}
	})
	if bytes := res.AllocedBytesPerOp(); bytes > 32*1024 {
		t.Fatalf("dense DFS allocates %d B/op, want < 32 KiB (stack must be V-bounded)", bytes)
	}
}

func TestBitsetOrShapes(t *testing.T) {
	// Longer receiver: classic merge.
	a := NewBitset(256)
	b := NewBitset(64)
	b.Set(3)
	a.Or(b)
	if !a.Get(3) {
		t.Fatal("merge into longer receiver lost a bit")
	}
	// Shorter receiver, zero tail in other: tolerated.
	short := NewBitset(64)
	long := NewBitset(256)
	long.Set(10)
	short.Or(long)
	if !short.Get(10) {
		t.Fatal("merge into shorter receiver lost an in-range bit")
	}
	// Shorter receiver, set bit beyond capacity: loud failure, not an
	// index panic and not silent truncation.
	long.Set(200)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Or with unrepresentable bit did not panic")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "Bitset.Or") {
				t.Fatalf("panic %v lacks a descriptive message", r)
			}
		}()
		short.Or(long)
	}()
}

func TestBitsetOrGrow(t *testing.T) {
	short := NewBitset(64)
	short.Set(1)
	long := NewBitset(256)
	long.Set(200)
	merged := short.OrGrow(long)
	if !merged.Get(1) || !merged.Get(200) {
		t.Fatalf("OrGrow members = %v, want [1 200]", merged.Members())
	}
	// No growth needed: storage is reused.
	big := NewBitset(256)
	big.Set(7)
	same := big.OrGrow(long)
	if &same[0] != &big[0] {
		t.Fatal("OrGrow reallocated when the receiver was large enough")
	}
	if !same.Get(7) || !same.Get(200) {
		t.Fatal("in-place OrGrow lost bits")
	}
}

// TestAncestorsMatchesReach checks the upward walk against reachability on
// random layered DAGs, multi-parent nodes and wide ancestor sets included.
func TestAncestorsMatchesReach(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := New()
		n := 20 + rng.Intn(200)
		for i := 0; i < n; i++ {
			id := g.AddNode()
			for e := rng.Intn(4); e > 0 && id > 0; e-- {
				if err := g.AddEdge(rng.Intn(id), id); err != nil {
					t.Fatal(err)
				}
			}
		}
		for id := 0; id < n; id++ {
			var want []int
			for p := 0; p < n; p++ {
				if p != id && g.HasPath(p, id) {
					want = append(want, p)
				}
			}
			if got := g.Ancestors(id); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: Ancestors(%d) = %v, want %v", trial, id, got, want)
			}
		}
	}
}

// TestAncestorsCostFollowsRegion pins what the scratch []bool of len(alive)
// used to break: the walk's allocation depends on the ancestor region, not on
// how many other nodes the graph holds.
func TestAncestorsCostFollowsRegion(t *testing.T) {
	bytesPerOp := func(n int) int64 {
		g := New()
		root := g.AddNode()
		leaf := root
		for d := 0; d < 8; d++ { // the region: a chain of 8 with one diamond
			next := g.AddNode()
			if err := g.AddEdge(leaf, next); err != nil {
				t.Fatal(err)
			}
			leaf = next
		}
		if err := g.AddEdge(root, leaf); err != nil {
			t.Fatal(err)
		}
		for g.Len() < n { // everything else: unrelated siblings
			if err := g.AddEdge(root, g.AddNode()); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(g.Ancestors(leaf)); got != 8 {
			t.Fatalf("n=%d: %d ancestors, want 8", n, got)
		}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Ancestors(leaf)
			}
		}).AllocedBytesPerOp()
	}
	if small, large := bytesPerOp(1<<10), bytesPerOp(1<<14); small != large {
		t.Fatalf("Ancestors allocates %d B/op at 1k nodes and %d B/op at 16k, want equal", small, large)
	}
}
