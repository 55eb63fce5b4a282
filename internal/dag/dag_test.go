package dag

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// buildChain returns a graph 0→1→2→…→(n-1) and the node ids.
func buildChain(t *testing.T, n int) (*Graph, []int) {
	t.Helper()
	g := New()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = g.AddNode()
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(ids[i], ids[i+1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", ids[i], ids[i+1], err)
		}
	}
	return g, ids
}

// buildDiamond returns a→{b,c}→d.
func buildDiamond(t *testing.T) (*Graph, [4]int) {
	t.Helper()
	g := New()
	var ids [4]int
	for i := range ids {
		ids[i] = g.AddNode()
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(ids[e[0]], ids[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New()
	for want := 0; want < 5; want++ {
		if got := g.AddNode(); got != want {
			t.Fatalf("AddNode() = %d, want %d", got, want)
		}
	}
	if g.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", g.Len())
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New()
	a := g.AddNode()
	if err := g.AddEdge(a, a); !errors.Is(err, ErrCycle) {
		t.Fatalf("self loop: got %v, want ErrCycle", err)
	}
}

func TestAddEdgeRejectsCycle(t *testing.T) {
	g, ids := buildChain(t, 3)
	if err := g.AddEdge(ids[2], ids[0]); !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle: got %v, want ErrCycle", err)
	}
	// graph unchanged
	if g.HasEdge(ids[2], ids[0]) {
		t.Fatal("rejected edge was inserted")
	}
}

func TestAddEdgeMissingNode(t *testing.T) {
	g := New()
	a := g.AddNode()
	if err := g.AddEdge(a, 99); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing node: got %v, want ErrNoNode", err)
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(a, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.EdgeCount(); got != 1 {
		t.Fatalf("EdgeCount() = %d, want 1", got)
	}
}

func TestHasPathReflexiveAndTransitive(t *testing.T) {
	g, ids := buildChain(t, 4)
	if !g.HasPath(ids[0], ids[0]) {
		t.Error("node must reach itself")
	}
	if !g.HasPath(ids[0], ids[3]) {
		t.Error("chain head must reach tail")
	}
	if g.HasPath(ids[3], ids[0]) {
		t.Error("tail must not reach head")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g, ids := buildDiamond(t)
	order, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violates topo order %v", e, order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("order has %d nodes, want 4", len(order))
	}
	_ = ids
}

func TestTopoDeterministic(t *testing.T) {
	g, _ := buildDiamond(t)
	a, _ := g.Topo()
	b, _ := g.Topo()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Topo not deterministic: %v vs %v", a, b)
	}
}

func TestDescendantsAncestors(t *testing.T) {
	g, ids := buildDiamond(t)
	gotD, _ := g.Reach(ids[0])
	wantD := []int{ids[0], ids[1], ids[2], ids[3]}
	sort.Ints(wantD)
	if !reflect.DeepEqual(gotD.Members(), wantD) {
		t.Errorf("ReachableSet(root) = %v, want %v", gotD.Members(), wantD)
	}
	gotA := g.Ancestors(ids[3])
	wantA := []int{ids[0], ids[1], ids[2]}
	sort.Ints(wantA)
	if !reflect.DeepEqual(gotA, wantA) {
		t.Errorf("Ancestors(sink) = %v, want %v", gotA, wantA)
	}
	if got, _ := g.Reach(ids[3]); got.Count() != 1 {
		t.Errorf("ReachableSet(sink) = %v, want only itself", got.Members())
	}
	// The memoized list of a warm graph goes with the labels on mutation.
	g.Warm()
	g.Ancestors(ids[3])
	top := g.AddNode()
	if err := g.AddEdge(top, ids[0]); err != nil {
		t.Fatal(err)
	}
	g.Warm()
	if got := g.Ancestors(ids[3]); len(got) != 4 || got[3] != top {
		t.Errorf("Ancestors(sink) after adding a root = %v, want %v and %d", got, wantA, top)
	}
}

func TestRootsLeaves(t *testing.T) {
	g, ids := buildDiamond(t)
	if got := g.Roots(); !reflect.DeepEqual(got, []int{ids[0]}) {
		t.Errorf("Roots() = %v, want [%d]", got, ids[0])
	}
	if got := g.Leaves(); !reflect.DeepEqual(got, []int{ids[3]}) {
		t.Errorf("Leaves() = %v, want [%d]", got, ids[3])
	}
}

func TestRemoveNodeDropsEdges(t *testing.T) {
	g, ids := buildDiamond(t)
	g.RemoveNode(ids[1])
	if g.Has(ids[1]) {
		t.Fatal("node still present")
	}
	if g.HasPath(ids[0], ids[3]) == false {
		// still reachable through ids[2]
		t.Fatal("path through surviving branch lost")
	}
	g.RemoveNode(ids[2])
	if g.HasPath(ids[0], ids[3]) {
		t.Fatal("path should be gone after both branches removed")
	}
}

// TestEliminatePreservesReachability checks the central contract of the
// paper's node elimination procedure: reachability among surviving nodes is
// unchanged.
func TestEliminatePreservesReachability(t *testing.T) {
	g, ids := buildDiamond(t)
	if err := g.Eliminate(ids[1], false); err != nil {
		t.Fatal(err)
	}
	if !g.HasPath(ids[0], ids[3]) {
		t.Fatal("elimination broke reachability")
	}
}

// TestEliminateAvoidsRedundantEdges reproduces the paper's requirement that
// elimination not introduce an edge j→k when a path already exists: in the
// diamond, eliminating b must not add a→d because a→c→d survives.
func TestEliminateAvoidsRedundantEdges(t *testing.T) {
	g, ids := buildDiamond(t)
	if err := g.Eliminate(ids[1], false); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(ids[0], ids[3]) {
		t.Fatal("redundant edge a→d was added in off-path mode")
	}
}

// TestEliminateKeepRedundant checks the on-path variant: the direct edge IS
// added even though an alternate path exists.
func TestEliminateKeepRedundant(t *testing.T) {
	g, ids := buildDiamond(t)
	if err := g.Eliminate(ids[1], true); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(ids[0], ids[3]) {
		t.Fatal("on-path elimination must add the direct edge a→d")
	}
}

// TestEliminateChainMiddle eliminates the middle of a chain and expects the
// ends to be joined directly.
func TestEliminateChainMiddle(t *testing.T) {
	g, ids := buildChain(t, 3)
	if err := g.Eliminate(ids[1], false); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(ids[0], ids[2]) {
		t.Fatal("chain ends not joined after elimination")
	}
}

func TestEliminateMissing(t *testing.T) {
	g := New()
	if err := g.Eliminate(3, false); !errors.Is(err, ErrNoNode) {
		t.Fatalf("got %v, want ErrNoNode", err)
	}
}

func TestTransitiveReductionDiamondPlusShortcut(t *testing.T) {
	g, ids := buildDiamond(t)
	if err := g.AddEdge(ids[0], ids[3]); err != nil {
		t.Fatal(err)
	}
	if !g.IsRedundantEdge(ids[0], ids[3]) {
		t.Fatal("shortcut should be redundant")
	}
	if err := g.TransitiveReduction(); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(ids[0], ids[3]) {
		t.Fatal("transitive reduction kept the shortcut edge")
	}
	if g.EdgeCount() != 4 {
		t.Fatalf("EdgeCount() = %d, want 4", g.EdgeCount())
	}
}

func TestTransitiveClosure(t *testing.T) {
	g, ids := buildChain(t, 4)
	if err := g.TransitiveClosure(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if !g.HasEdge(ids[i], ids[j]) {
				t.Errorf("closure missing edge %d→%d", i, j)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g, ids := buildDiamond(t)
	c := g.Clone()
	c.RemoveNode(ids[3])
	if !g.Has(ids[3]) {
		t.Fatal("mutating clone changed original")
	}
	if c.Has(ids[3]) {
		t.Fatal("clone removal failed")
	}
}

func TestDOTOutputStable(t *testing.T) {
	g, _ := buildDiamond(t)
	a := g.DOT("d", nil)
	b := g.DOT("d", nil)
	if a != b {
		t.Fatal("DOT output not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("DOT output empty")
	}
}

// randomDAG builds a random DAG with n nodes where edges only go from lower
// to higher ids (guaranteeing acyclicity).
func randomDAG(rng *rand.Rand, n int, p float64) *Graph {
	g := New()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = g.AddNode()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				if err := g.AddEdge(ids[i], ids[j]); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// TestEliminateReachabilityProperty: property test that Eliminate preserves
// reachability among all surviving node pairs on random DAGs, in both modes.
func TestEliminateReachabilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(8)
		g := randomDAG(rng, n, 0.35)
		victim := rng.Intn(n)
		keepRedundant := trial%2 == 1

		// record reachability among survivors before
		type pair struct{ a, b int }
		want := map[pair]bool{}
		for _, a := range g.Nodes() {
			for _, b := range g.Nodes() {
				if a != victim && b != victim {
					want[pair{a, b}] = g.HasPath(a, b)
				}
			}
		}
		if err := g.Eliminate(victim, keepRedundant); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for p, w := range want {
			if got := g.HasPath(p.a, p.b); got != w {
				t.Fatalf("trial %d (keepRedundant=%v): reachability %d→%d changed: got %v want %v",
					trial, keepRedundant, p.a, p.b, got, w)
			}
		}
	}
}

// TestEliminateIrredundancyProperty: off-path elimination on an initially
// irredundant graph leaves the graph irredundant.
func TestEliminateIrredundancyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(8)
		g := randomDAG(rng, n, 0.3)
		if err := g.TransitiveReduction(); err != nil {
			t.Fatal(err)
		}
		victim := rng.Intn(n)
		if err := g.Eliminate(victim, false); err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			if g.IsRedundantEdge(e[0], e[1]) {
				t.Fatalf("trial %d: edge %v is redundant after off-path elimination", trial, e)
			}
		}
	}
}

// TestTransitiveReductionMinimalProperty: after reduction, no edge is
// redundant, and reachability is preserved.
func TestTransitiveReductionMinimalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(8)
		g := randomDAG(rng, n, 0.5)
		before := map[[2]int]bool{}
		for _, a := range g.Nodes() {
			for _, b := range g.Nodes() {
				before[[2]int{a, b}] = g.HasPath(a, b)
			}
		}
		if err := g.TransitiveReduction(); err != nil {
			t.Fatal(err)
		}
		for p, w := range before {
			if g.HasPath(p[0], p[1]) != w {
				t.Fatalf("trial %d: reduction changed reachability %v", trial, p)
			}
		}
		for _, e := range g.Edges() {
			if g.IsRedundantEdge(e[0], e[1]) {
				t.Fatalf("trial %d: redundant edge %v survived reduction", trial, e)
			}
		}
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	set := []int{0, 1, 63, 64, 65, 129}
	for _, i := range set {
		b.Set(i)
	}
	for i := -1; i <= 130; i++ {
		if want := slices.Contains(set, i); b.Get(i) != want {
			t.Fatalf("Get(%d) = %v, want %v", i, !want, want)
		}
	}
	if b.Get(-64) || b.Get(1<<20) {
		t.Fatal("out-of-range Get must report false")
	}
}

// TestBitsetRoundTripQuick uses testing/quick: after setting a list of
// small ints, Get reports exactly those over [0, 256).
func TestBitsetRoundTripQuick(t *testing.T) {
	f := func(xs []uint8) bool {
		b := NewBitset(256)
		want := map[int]bool{}
		for _, x := range xs {
			b.Set(int(x))
			want[int(x)] = true
		}
		for i := 0; i < 256; i++ {
			if b.Get(i) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
