package hierarchy

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// animals builds the Figure 1a hierarchy from the paper:
//
//	Animal → Bird → Canary → Tweety
//	               → Penguin → GalapagosPenguin → {Paul, Patricia}
//	                         → AmazingFlyingPenguin → {Pamela, Patricia, Peter}
func animals(t *testing.T) *Hierarchy {
	t.Helper()
	h := New("Animal")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(h.AddClass("Bird"))
	must(h.AddClass("Canary", "Bird"))
	must(h.AddInstance("Tweety", "Canary"))
	must(h.AddClass("Penguin", "Bird"))
	must(h.AddClass("GalapagosPenguin", "Penguin"))
	must(h.AddClass("AmazingFlyingPenguin", "Penguin"))
	must(h.AddInstance("Paul", "GalapagosPenguin"))
	must(h.AddInstance("Patricia", "GalapagosPenguin", "AmazingFlyingPenguin"))
	must(h.AddInstance("Pamela", "AmazingFlyingPenguin"))
	must(h.AddInstance("Peter", "AmazingFlyingPenguin"))
	return h
}

func TestNewHasRoot(t *testing.T) {
	h := New("Animal")
	if !h.Has("Animal") {
		t.Fatal("root missing")
	}
	if h.Domain() != "Animal" {
		t.Fatalf("Domain() = %q", h.Domain())
	}
	if h.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", h.Len())
	}
}

func TestAddClassDefaultsUnderRoot(t *testing.T) {
	h := New("D")
	if err := h.AddClass("c"); err != nil {
		t.Fatal(err)
	}
	if got := h.Parents("c"); !reflect.DeepEqual(got, []string{"D"}) {
		t.Fatalf("Parents(c) = %v", got)
	}
}

func TestAddDuplicate(t *testing.T) {
	h := New("D")
	if err := h.AddClass("c"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddClass("c"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("got %v, want ErrDuplicate", err)
	}
	if err := h.AddClass("D"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("domain name reuse: got %v, want ErrDuplicate", err)
	}
}

func TestAddUnknownParent(t *testing.T) {
	h := New("D")
	if err := h.AddClass("c", "nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("got %v, want ErrUnknown", err)
	}
}

func TestAddEmptyName(t *testing.T) {
	h := New("D")
	if err := h.AddClass(""); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("got %v, want ErrEmptyName", err)
	}
}

func TestInstanceCannotParent(t *testing.T) {
	h := New("D")
	if err := h.AddInstance("i"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddClass("c", "i"); !errors.Is(err, ErrInstanceParent) {
		t.Fatalf("got %v, want ErrInstanceParent", err)
	}
	if err := h.AddClass("c"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge("i", "c"); !errors.Is(err, ErrInstanceParent) {
		t.Fatalf("AddEdge from instance: got %v, want ErrInstanceParent", err)
	}
}

func TestSubsumesTransitive(t *testing.T) {
	h := animals(t)
	cases := []struct {
		anc, desc string
		want      bool
	}{
		{"Animal", "Tweety", true},
		{"Bird", "Paul", true},
		{"Penguin", "Patricia", true},
		{"GalapagosPenguin", "Patricia", true},
		{"AmazingFlyingPenguin", "Patricia", true},
		{"Canary", "Paul", false},
		{"Tweety", "Bird", false},
		{"Bird", "Bird", true}, // reflexive
		{"nope", "Bird", false},
		{"Bird", "nope", false},
	}
	for _, c := range cases {
		if got := h.Subsumes(c.anc, c.desc); got != c.want {
			t.Errorf("Subsumes(%q,%q) = %v, want %v", c.anc, c.desc, got, c.want)
		}
	}
	if h.StrictlySubsumes("Bird", "Bird") {
		t.Error("StrictlySubsumes must be irreflexive")
	}
	if !h.StrictlySubsumes("Bird", "Paul") {
		t.Error("StrictlySubsumes(Bird,Paul) = false")
	}
}

func TestAddEdgeCycleRejected(t *testing.T) {
	h := animals(t)
	if err := h.AddEdge("Penguin", "Bird"); !errors.Is(err, ErrCycle) {
		t.Fatalf("got %v, want ErrCycle", err)
	}
}

func TestLeaves(t *testing.T) {
	h := animals(t)
	want := []string{"Pamela", "Patricia", "Paul", "Peter"}
	if got := h.Leaves("Penguin"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Leaves(Penguin) = %v, want %v", got, want)
	}
	if got := h.Leaves("Tweety"); !reflect.DeepEqual(got, []string{"Tweety"}) {
		t.Fatalf("Leaves(Tweety) = %v", got)
	}
	all := h.AllLeaves()
	wantAll := []string{"Pamela", "Patricia", "Paul", "Peter", "Tweety"}
	if !reflect.DeepEqual(all, wantAll) {
		t.Fatalf("AllLeaves = %v, want %v", all, wantAll)
	}
}

func TestLeavesIncludesChildlessClass(t *testing.T) {
	h := New("D")
	if err := h.AddClass("empty"); err != nil {
		t.Fatal(err)
	}
	if got := h.Leaves("D"); !reflect.DeepEqual(got, []string{"empty"}) {
		t.Fatalf("Leaves(D) = %v, want [empty]", got)
	}
}

func TestAncestorsDescendants(t *testing.T) {
	h := animals(t)
	wantAnc := []string{"AmazingFlyingPenguin", "Animal", "Bird", "GalapagosPenguin", "Penguin"}
	if got := h.Ancestors("Patricia"); !reflect.DeepEqual(got, wantAnc) {
		t.Fatalf("Ancestors(Patricia) = %v, want %v", got, wantAnc)
	}
	wantDesc := []string{"AmazingFlyingPenguin", "GalapagosPenguin", "Pamela", "Patricia", "Paul", "Peter"}
	if got := h.Descendants("Penguin"); !reflect.DeepEqual(got, wantDesc) {
		t.Fatalf("Descendants(Penguin) = %v, want %v", got, wantDesc)
	}
}

func TestOverlaps(t *testing.T) {
	h := animals(t)
	cases := []struct {
		a, b string
		want bool
	}{
		{"Bird", "Penguin", true},                          // comparable
		{"GalapagosPenguin", "AmazingFlyingPenguin", true}, // Patricia
		{"Canary", "Penguin", false},                       // disjoint
		{"Canary", "GalapagosPenguin", false},              // disjoint
		{"Tweety", "Tweety", true},                         // equal
	}
	for _, c := range cases {
		if got := h.Overlaps(c.a, c.b); got != c.want {
			t.Errorf("Overlaps(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMeets(t *testing.T) {
	h := animals(t)
	// comparable: the more specific
	if got := h.Meets("Bird", "Penguin"); !reflect.DeepEqual(got, []string{"Penguin"}) {
		t.Fatalf("Meets(Bird,Penguin) = %v", got)
	}
	if got := h.Meets("Penguin", "Bird"); !reflect.DeepEqual(got, []string{"Penguin"}) {
		t.Fatalf("Meets(Penguin,Bird) = %v", got)
	}
	// incomparable with common members: Patricia is the only common node
	got := h.Meets("GalapagosPenguin", "AmazingFlyingPenguin")
	if !reflect.DeepEqual(got, []string{"Patricia"}) {
		t.Fatalf("Meets(GP,AFP) = %v, want [Patricia]", got)
	}
	// disjoint
	if got := h.Meets("Canary", "Penguin"); got != nil {
		t.Fatalf("Meets(Canary,Penguin) = %v, want nil", got)
	}
}

// TestMeetsMaximality: meets must be maximal — with an intersection class
// above shared instances, the class (not the instances) is the meet.
func TestMeetsMaximality(t *testing.T) {
	h := New("D")
	for _, c := range []string{"A", "B"} {
		if err := h.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddClass("AB", "A", "B"); err != nil {
		t.Fatal(err)
	}
	for _, i := range []string{"x", "y"} {
		if err := h.AddInstance(i, "AB"); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Meets("A", "B"); !reflect.DeepEqual(got, []string{"AB"}) {
		t.Fatalf("Meets(A,B) = %v, want [AB]", got)
	}
}

func TestIrredundantAndStrip(t *testing.T) {
	h := animals(t)
	if !h.Irredundant() {
		t.Fatal("fresh hierarchy should be irredundant")
	}
	// Appendix example: a redundant link stating Pamela is a Penguin.
	if err := h.AddEdge("Penguin", "Pamela"); err != nil {
		t.Fatal(err)
	}
	if h.Irredundant() {
		t.Fatal("hierarchy with Penguin→Pamela should be redundant")
	}
	want := [][2]string{{"Penguin", "Pamela"}}
	if got := h.RedundantEdges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RedundantEdges = %v, want %v", got, want)
	}
	if err := h.StripRedundant(); err != nil {
		t.Fatal(err)
	}
	if !h.Irredundant() {
		t.Fatal("StripRedundant did not restore irredundancy")
	}
	if !h.Subsumes("Penguin", "Pamela") {
		t.Fatal("StripRedundant changed membership")
	}
}

func TestPrefer(t *testing.T) {
	h := New("D")
	for _, c := range []string{"A", "B"} {
		if err := h.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Prefer("A", "B"); err != nil {
		t.Fatal(err)
	}
	// Binding subsumption now sees B above A…
	if !h.BindSubsumes("B", "A") {
		t.Fatal("preference edge not visible to BindSubsumes")
	}
	// …but membership is unchanged.
	if h.Subsumes("B", "A") || h.Subsumes("A", "B") {
		t.Fatal("preference edge leaked into membership")
	}
	// The reverse preference would now create a binding cycle.
	if err := h.Prefer("B", "A"); !errors.Is(err, ErrCycle) {
		t.Fatalf("got %v, want ErrCycle", err)
	}
	want := [][2]string{{"A", "B"}}
	if got := h.Preferences(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Preferences = %v, want %v", got, want)
	}
}

func TestPreferUnknown(t *testing.T) {
	h := New("D")
	if err := h.Prefer("x", "D"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("got %v, want ErrUnknown", err)
	}
	if err := h.Prefer("D", "x"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("got %v, want ErrUnknown", err)
	}
}

func TestTopoIndexRespectsSpecificity(t *testing.T) {
	h := animals(t)
	idx := h.TopoIndex()
	pairs := [][2]string{
		{"Animal", "Bird"},
		{"Bird", "Penguin"},
		{"Penguin", "Patricia"},
		{"AmazingFlyingPenguin", "Peter"},
	}
	for _, p := range pairs {
		if idx[p[0]] >= idx[p[1]] {
			t.Errorf("TopoIndex: %q (%d) should precede %q (%d)", p[0], idx[p[0]], p[1], idx[p[1]])
		}
	}
}

func TestNodesSorted(t *testing.T) {
	h := animals(t)
	nodes := h.Nodes()
	if len(nodes) != 11 {
		t.Fatalf("len(Nodes) = %d, want 11", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("Nodes not sorted at %d: %v", i, nodes)
		}
	}
}

func TestDOTStable(t *testing.T) {
	h := animals(t)
	if h.DOT() != h.DOT() {
		t.Fatal("DOT not deterministic")
	}
}

func TestMustIDAndNameOfRoundTrip(t *testing.T) {
	h := animals(t)
	for _, n := range h.Nodes() {
		if got := h.NameOf(h.MustID(n)); got != n {
			t.Fatalf("round trip %q → %q", n, got)
		}
	}
}

func TestMustIDPanics(t *testing.T) {
	h := New("D")
	defer func() {
		if recover() == nil {
			t.Fatal("MustID on unknown name did not panic")
		}
	}()
	h.MustID("nope")
}

// TestSubsumptionPartialOrderProperty checks that Subsumes is a partial
// order (reflexive, antisymmetric, transitive) on random hierarchies.
func TestSubsumptionPartialOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		h := randomHierarchy(rng, 12)
		nodes := h.Nodes()
		for _, a := range nodes {
			if !h.Subsumes(a, a) {
				t.Fatal("not reflexive")
			}
		}
		for _, a := range nodes {
			for _, b := range nodes {
				if a != b && h.Subsumes(a, b) && h.Subsumes(b, a) {
					t.Fatalf("antisymmetry violated: %q, %q", a, b)
				}
				for _, c := range nodes {
					if h.Subsumes(a, b) && h.Subsumes(b, c) && !h.Subsumes(a, c) {
						t.Fatalf("transitivity violated: %q %q %q", a, b, c)
					}
				}
			}
		}
	}
}

// TestMeetsSoundCompleteProperty checks on random hierarchies that Meets
// returns exactly the maximal common descendants.
func TestMeetsSoundCompleteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		h := randomHierarchy(rng, 10)
		nodes := h.Nodes()
		a := nodes[rng.Intn(len(nodes))]
		b := nodes[rng.Intn(len(nodes))]
		meets := h.Meets(a, b)
		inMeets := map[string]bool{}
		for _, m := range meets {
			inMeets[m] = true
			if !h.Subsumes(a, m) || !h.Subsumes(b, m) {
				t.Fatalf("meet %q not common under %q,%q", m, a, b)
			}
		}
		// every common descendant must be subsumed by some meet
		for _, x := range nodes {
			if h.Subsumes(a, x) && h.Subsumes(b, x) {
				covered := false
				for _, m := range meets {
					if h.Subsumes(m, x) {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("common node %q of (%q,%q) not covered by meets %v", x, a, b, meets)
				}
			}
		}
		// meets are mutually incomparable
		for _, m1 := range meets {
			for _, m2 := range meets {
				if m1 != m2 && h.Subsumes(m1, m2) {
					t.Fatalf("meets not maximal: %q subsumes %q", m1, m2)
				}
			}
		}
	}
}

// TestOverlapRegionMatchesOverlaps checks on random hierarchies that the
// walked region is exactly the set of nodes Overlaps accepts, and that the
// size cut-off refuses without enumerating.
func TestOverlapRegionMatchesOverlaps(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		h := randomHierarchy(rng, 14)
		for _, name := range h.Nodes() {
			below := len(h.Descendants(name)) + 1
			if region, ok := h.OverlapRegion(name, below-1); ok || region != nil {
				t.Fatalf("%q has %d nodes at or below it, yet maxBelow=%d enumerated %v", name, below, below-1, region)
			}
			region, ok := h.OverlapRegion(name, below)
			if !ok {
				t.Fatalf("OverlapRegion(%q, %d) refused", name, below)
			}
			sort.Strings(region)
			var want []string
			for _, n := range h.Nodes() {
				if h.Overlaps(n, name) {
					want = append(want, n)
				}
			}
			if !reflect.DeepEqual(region, want) {
				t.Fatalf("OverlapRegion(%q) = %v, Overlaps accepts %v", name, region, want)
			}
		}
		if _, ok := h.OverlapRegion("no-such-node", 100); ok {
			t.Fatal("unknown node enumerated a region")
		}
	}
}

// randomHierarchy builds a random DAG hierarchy with n extra nodes.
func randomHierarchy(rng *rand.Rand, n int) *Hierarchy {
	h := New("root")
	names := []string{"root"}
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		// pick 1-2 random existing parents
		p1 := names[rng.Intn(len(names))]
		parents := []string{p1}
		if rng.Intn(3) == 0 {
			p2 := names[rng.Intn(len(names))]
			if p2 != p1 {
				parents = append(parents, p2)
			}
		}
		if err := h.AddClass(name, parents...); err != nil {
			panic(err)
		}
		names = append(names, name)
	}
	return h
}
