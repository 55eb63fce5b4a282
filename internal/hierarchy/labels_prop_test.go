package hierarchy

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestNameOfUnknownIDs(t *testing.T) {
	h := New("D")
	if err := h.AddClass("c"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddInstance("gone", "c"); err != nil {
		t.Fatal(err)
	}
	stale := h.IDOf("gone")
	if err := h.RemoveLeaf("gone"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		id   int
		want string
	}{
		{"root", h.IDOf("D"), "D"},
		{"class", h.IDOf("c"), "c"},
		{"negative", -1, ""},
		{"very negative", -99, ""},
		{"stale (removed leaf)", stale, ""},
		{"just past end", stale + 1, ""},
		{"far past end", 1 << 20, ""},
	}
	for _, tc := range cases {
		if got := h.NameOf(tc.id); got != tc.want {
			t.Errorf("%s: NameOf(%d) = %q, want %q", tc.name, tc.id, got, tc.want)
		}
	}
}

// refSubsumes recomputes subsumption by BFS over the given children
// function, independent of the dag package's reachability machinery.
func refSubsumes(h *Hierarchy, children func(string) []string, a, b string) bool {
	if !h.Has(a) || !h.Has(b) {
		return false
	}
	if a == b {
		return true
	}
	seen := map[string]bool{a: true}
	queue := []string{a}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range children(n) {
			if c == b {
				return true
			}
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return false
}

// randomEdit applies one random mutation — a class (sometimes with a second
// parent), an instance, an is-a edge, a preference edge, a dropped leaf — or
// warms the indexes. Edits may be rejected (cycle, instance parent,
// duplicate): the point is that accepted ones are indexed correctly.
func randomEdit(t *testing.T, h *Hierarchy, rng *rand.Rand, step int, names, classes *[]string) {
	t.Helper()
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	switch op := rng.Intn(12); {
	case op < 3 && len(*classes) < 50:
		name := fmt.Sprintf("c%03d", step)
		parents := []string{pick(*classes)}
		if rng.Intn(3) == 0 {
			if p2 := pick(*classes); p2 != parents[0] {
				parents = append(parents, p2)
			}
		}
		if err := h.AddClass(name, parents...); err == nil {
			*names = append(*names, name)
			*classes = append(*classes, name)
		}
	case op < 6:
		name := fmt.Sprintf("i%03d", step)
		if err := h.AddInstance(name, pick(*classes)); err == nil {
			*names = append(*names, name)
		}
	case op < 8:
		_ = h.AddEdge(pick(*classes), pick(*names))
	case op < 9:
		_ = h.Prefer(pick(*names), pick(*names))
	case op < 10:
		_ = h.RemoveLeaf(pick(*names))
	default:
		h.Warm()
		if !h.IndexWarm() {
			t.Fatalf("step %d: Warm left the label index cold", step)
		}
	}
}

// TestLabelIndexMatchesDFSProperty interleaves every mutating operation with
// warm-ups and checks that Subsumes/BindSubsumes — answered by the interval-
// label index when warm, by DFS when cold — always agree with an independent
// BFS over the name-level adjacency.
func TestLabelIndexMatchesDFSProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1989))
	for trial := 0; trial < 6; trial++ {
		h := New(fmt.Sprintf("D%d", trial))
		names := []string{h.Domain()}
		classes := []string{h.Domain()}
		pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }

		check := func(step int) {
			t.Helper()
			for q := 0; q < 250; q++ {
				a, b := pick(names), pick(names)
				if got, want := h.Subsumes(a, b), refSubsumes(h, h.Children, a, b); got != want {
					t.Fatalf("trial %d step %d: Subsumes(%q,%q) = %v, want %v (warm=%v)",
						trial, step, a, b, got, want, h.IndexWarm())
				}
				if got, want := h.BindSubsumesID(h.IDOf(a), h.IDOf(b)), refSubsumes(h, func(n string) []string { return bindChildren(h, n) }, a, b); got != want {
					t.Fatalf("trial %d step %d: BindSubsumes(%q,%q) = %v, want %v",
						trial, step, a, b, got, want)
				}
			}
		}

		for step := 0; step < 140; step++ {
			randomEdit(t, h, rng, step, &names, &classes)
			if step%35 == 34 {
				check(step)
			}
		}
		// Final pass both cold (post-mutation) and warm.
		check(-1)
		h.Warm()
		check(-2)
	}
}

// TestAddEdgeRejectsBindingCycle pins a bug the property test found: an
// is-a edge that is acyclic in the is-a graph could still close a cycle
// through an earlier preference edge, and the next binding-graph rebuild
// panicked. AddEdge must reject it up front.
func TestAddEdgeRejectsBindingCycle(t *testing.T) {
	h := New("D")
	for _, c := range []string{"a", "b"} {
		if err := h.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	// Binding edge a → b (b preempts a).
	if err := h.Prefer("b", "a"); err != nil {
		t.Fatal(err)
	}
	// is-a edge b → a would close the cycle in the binding graph.
	if err := h.AddEdge("b", "a"); !errors.Is(err, ErrCycle) {
		t.Fatalf("AddEdge(b,a) = %v, want ErrCycle", err)
	}
	// The hierarchy must remain fully usable (no poisoned rebuild).
	h.Warm()
	if !h.BindSubsumesID(h.IDOf("a"), h.IDOf("b")) {
		t.Fatal("preference edge lost")
	}
	if h.Subsumes("b", "a") {
		t.Fatal("rejected is-a edge took effect")
	}
}

// TestSubsumesWarmNoAllocs pins the tentpole's O(1) claim at the hierarchy
// level: a warm Subsumes is two map lookups plus a label compare.
func TestSubsumesWarmNoAllocs(t *testing.T) {
	h := New("D")
	for c := 0; c < 20; c++ {
		if err := h.AddClass(fmt.Sprintf("c%02d", c)); err != nil {
			t.Fatal(err)
		}
		if err := h.AddInstance(fmt.Sprintf("i%02d", c), fmt.Sprintf("c%02d", c)); err != nil {
			t.Fatal(err)
		}
	}
	h.Warm()
	if avg := testing.AllocsPerRun(200, func() {
		h.Subsumes("c03", "i03")
		h.Subsumes("c03", "i07")
		h.BindSubsumesID(h.IDOf("D"), h.IDOf("i19"))
	}); avg != 0 {
		t.Fatalf("warm Subsumes allocates %.1f per run, want 0", avg)
	}
}

// refBelow is the set of nodes a subsumes, by BFS over Children.
func refBelow(h *Hierarchy, a string) map[string]bool {
	below := map[string]bool{}
	if !h.Has(a) {
		return below
	}
	below[a] = true
	for queue := []string{a}; len(queue) > 0; queue = queue[1:] {
		for _, c := range h.Children(queue[0]) {
			if !below[c] {
				below[c] = true
				queue = append(queue, c)
			}
		}
	}
	return below
}

// refMeets is the enumeration Overlaps and Meets replaced: list the common
// descendants, keep those no other common descendant subsumes.
func refMeets(h *Hierarchy, a, b string) []string {
	ba, bb := refBelow(h, a), refBelow(h, b)
	var common, out []string
	for n := range ba {
		if bb[n] {
			common = append(common, n)
		}
	}
	for _, c := range common {
		maximal := true
		for _, d := range common {
			if d != c && refBelow(h, d)[c] {
				maximal = false
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// TestOverlapsMeetsMatchReference interleaves the same random edits — second
// parents, preference edges, dropped leaves, warm-ups — with checks that the
// bitset Overlaps and the predecessor-tested Meets agree with enumerating
// the common descendants, cold and warm.
func TestOverlapsMeetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 6; trial++ {
		h := New(fmt.Sprintf("D%d", trial))
		names := []string{h.Domain()}
		classes := []string{h.Domain()}
		check := func(step int) {
			t.Helper()
			for q := 0; q < 120; q++ {
				a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
				want := refMeets(h, a, b)
				if got := h.Meets(a, b); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("trial %d step %d: Meets(%q,%q) = %v, want %v", trial, step, a, b, got, want)
				}
				if got := h.Overlaps(a, b); got != (len(want) > 0) {
					t.Fatalf("trial %d step %d: Overlaps(%q,%q) = %v, meets %v (warm=%v)", trial, step, a, b, got, want, h.IndexWarm())
				}
			}
		}
		for step := 0; step < 140; step++ {
			randomEdit(t, h, rng, step, &names, &classes)
			if step%20 == 19 {
				check(step)
			}
		}
		h.Warm()
		check(-1)
	}
}

// TestOverlapsWarmNoAllocs: a warm Overlaps is a label compare or, for
// incomparable classes, a word-wise pass over two memoized reach sets.
func TestOverlapsWarmNoAllocs(t *testing.T) {
	h := New("D")
	for c := 0; c < 20; c++ {
		if err := h.AddClass(fmt.Sprintf("c%02d", c)); err != nil {
			t.Fatal(err)
		}
		if err := h.AddInstance(fmt.Sprintf("i%02d", c), fmt.Sprintf("c%02d", c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddEdge("c04", "i03"); err != nil { // i03 ∈ c03 ∩ c04: not a forest
		t.Fatal(err)
	}
	h.Warm()
	if !h.Overlaps("c03", "c04") || h.Overlaps("c03", "c05") || !h.Overlaps("D", "i19") {
		t.Fatal("Overlaps answers wrongly")
	}
	if avg := testing.AllocsPerRun(200, func() {
		h.Overlaps("c03", "c04")
		h.Overlaps("c03", "c05")
		h.Overlaps("D", "i19")
	}); avg != 0 {
		t.Fatalf("warm Overlaps allocates %.1f per run, want 0", avg)
	}
}
