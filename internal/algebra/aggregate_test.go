package algebra

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"hrdb/internal/core"
	"hrdb/internal/flat"
	"hrdb/internal/hierarchy"
)

// TestCountTotal: counting the whole extension of the Flies relation.
func TestCountTotal(t *testing.T) {
	h := animalHierarchy(t)
	s := core.MustSchema(core.Attribute{Name: "Creature", Domain: h})
	r := core.NewRelation("Flies", s)
	must(t, r.Assert("Bird"))
	must(t, r.Deny("Penguin"))
	must(t, r.Assert("AmazingFlyingPenguin"))

	counts, err := Count(r)
	must(t, err)
	if len(counts) != 1 || counts[0].N != 4 { // Tweety, Pamela, Patricia, Peter
		t.Fatalf("counts = %v", counts)
	}
}

// TestCountGrouped on a two-attribute relation.
func TestCountGrouped(t *testing.T) {
	animals := elephantHierarchy(t)
	r := colorRelation(t, animals)
	counts, err := Count(r, "Color")
	must(t, err)
	byColor := map[string]int{}
	for _, gc := range counts {
		byColor[gc.Group[0]] = gc.N
	}
	// Extension atoms: AfricanElephant (a leaf class) grey; Appu white;
	// Clyde dappled. IndianElephant is not a leaf (Appu sits under it).
	if byColor["Grey"] != 1 || byColor["White"] != 1 || byColor["Dappled"] != 1 {
		t.Fatalf("byColor = %v", byColor)
	}
	// The rendering is stable and mentions the groups.
	out := FormatCounts("colors", []string{"Color"}, counts)
	if !strings.Contains(out, "Color=Grey: 1") {
		t.Fatalf("format:\n%s", out)
	}
}

// TestCountEmptyRelation yields a single zero group.
func TestCountEmptyRelation(t *testing.T) {
	h := animalHierarchy(t)
	s := core.MustSchema(core.Attribute{Name: "Creature", Domain: h})
	r := core.NewRelation("Empty", s)
	counts, err := Count(r)
	must(t, err)
	if len(counts) != 1 || counts[0].N != 0 {
		t.Fatalf("counts = %v", counts)
	}
	out := FormatCounts("empty", nil, counts)
	if !strings.Contains(out, "count = 0") {
		t.Fatalf("format: %s", out)
	}
}

// TestCountErrors.
func TestCountErrors(t *testing.T) {
	h := animalHierarchy(t)
	s := core.MustSchema(core.Attribute{Name: "Creature", Domain: h})
	r := core.NewRelation("R", s)
	if _, err := Count(r, "Nope"); !errors.Is(err, core.ErrSchema) {
		t.Fatalf("got %v", err)
	}
	if _, err := countByClass(r, "Nope", "Bird"); !errors.Is(err, core.ErrSchema) {
		t.Fatalf("got %v", err)
	}
	if _, err := countByClass(r, "Creature", "Nothing"); !errors.Is(err, core.ErrUnknownValue) {
		t.Fatalf("got %v", err)
	}
}

// countByClass counts the extension grouped by membership in the given
// classes of one attribute: for each class, how many extension atoms fall
// under it. Classes may overlap, so an atom can count toward several. It
// reads Extension, so it is a reference for Count over the same atoms.
func countByClass(r *core.Relation, attr string, classes ...string) (map[string]int, error) {
	s := r.Schema()
	i, ok := s.Index(attr)
	if !ok {
		return nil, fmt.Errorf("%w: count: no attribute %q in %q", core.ErrUnknownAttribute, attr, r.Name())
	}
	h := s.Attr(i).Domain
	for _, c := range classes {
		if !h.Has(c) {
			return nil, fmt.Errorf("%w: count: %q not in domain %q", core.ErrUnknownValue, c, h.Domain())
		}
	}
	ext, err := r.Extension()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(classes))
	for _, c := range classes {
		out[c] = 0
	}
	for _, it := range ext {
		for _, c := range classes {
			if h.Subsumes(c, it[i]) {
				out[c]++
			}
		}
	}
	return out, nil
}

// TestCountByClass: overlapping taxonomy counts.
func TestCountByClass(t *testing.T) {
	h := animalHierarchy(t)
	s := core.MustSchema(core.Attribute{Name: "Creature", Domain: h})
	r := core.NewRelation("Flies", s)
	must(t, r.Assert("Bird"))
	must(t, r.Deny("Penguin"))
	must(t, r.Assert("AmazingFlyingPenguin"))

	counts, err := countByClass(r, "Creature", "Bird", "Penguin", "Canary", "GalapagosPenguin")
	must(t, err)
	want := map[string]int{
		"Bird":             4, // the whole extension
		"Penguin":          3, // Pamela, Patricia, Peter
		"Canary":           1, // Tweety
		"GalapagosPenguin": 1, // Patricia (also an AFP)
	}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%s] = %d, want %d", k, counts[k], v)
		}
	}
}

// TestCountContextCancelled: COUNT stops on its statement's context like
// EXTENSION does.
func TestCountContextCancelled(t *testing.T) {
	h := animalHierarchy(t)
	r := core.NewRelation("Flies", core.MustSchema(core.Attribute{Name: "Creature", Domain: h}))
	must(t, r.Assert("Bird"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountContext(ctx, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// countOf is the grouping Count is held to, done on named items: one group
// per distinct BY coordinates, sorted by group key, and a single empty group
// for an empty ungrouped count.
func countOf(ext []core.Item, cols []int) []GroupCount {
	counts := map[string]*GroupCount{}
	for _, it := range ext {
		g := make(core.Item, len(cols))
		for i, c := range cols {
			g[i] = it[c]
		}
		if counts[g.Key()] == nil {
			counts[g.Key()] = &GroupCount{Group: g}
		}
		counts[g.Key()].N++
	}
	out := make([]GroupCount, 0, len(counts))
	for _, gc := range counts {
		out = append(out, *gc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group.Key() < out[j].Group.Key() })
	if len(cols) == 0 && len(out) == 0 {
		out = append(out, GroupCount{Group: core.Item{}})
	}
	return out
}

// TestCountMatchesFlatExtension: on random relations over hierarchies with
// two-parent nodes and preference edges, in every preemption mode, COUNT BY
// every ordered choice of attributes is the grouping of the flat relation
// that evaluating every atom builds — totals, groups and group order.
func TestCountMatchesFlatExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	modes := []core.Preemption{core.OffPath, core.OnPath, core.NoPreemption}
	checked := 0
	for trial := 0; trial < 80; trial++ {
		attrs := make([]core.Attribute, 1+rng.Intn(3))
		for i := range attrs {
			h := randomHierarchy(rng, fmt.Sprintf("D%d", i), 3+rng.Intn(6))
			if nodes := h.Nodes(); rng.Intn(2) == 0 {
				_ = h.Prefer(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]) // refused when it would cycle
			}
			attrs[i] = core.Attribute{Name: fmt.Sprintf("A%d", i), Domain: h}
		}
		s := core.MustSchema(attrs...)
		r := randomConsistentRelation(rng, "R", s, 2+rng.Intn(8))
		r.SetMode(modes[rng.Intn(len(modes))])
		atoms, err := r.AtomicItems()
		must(t, err)
		holds, err := r.HoldsBatch(context.Background(), atoms)
		if err != nil {
			continue // inconsistent under this mode: no flat relation to compare with
		}
		f := flat.New("R", s.Names()...)
		for i, atom := range atoms {
			if holds[i] {
				must(t, f.Insert(atom...))
			}
		}
		var ext []core.Item
		for _, row := range f.Rows() {
			ext = append(ext, core.Item(row))
		}
		for _, cols := range orderedChoices(s.Arity()) {
			by := make([]string, len(cols))
			for i, c := range cols {
				by[i] = s.Attr(c).Name
			}
			got, err := Count(r, by...)
			must(t, err)
			if want := countOf(ext, cols); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: COUNT BY %v = %v, flat extension says %v\n%v", trial, by, got, want, r.Tuples())
			}
		}
		if total, err := Count(r); err != nil || total[0].N != f.Len() {
			t.Fatalf("trial %d: COUNT = %v (%v), flat extension has %d rows", trial, total, err, f.Len())
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d of 80 relations were consistent", checked)
	}
}

// orderedChoices lists every sequence of distinct column indices below n,
// the empty one included.
func orderedChoices(n int) [][]int {
	out := [][]int{nil}
	for i := 0; i < len(out); i++ {
		for c := 0; c < n; c++ {
			if !slices.Contains(out[i], c) {
				out = append(out, append(slices.Clone(out[i]), c))
			}
		}
	}
	return out
}

// TestCountAllocsFollowTuplesNotAtoms: COUNT allocates per tuple and per
// group, not per atom — ten times the leaves under every class, and so ten
// times the atoms, costs at most half again the allocations.
func TestCountAllocsFollowTuplesNotAtoms(t *testing.T) {
	build := func(leaves int) *core.Relation {
		animals, hues := hierarchy.New("Animal"), hierarchy.New("Hue")
		for c := 0; c < 8; c++ {
			class := fmt.Sprintf("k%d", c)
			must(t, animals.AddClass(class))
			for l := 0; l < leaves; l++ {
				must(t, animals.AddInstance(fmt.Sprintf("%s_%03d", class, l), class))
			}
			must(t, hues.AddClass(fmt.Sprintf("h%d", c)))
			for l := 0; l < 4; l++ {
				must(t, hues.AddInstance(fmt.Sprintf("h%d_%d", c, l), fmt.Sprintf("h%d", c)))
			}
		}
		animals.Warm()
		hues.Warm()
		r := core.NewRelation("Likes", core.MustSchema(
			core.Attribute{Name: "Creature", Domain: animals}, core.Attribute{Name: "Hue", Domain: hues}))
		for c := 0; c < 8; c++ {
			must(t, r.Assert(fmt.Sprintf("k%d", c), fmt.Sprintf("h%d", c)))
			must(t, r.Assert(fmt.Sprintf("k%d", c), fmt.Sprintf("h%d", (c+1)%8)))
			must(t, r.Deny(fmt.Sprintf("k%d_000", c), fmt.Sprintf("h%d_0", c)))
		}
		return r
	}
	allocs := func(r *core.Relation) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Count(r, "Hue"); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, ten := allocs(build(10)), allocs(build(100))
	t.Logf("COUNT allocates %.0f times at 10 leaves per class, %.0f at 100", one, ten)
	if ten > 1.5*one {
		t.Fatalf("COUNT allocates %.0f times at 10 leaves per class, %.0f at 100", one, ten)
	}
}
