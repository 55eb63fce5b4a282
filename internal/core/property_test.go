package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomSchema builds a 1–2 attribute schema over random irredundant
// hierarchies.
func randomSchema(rng *rand.Rand) *Schema {
	attrs := []Attribute{{Name: "A0", Domain: randomHierarchy(rng, "D0", 4+rng.Intn(6))}}
	if rng.Intn(2) == 0 {
		attrs = append(attrs, Attribute{Name: "A1", Domain: randomHierarchy(rng, "D1", 3+rng.Intn(5))})
	}
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// TestPropertyConsolidatePreservesExtension: on random consistent
// relations, Consolidate never changes the extension and is idempotent.
func TestPropertyConsolidatePreservesExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		s := randomSchema(rng)
		r := randomConsistentRelation(rng, "R", s, 2+rng.Intn(8))
		c := r.Consolidate()
		if !reflect.DeepEqual(extensionByEnumeration(t, r), extensionByEnumeration(t, c)) {
			t.Fatalf("trial %d: consolidation changed extension\nbefore: %v\nafter:  %v",
				trial, r.Tuples(), c.Tuples())
		}
		if c.Len() > r.Len() {
			t.Fatalf("trial %d: consolidation grew the relation", trial)
		}
		c2 := c.Consolidate()
		if !reflect.DeepEqual(c.Tuples(), c2.Tuples()) {
			t.Fatalf("trial %d: consolidation not idempotent", trial)
		}
	}
}

// TestPropertyConsolidateMinimal: after consolidation, no tuple is
// redundant (the paper's unique-minimum claim implies a fixpoint).
func TestPropertyConsolidateMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		s := randomSchema(rng)
		r := randomConsistentRelation(rng, "R", s, 2+rng.Intn(8))
		c := r.Consolidate()
		if red := c.RedundantTuples(); len(red) != 0 {
			t.Fatalf("trial %d: redundant tuples survive consolidation: %v", trial, red)
		}
	}
}

// TestPropertyExplicatePreservesExtension: full explication preserves the
// extension and produces only atomic items; a following consolidate also
// preserves it.
func TestPropertyExplicatePreservesExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		s := randomSchema(rng)
		r := randomConsistentRelation(rng, "R", s, 2+rng.Intn(8))
		want := extensionByEnumeration(t, r)

		flat, err := r.Explicate()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, tu := range flat.Tuples() {
			if !flat.IsAtomic(tu.Item) {
				t.Fatalf("trial %d: non-atomic %v", trial, tu)
			}
		}
		if got := extensionByEnumeration(t, flat); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: explication changed extension\ntuples: %v\n got %v\nwant %v",
				trial, r.Tuples(), got, want)
		}
		if got := extensionByEnumeration(t, flat.Consolidate()); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: explicate+consolidate changed extension", trial)
		}
	}
}

// TestPropertyExplicatePartialPreservesExtension: explicating a random
// subset of attributes preserves the extension.
func TestPropertyExplicatePartialPreservesExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		s := randomSchema(rng)
		if s.Arity() < 2 {
			continue
		}
		r := randomConsistentRelation(rng, "R", s, 2+rng.Intn(8))
		want := extensionByEnumeration(t, r)
		part, err := r.Explicate(s.Attr(rng.Intn(s.Arity())).Name)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := extensionByEnumeration(t, part); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: partial explication changed extension\ntuples: %v",
				trial, r.Tuples())
		}
	}
}

// TestPropertyFastPathMatchesElimination: on random irredundant
// hierarchies, the fast minimal-applicable binder computation agrees with
// the literal product-graph node-elimination construction for random items.
func TestPropertyFastPathMatchesElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		s := randomSchema(rng)
		r := randomConsistentRelation(rng, "R", s, 2+rng.Intn(8))
		if !r.fastPathOK() {
			t.Fatalf("trial %d: random hierarchy unexpectedly redundant", trial)
		}
		var pools [][]string
		for i := 0; i < s.Arity(); i++ {
			pools = append(pools, s.Attr(i).Domain.Nodes())
		}
		for probe := 0; probe < 10; probe++ {
			item := make(Item, s.Arity())
			for i := range item {
				item[i] = pools[i][rng.Intn(len(pools[i]))]
			}
			applicable := r.Applicable(item)
			if len(applicable) == 0 {
				continue
			}
			if _, exact := r.Lookup(item); exact {
				continue
			}
			fast := r.minimalTuples(applicable)
			slow, err := r.bindersByElimination(item, applicable, false)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("trial %d item %v:\nfast %v\nslow %v\ntuples %v",
					trial, item, fast, slow, r.Tuples())
			}
		}
	}
}

// TestPropertyUpwardCompatibility (§1): a relation with only atomic
// positive tuples behaves exactly like a flat relation — its extension is
// its tuple set.
func TestPropertyUpwardCompatibility(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		s := randomSchema(rng)
		r := NewRelation("Flat", s)
		var pools [][]string
		for i := 0; i < s.Arity(); i++ {
			pools = append(pools, s.Attr(i).Domain.AllLeaves())
		}
		for n := 0; n < 5; n++ {
			item := make(Item, s.Arity())
			for i := range item {
				item[i] = pools[i][rng.Intn(len(pools[i]))]
			}
			if err := r.Insert(item, true); err != nil {
				t.Fatal(err)
			}
		}
		ext, err := r.Extension()
		if err != nil {
			t.Fatal(err)
		}
		if len(ext) != r.Len() {
			t.Fatalf("trial %d: flat relation extension %d != tuples %d", trial, len(ext), r.Len())
		}
		for _, it := range ext {
			if _, ok := r.Lookup(it); !ok {
				t.Fatalf("trial %d: extension item %v not a stored tuple", trial, it)
			}
		}
		if len(r.Conflicts()) != 0 {
			t.Fatalf("trial %d: flat relation cannot conflict", trial)
		}
	}
}

// TestPropertyConflictCheckerMatchesEnumeration: the pairwise consistency
// checker agrees with brute-force enumeration of all items (atomic and
// composite) on random relations — including inconsistent ones.
func TestPropertyConflictCheckerMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		s := randomSchema(rng)
		r := NewRelation("R", s)
		var pools [][]string
		for i := 0; i < s.Arity(); i++ {
			pools = append(pools, s.Attr(i).Domain.Nodes())
		}
		for n := 0; n < 2+rng.Intn(8); n++ {
			item := make(Item, s.Arity())
			for i := range item {
				item[i] = pools[i][rng.Intn(len(pools[i]))]
			}
			_ = r.Insert(item, rng.Intn(2) == 0) // contradictions skipped
		}

		// Brute force: any item (over all node combinations) that conflicts.
		bruteConflict := false
		for _, item := range allItems(s) {
			if _, err := r.Evaluate(item); err != nil {
				if _, ok := err.(*ConflictError); ok {
					bruteConflict = true
					break
				}
			}
		}
		pairwise := len(r.Conflicts()) > 0
		if pairwise != bruteConflict {
			t.Fatalf("trial %d: pairwise=%v brute=%v\ntuples %v",
				trial, pairwise, bruteConflict, r.Tuples())
		}
	}
}

// TestPropertyConflictCheckerRedundantEdges: with a deliberately redundant
// hierarchy edge, conflicts can appear at composite items even when every
// atom is clean; the checker must still agree with brute-force enumeration
// over all items.
func TestPropertyConflictCheckerRedundantEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 40; trial++ {
		s := randomSchema(rng)
		// Inject a redundant edge into the first hierarchy: root → some
		// node that is not already a direct child of the root.
		h := s.Attr(0).Domain
		nodes := h.Nodes()
		for _, n := range nodes {
			if n != h.Domain() && !contains0(h.Parents(n), h.Domain()) {
				if err := h.AddEdge(h.Domain(), n); err == nil {
					break
				}
			}
		}
		r := NewRelation("R", s)
		var pools [][]string
		for i := 0; i < s.Arity(); i++ {
			pools = append(pools, s.Attr(i).Domain.Nodes())
		}
		for n := 0; n < 2+rng.Intn(6); n++ {
			item := make(Item, s.Arity())
			for i := range item {
				item[i] = pools[i][rng.Intn(len(pools[i]))]
			}
			_ = r.Insert(item, rng.Intn(2) == 0)
		}
		bruteConflict := false
		for _, item := range allItems(s) {
			if _, err := r.Evaluate(item); err != nil {
				if _, ok := err.(*ConflictError); ok {
					bruteConflict = true
					break
				}
			}
		}
		pairwise := len(r.Conflicts()) > 0
		if pairwise != bruteConflict {
			t.Fatalf("trial %d: pairwise=%v brute=%v\ntuples %v\nredundant edges %v",
				trial, pairwise, bruteConflict, r.Tuples(), h.RedundantEdges())
		}
	}
}

func contains0(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestPropertyApplicableIndexMatchesScan: the first-attribute index must
// return exactly what the full scan returns, for random relations, random
// items, and after retractions.
func TestPropertyApplicableIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 40; trial++ {
		s := randomSchema(rng)
		r := randomConsistentRelation(rng, "R", s, 3+rng.Intn(8))
		// Mutate a little so the index sees removals too.
		ts := r.Tuples()
		if len(ts) > 2 {
			r.Retract(ts[rng.Intn(len(ts))].Item)
		}
		var pools [][]string
		for i := 0; i < s.Arity(); i++ {
			pools = append(pools, s.Attr(i).Domain.Nodes())
		}
		for probe := 0; probe < 12; probe++ {
			item := make(Item, s.Arity())
			for i := range item {
				item[i] = pools[i][rng.Intn(len(pools[i]))]
			}
			got := r.Applicable(item)
			want := r.applicableByScan(item)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d item %v:\nindex %v\nscan  %v\ntuples %v",
					trial, item, got, want, r.Tuples())
			}
		}
	}
}

// TestTableRendering: stable, contains headers, signs and ∀ markers.
func TestTableRendering(t *testing.T) {
	r := respectsRelation(t)
	tab := r.Table()
	if tab != r.Table() {
		t.Fatal("Table not deterministic")
	}
	for _, want := range []string{"Respects", "Student", "Teacher", "∀ObsequiousStudent", "+", "-"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	// The general tuples come first.
	first := strings.Index(tab, "∀Student")
	last := strings.Index(tab, "∀IncoherentTeacher")
	if first < 0 || last < 0 {
		t.Fatalf("table:\n%s", tab)
	}
}

// TestDisplayValue: leaves bare, classes with ∀.
func TestDisplayValue(t *testing.T) {
	r := fliesRelation(t)
	if got := r.DisplayValue(0, "Tweety"); got != "Tweety" {
		t.Errorf("leaf: %q", got)
	}
	if got := r.DisplayValue(0, "Bird"); got != "∀Bird" {
		t.Errorf("class: %q", got)
	}
}

// TestCloneAndWithName: copies are independent.
func TestCloneAndWithName(t *testing.T) {
	r := fliesRelation(t)
	c := r.WithName("Flies2")
	if c.Name() != "Flies2" || r.Name() != "Flies" {
		t.Fatal("rename leaked")
	}
	c.Retract(Item{"Bird"})
	if _, ok := r.Lookup(Item{"Bird"}); !ok {
		t.Fatal("clone mutation leaked into original")
	}
}

// TestSchemaBasics covers schema validation and accessors.
func TestSchemaBasics(t *testing.T) {
	h := animalHierarchy(t)
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(Attribute{Name: "", Domain: h}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema(Attribute{Name: "A"}); err == nil {
		t.Error("nil domain accepted")
	}
	if _, err := NewSchema(Attribute{Name: "A", Domain: h}, Attribute{Name: "A", Domain: h}); err == nil {
		t.Error("duplicate name accepted")
	}
	s := MustSchema(Attribute{Name: "A", Domain: h}, Attribute{Name: "B", Domain: h})
	if s.Arity() != 2 || s.Attr(1).Name != "B" {
		t.Error("accessors wrong")
	}
	if i, ok := s.Index("B"); !ok || i != 1 {
		t.Error("Index wrong")
	}
	if !reflect.DeepEqual(s.Names(), []string{"A", "B"}) {
		t.Error("Names wrong")
	}
	s2 := MustSchema(Attribute{Name: "A", Domain: h}, Attribute{Name: "B", Domain: h})
	if !s.Equal(s2) {
		t.Error("equal schemas not Equal")
	}
	h2 := animalHierarchy(t)
	s3 := MustSchema(Attribute{Name: "A", Domain: h2}, Attribute{Name: "B", Domain: h2})
	if s.Equal(s3) {
		t.Error("different hierarchies considered Equal")
	}
	if s.Equal(nil) {
		t.Error("nil Equal")
	}
}

// TestItemHelpers covers Key/Equal/Clone/String.
func TestItemHelpers(t *testing.T) {
	a := Item{"x", "y"}
	b := a.Clone()
	b[0] = "z"
	if a[0] != "x" {
		t.Error("Clone aliases")
	}
	if a.Equal(Item{"x"}) || !a.Equal(Item{"x", "y"}) {
		t.Error("Equal wrong")
	}
	if a.Key() == (Item{"xy", ""}).Key() {
		t.Error("Key collision")
	}
	if a.String() != "(x, y)" {
		t.Errorf("String = %q", a.String())
	}
	tu := Tuple{Item: a, Sign: false}
	if tu.String() != "- (x, y)" {
		t.Errorf("Tuple.String = %q", tu.String())
	}
}

// TestModeAccessor: the preemption mode getter round-trips.
func TestModeAccessor(t *testing.T) {
	r := fliesRelation(t)
	if r.Mode() != OffPath {
		t.Fatalf("default mode = %v", r.Mode())
	}
	r.SetMode(NoPreemption)
	if r.Mode() != NoPreemption {
		t.Fatalf("mode = %v", r.Mode())
	}
}

// TestPropertyCompareItemsMatchesKey: CompareItems orders exactly as
// strings.Compare orders Keys, on names that are prefixes of each other and
// names with bytes below the separator, where a coordinate-wise compare
// differs.
func TestPropertyCompareItemsMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pieces := []string{"a", "b", "ab", "a\x00", "a\x1e", "a\x20", "\x01", "\x1e", "ba"}
	item := func() Item {
		it := make(Item, rng.Intn(4))
		for i := range it {
			it[i] = pieces[rng.Intn(len(pieces))]
			if rng.Intn(2) == 0 {
				it[i] += pieces[rng.Intn(len(pieces))]
			}
		}
		return it
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := item(), item()
		if rng.Intn(4) == 0 {
			b = append(a.Clone(), b...)
		}
		if got, want := CompareItems(a, b), strings.Compare(a.Key(), b.Key()); got != want {
			t.Fatalf("CompareItems(%q, %q) = %d, want %d (keys %q, %q)", a, b, got, want, a.Key(), b.Key())
		}
	}
	if CompareItems(Item{"a", "b"}, Item{"a\x01"}) != 1 || CompareItems(Item{"a"}, Item{"a", "b"}) != -1 {
		t.Fatal("CompareItems orders a coordinate boundary unlike Key")
	}
}
