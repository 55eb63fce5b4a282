package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hrdb/internal/hierarchy"
)

// TestExplicateFullFlies: full explication of the Flies relation yields
// exactly one atomic tuple per leaf under the asserted classes, with the
// signs the tuple-binding rules dictate.
func TestExplicateFullFlies(t *testing.T) {
	r := fliesRelation(t)
	flat, err := r.Explicate()
	must(t, err)
	want := map[string]bool{
		"Tweety":   true,
		"Paul":     false,
		"Patricia": true,
		"Pamela":   true,
		"Peter":    true,
	}
	if flat.Len() != len(want) {
		t.Fatalf("explicated = %v", flat.Tuples())
	}
	for who, sign := range want {
		tu, ok := flat.Lookup(Item{who})
		if !ok {
			t.Errorf("missing %s", who)
			continue
		}
		if tu.Sign != sign {
			t.Errorf("%s sign = %v, want %v", who, tu.Sign, sign)
		}
	}
	// All tuples are atomic.
	for _, tu := range flat.Tuples() {
		if !flat.IsAtomic(tu.Item) {
			t.Errorf("non-atomic tuple %v after full explication", tu)
		}
	}
}

// TestExplicateThenConsolidateDropsNegatives (§3.3.2): after full
// explication the negated tuples are redundant and a following consolidate
// removes exactly them.
func TestExplicateThenConsolidateDropsNegatives(t *testing.T) {
	r := fliesRelation(t)
	flat, err := r.Explicate()
	must(t, err)
	c := flat.Consolidate()
	for _, tu := range c.Tuples() {
		if !tu.Sign {
			t.Errorf("negated tuple %v survived consolidation", tu)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("tuples = %v, want the four flyers", c.Tuples())
	}
}

// TestExtensionFlies: the extension is the positive atomic items.
func TestExtensionFlies(t *testing.T) {
	r := fliesRelation(t)
	ext, err := r.Extension()
	must(t, err)
	want := []Item{{"Pamela"}, {"Patricia"}, {"Peter"}, {"Tweety"}}
	if !reflect.DeepEqual(ext, want) {
		t.Fatalf("Extension = %v, want %v", ext, want)
	}
	n, err := r.ExtensionSize()
	must(t, err)
	if n != 4 {
		t.Fatalf("ExtensionSize = %d", n)
	}
}

// TestExtensionMatchesOracle: Extension (via the paper's explication
// algorithm) agrees with direct per-atom evaluation on all fixtures.
func TestExtensionMatchesOracle(t *testing.T) {
	for _, r := range []*Relation{fliesRelation(t), respectsRelation(t), colorRelation(t)} {
		ext, err := r.Extension()
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		got := map[string]bool{}
		for _, it := range ext {
			got[it.Key()] = true
		}
		want := extensionByEnumeration(t, r)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: extension mismatch\n got %v\nwant %v", r.Name(), got, want)
		}
	}
}

// TestExplicatePartial: explicating only the Animal attribute of the
// Animal–Color relation leaves Color values intact and preserves the
// extension.
func TestExplicatePartial(t *testing.T) {
	r := colorRelation(t)
	part, err := r.Explicate("Animal")
	must(t, err)
	for _, tu := range part.Tuples() {
		h := part.Schema().Attr(0).Domain
		if !h.IsLeaf(tu.Item[0]) {
			t.Errorf("Animal coordinate %q not atomic", tu.Item[0])
		}
	}
	if !reflect.DeepEqual(extensionByEnumeration(t, part), extensionByEnumeration(t, r)) {
		t.Fatal("partial explication changed the extension")
	}
	// Consolidation after partial explication preserves the extension too
	// (in this fixture the colors are all atomic, so the negations are in
	// fact redundant and may be dropped).
	c := part.Consolidate()
	if !reflect.DeepEqual(extensionByEnumeration(t, c), extensionByEnumeration(t, r)) {
		t.Fatal("consolidate after partial explication changed the extension")
	}
}

// TestExplicatePartialKeepsNeededNegation (§3.3.2): "Negated tuples
// obtained are not redundant, and no consolidation need follow" — when the
// non-explicated attribute retains a class value, a negation produced by
// partial explication sits below a positive class tuple and must survive
// consolidation.
func TestExplicatePartialKeepsNeededNegation(t *testing.T) {
	animals := animalHierarchy(t)
	colors := hierarchy.New("Color")
	must(t, colors.AddClass("Bright"))
	must(t, colors.AddInstance("Red", "Bright"))
	must(t, colors.AddInstance("Yellow", "Bright"))
	s := MustSchema(
		Attribute{Name: "Animal", Domain: animals},
		Attribute{Name: "Color", Domain: colors},
	)
	r := NewRelation("Likes", s)
	must(t, r.Assert("Bird", "Bright")) // birds like bright colors
	must(t, r.Deny("Penguin", "Red"))   // penguins dislike red
	part, err := r.Explicate("Animal")
	must(t, err)
	if !reflect.DeepEqual(extensionByEnumeration(t, part), extensionByEnumeration(t, r)) {
		t.Fatal("partial explication changed the extension")
	}
	// Paul's red negation is dominated by Paul's (kept, class-valued)
	// bright positive: not redundant.
	c := part.Consolidate()
	if _, ok := c.Lookup(Item{"Paul", "Red"}); !ok {
		t.Fatalf("needed negation (Paul, Red)− was consolidated away: %v", c.Tuples())
	}
	got, err := c.Holds("Paul", "Yellow")
	must(t, err)
	if !got {
		t.Error("Paul should like yellow")
	}
	got, err = c.Holds("Paul", "Red")
	must(t, err)
	if got {
		t.Error("Paul should not like red")
	}
}

// TestExplicateUnknownAttr: bad attribute names are rejected.
func TestExplicateUnknownAttr(t *testing.T) {
	r := colorRelation(t)
	if _, err := r.Explicate("nope"); !errors.Is(err, ErrSchema) {
		t.Fatalf("got %v, want ErrSchema", err)
	}
}

// TestExplicateEmptyRelation: explication of an empty relation is empty.
func TestExplicateEmptyRelation(t *testing.T) {
	h := animalHierarchy(t)
	s := MustSchema(Attribute{Name: "Creature", Domain: h})
	r := NewRelation("Empty", s)
	flat, err := r.Explicate()
	must(t, err)
	if flat.Len() != 0 {
		t.Fatalf("got %v", flat.Tuples())
	}
	ext, err := r.Extension()
	must(t, err)
	if len(ext) != 0 {
		t.Fatalf("extension = %v", ext)
	}
}

// TestExplicateTooLarge: the cap is enforced.
func TestExplicateTooLarge(t *testing.T) {
	h := hierarchy.New("D")
	must(t, h.AddClass("C"))
	// 600 leaves under C; three attributes of the same domain gives
	// 600^3 > maxProductNodes candidate tuples.
	for i := 0; i < 600; i++ {
		must(t, h.AddInstance(leafName(i), "C"))
	}
	s := MustSchema(
		Attribute{Name: "A", Domain: h},
		Attribute{Name: "B", Domain: h},
		Attribute{Name: "C3", Domain: h},
	)
	r := NewRelation("Big", s)
	must(t, r.Assert("C", "C", "C"))
	if _, err := r.Explicate(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func leafName(i int) string {
	const digits = "abcdefghij"
	if i == 0 {
		return "leaf_a"
	}
	s := ""
	for i > 0 {
		s = string(digits[i%10]) + s
		i /= 10
	}
	return "leaf_" + s
}

// TestExplicateInfinitePotential (§1): a class tuple represents its whole
// membership — growing the class later grows the extension with no change
// to the relation's stored tuples.
func TestExplicateInfinitePotential(t *testing.T) {
	h := animalHierarchy(t)
	s := MustSchema(Attribute{Name: "Creature", Domain: h})
	r := NewRelation("Flies", s)
	must(t, r.Assert("Canary"))
	n1, err := r.ExtensionSize()
	must(t, err)
	if n1 != 1 {
		t.Fatalf("size = %d", n1)
	}
	for _, name := range []string{"Bibi", "Coco"} {
		must(t, h.AddInstance(name, "Canary"))
	}
	n2, err := r.ExtensionSize()
	must(t, err)
	if n2 != 3 {
		t.Fatalf("size after growth = %d, want 3 (stored tuples: %d)", n2, r.Len())
	}
	if r.Len() != 1 {
		t.Fatalf("stored tuples = %d, want 1", r.Len())
	}
}

// TestExtensionCanceledWarm: a canceled context fails EXTENSION on a
// relation whose extension is memoized as it does on a cold one, and the
// cold failure leaves no memo behind.
func TestExtensionCanceledWarm(t *testing.T) {
	r := fliesRelation(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ExtensionContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold EXTENSION under a canceled context: %v, want context.Canceled", err)
	}
	ext, err := r.Extension()
	must(t, err)
	n, err := r.ExtensionSize()
	must(t, err)
	if len(ext) == 0 || n != len(ext) {
		t.Fatalf("after a canceled read: %d atoms, size %d: a canceled read memoized an empty extension", len(ext), n)
	}
	if _, err := r.ExtensionContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm EXTENSION under a canceled context: %v, want context.Canceled", err)
	}
	if err := r.VisitExtension(ctx, func([]int) { t.Fatal("visited an atom") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm VisitExtension under a canceled context: %v, want context.Canceled", err)
	}
}
