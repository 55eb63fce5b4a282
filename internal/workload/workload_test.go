package workload

import (
	"testing"
)

func TestTaxonomyShape(t *testing.T) {
	h, err := Taxonomy("D", 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.AllLeaves()); got != 15 {
		t.Fatalf("leaves = %d, want 15", got)
	}
	if !h.Subsumes("class0001", "c0001_i00003") {
		t.Fatal("membership broken")
	}
}

func TestChainShape(t *testing.T) {
	h, err := Chain("D", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Subsumes("level000", "leafInstance") {
		t.Fatal("chain membership broken")
	}
	if got := len(h.AncestorIDs(h.IDOf("leafInstance"))); got != 5 { // root + 4 levels
		t.Fatalf("ancestors = %d, want 5", got)
	}
}

func TestClassRelationExtension(t *testing.T) {
	h, err := Taxonomy("D", 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ClassRelation("R", h, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("tuples = %d", r.Len())
	}
	n, err := r.ExtensionSize()
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("extension = %d, want 15", n)
	}
}

func TestExceptionChainAlternates(t *testing.T) {
	h, err := Chain("D", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ExceptionChain("R", h, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Deepest level is level004 (+ since 4 is even); leafInstance under it.
	ok, err := r.Holds("leafInstance")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("leafInstance should be + (depth 4 even)")
	}
	// An instance at level001 picks up the − at that level.
	ok, err = r.Holds("l001_i000")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("level-1 instance should be −")
	}
}

func TestMembershipBaselineAgrees(t *testing.T) {
	h, err := Chain("D", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ExceptionChain("R", h, 4)
	if err != nil {
		t.Fatal(err)
	}
	mb := MembershipBaseline(h, r)
	depth := DepthFunc(h)
	for _, leaf := range h.AllLeaves() {
		want, err := r.Holds(leaf)
		if err != nil {
			t.Fatal(err)
		}
		got, joins := mb.Holds([]string{"X"}, []string{leaf}, depth)
		if got != want {
			t.Fatalf("baseline disagrees at %s: %v vs %v", leaf, got, want)
		}
		if joins < 2 {
			t.Fatalf("baseline did no joins at %s", leaf)
		}
	}
}

func TestRedundantRelationConsolidates(t *testing.T) {
	h, err := Taxonomy("D", 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RedundantRelation("R", h, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2+8 {
		t.Fatalf("tuples = %d", r.Len())
	}
	c := r.Consolidate()
	if c.Len() != 2 {
		t.Fatalf("consolidated = %d, want 2", c.Len())
	}
}

func TestClusteredFlatShape(t *testing.T) {
	r := ClusteredFlat("R", 3, 4, 2)
	if r.Len() != 24 {
		t.Fatalf("rows = %d", r.Len())
	}
}

func TestRandomConsistentIsConsistent(t *testing.T) {
	r, err := RandomConsistent(7, "R", 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("no tuples generated")
	}
}

func TestApproxBytesPositive(t *testing.T) {
	h, _ := Taxonomy("D", 2, 3)
	r, _ := ClassRelation("R", h, 2)
	if ApproxTupleBytes(r) <= 0 {
		t.Fatal("tuple bytes")
	}
	f := ClusteredFlat("F", 1, 2, 2)
	if ApproxRowBytes(f) <= 0 {
		t.Fatal("row bytes")
	}
}
