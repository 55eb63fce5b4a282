package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hrdb/internal/hierarchy"
)

// TestFigure6Consolidate reproduces the paper's consolidation of the
// Respects relation: processing in topological order, the negated tuple
// (Student, IncoherentTeacher) is redundant (its only predecessor is the
// universal negated tuple); after its removal the resolving tuple
// (ObsequiousStudent, IncoherentTeacher) becomes redundant too (its only
// remaining predecessor, (ObsequiousStudent, Teacher), is also positive).
// The result is the single tuple (ObsequiousStudent, Teacher).
func TestFigure6Consolidate(t *testing.T) {
	r := respectsRelation(t)
	c := r.Consolidate()
	got := c.Tuples()
	if len(got) != 1 {
		t.Fatalf("consolidated to %v, want exactly (ObsequiousStudent, Teacher)", got)
	}
	if !got[0].Item.Equal(Item{"ObsequiousStudent", "Teacher"}) || !got[0].Sign {
		t.Fatalf("got %v", got[0])
	}
	// Extension is unchanged ("has exactly the same extension … and yet has
	// fewer tuples in it").
	extBefore := extensionByEnumeration(t, r)
	extAfter := extensionByEnumeration(t, c)
	if !reflect.DeepEqual(extBefore, extAfter) {
		t.Fatalf("consolidation changed the extension:\nbefore %v\nafter  %v", extBefore, extAfter)
	}
	// The receiver was not modified.
	if r.Len() != 3 {
		t.Fatalf("Consolidate mutated its receiver: %d tuples", r.Len())
	}
}

// TestFigure6IntermediateRedundancy: before consolidation, the tuple
// (Student, IncoherentTeacher)− is redundant, and so is the conflict-
// resolving tuple (it is dominated by tuples of BOTH signs, so at first
// sight it is not redundant — only after the negated tuple is removed does
// it become so). RedundantTuples sees only the first.
func TestFigure6IntermediateRedundancy(t *testing.T) {
	r := respectsRelation(t)
	red := r.RedundantTuples()
	if len(red) != 1 || !red[0].Item.Equal(Item{"Student", "IncoherentTeacher"}) {
		t.Fatalf("RedundantTuples = %v, want the top-level negated tuple only", red)
	}
}

// TestConsolidateKeepsResolvingTuple (§3.2): a conflict-resolving tuple is
// NOT redundant while the conflicting tuples are both present — removing it
// would produce an inconsistent state. (In Fig. 6 it becomes removable only
// because the negated tuple is removed first; here we pin the negated tuple
// by making it irredundant.)
func TestConsolidateKeepsResolvingTuple(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "Student", Domain: studentHierarchy(t)},
		Attribute{Name: "Teacher", Domain: teacherHierarchy(t)},
	)
	r := NewRelation("Respects", s)
	// Make the negation non-top-level so it is not redundant: all students
	// respect all teachers, but no student respects an incoherent teacher,
	// except obsequious students do.
	must(t, r.Assert("Student", "Teacher"))
	must(t, r.Deny("Student", "IncoherentTeacher"))
	must(t, r.Assert("ObsequiousStudent", "IncoherentTeacher"))
	c := r.Consolidate()
	if c.Len() != 3 {
		t.Fatalf("consolidate removed needed tuples: %v", c.Tuples())
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("consolidated relation inconsistent: %v", err)
	}
}

// TestTopLevelNegatedTupleRedundant: a negated tuple with no predecessor is
// redundant (its predecessor is the universal negated tuple).
func TestTopLevelNegatedTupleRedundant(t *testing.T) {
	r := fliesRelation(t)
	must(t, r.Deny("Canary")) // wait: Canary is under Bird+, not top-level
	// Canary's immediate pred is Bird+ (opposite sign): not redundant.
	for _, tu := range r.RedundantTuples() {
		if tu.Item.Equal(Item{"Canary"}) {
			t.Fatal("Canary− under Bird+ must not be redundant")
		}
	}
	// A brand-new relation with only a negated tuple: redundant.
	h := r.Schema().Attr(0).Domain
	s := MustSchema(Attribute{Name: "Creature", Domain: h})
	r2 := NewRelation("R2", s)
	must(t, r2.Deny("Penguin"))
	red := r2.RedundantTuples()
	if len(red) != 1 || !red[0].Item.Equal(Item{"Penguin"}) {
		t.Fatalf("RedundantTuples = %v", red)
	}
	if got := r2.Consolidate().Len(); got != 0 {
		t.Fatalf("consolidated size = %d, want 0", got)
	}
}

// TestPositiveDuplicateUnderPositive: a positive tuple dominated by a
// positive tuple is redundant and removed (the paper's t1/t2 discussion in
// §3.2 — removal happens only on explicit Consolidate).
func TestPositiveDuplicateUnderPositive(t *testing.T) {
	r := fliesRelation(t)
	must(t, r.Assert("Tweety")) // dominated by Bird+
	if r.Len() != 5 {
		t.Fatal("assertion should coexist until consolidation (§3.2)")
	}
	c := r.Consolidate()
	if _, ok := c.Lookup(Item{"Tweety"}); ok {
		t.Fatal("Tweety+ should be consolidated away under Bird+")
	}
}

// TestFigure5UnionNotRedundant reproduces the paper's Figure 5: if A and B
// only jointly cover C, a tuple on C is NOT redundant given tuples on A and
// B — our model never removes it.
func TestFigure5UnionNotRedundant(t *testing.T) {
	h := hierarchy.New("D")
	must(t, h.AddClass("A"))
	must(t, h.AddClass("B"))
	must(t, h.AddClass("C"))
	// C's members are split between A and B: c1 in A∩C, c2 in B∩C.
	must(t, h.AddInstance("c1", "A", "C"))
	must(t, h.AddInstance("c2", "B", "C"))
	s := MustSchema(Attribute{Name: "X", Domain: h})
	r := NewRelation("R", s)
	must(t, r.Assert("A"))
	must(t, r.Assert("B"))
	must(t, r.Assert("C"))
	c := r.Consolidate()
	if _, ok := c.Lookup(Item{"C"}); !ok {
		t.Fatal("tuple on C must survive consolidation (Fig. 5): neither A nor B alone dominates C")
	}
	if c.Len() != 3 {
		t.Fatalf("consolidated = %v", c.Tuples())
	}
}

// TestPartitionedClassNotRedundant (§3.2's final case): even when C is
// exactly partitioned by A and B with tuples on both, the tuple on C is not
// considered redundant by our data model (the model cannot express mutual
// exhaustion, and the C tuple stays meaningful if A's is later deleted).
func TestPartitionedClassNotRedundant(t *testing.T) {
	h := hierarchy.New("D")
	must(t, h.AddClass("C"))
	must(t, h.AddClass("A", "C"))
	must(t, h.AddClass("B", "C"))
	must(t, h.AddInstance("a1", "A"))
	must(t, h.AddInstance("b1", "B"))
	s := MustSchema(Attribute{Name: "X", Domain: h})
	r := NewRelation("R", s)
	must(t, r.Assert("A"))
	must(t, r.Assert("B"))
	must(t, r.Assert("C"))
	c := r.Consolidate()
	// C survives; A and B are each dominated by C+ and are removed.
	if _, ok := c.Lookup(Item{"C"}); !ok {
		t.Fatal("C must survive")
	}
	if c.Len() != 1 {
		t.Fatalf("consolidated = %v, want only C", c.Tuples())
	}
}

// TestConsolidateIdempotent: consolidating twice changes nothing more.
func TestConsolidateIdempotent(t *testing.T) {
	r := respectsRelation(t)
	c1 := r.Consolidate()
	c2 := c1.Consolidate()
	if !reflect.DeepEqual(c1.Tuples(), c2.Tuples()) {
		t.Fatalf("not idempotent: %v vs %v", c1.Tuples(), c2.Tuples())
	}
}

// TestSubsumptionGraphFig6a checks the subsumption graph of the Respects
// relation: the universal negated tuple points at the two top-level tuples;
// the resolving tuple has BOTH broad tuples as immediate predecessors.
func TestSubsumptionGraphFig6a(t *testing.T) {
	r := respectsRelation(t)
	edges := r.SubsumptionGraph()
	type edge struct{ from, to string }
	got := map[edge]bool{}
	for _, e := range edges {
		from := "⊤̄" // universal negated tuple
		if e.From != nil {
			from = e.From.Item.String()
		}
		got[edge{from, e.To.Item.String()}] = true
	}
	want := []edge{
		{"⊤̄", "(ObsequiousStudent, Teacher)"},
		{"⊤̄", "(Student, IncoherentTeacher)"},
		{"(ObsequiousStudent, Teacher)", "(ObsequiousStudent, IncoherentTeacher)"},
		{"(Student, IncoherentTeacher)", "(ObsequiousStudent, IncoherentTeacher)"},
	}
	if len(got) != len(want) {
		t.Fatalf("edges = %v", got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing edge %v", w)
		}
	}
}

// TestPropertyReconsolidateMatchesConsolidate: after a down-closed rewrite —
// every tuple at or under some chosen items dropped, re-signed or added —
// Reconsolidate patches the old consolidation into exactly what Consolidate
// computes from scratch. (Consolidation never looks at consistency, so the
// rewrites are arbitrary.)
func TestPropertyReconsolidateMatchesConsolidate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		s := randomSchema(rng)
		var pools [][]string
		for i := 0; i < s.Arity(); i++ {
			pools = append(pools, s.Attr(i).Domain.Nodes())
		}
		randomItem := func() Item {
			item := make(Item, s.Arity())
			for i := range item {
				item[i] = pools[i][rng.Intn(len(pools[i]))]
			}
			return item
		}
		r := NewRelation("R", s)
		for n := 2 + rng.Intn(12); n > 0; n-- {
			_ = r.Insert(randomItem(), rng.Intn(2) == 0) // a contradiction just places nothing
		}
		c := r.Consolidate()
		for round := 0; round < 3; round++ {
			top := []Item{randomItem(), randomItem()}
			var touched []Item
			for _, tu := range r.Tuples() {
				if r.Subsumes(top[0], tu.Item) || r.Subsumes(top[1], tu.Item) {
					r.Retract(tu.Item)
					touched = append(touched, tu.Item)
					if rng.Intn(3) > 0 {
						must(t, r.Insert(tu.Item, rng.Intn(2) == 0))
					}
				}
			}
			for n := rng.Intn(4); n > 0; n-- {
				if item := randomItem(); r.Subsumes(top[0], item) || r.Subsumes(top[1], item) {
					if r.Insert(item, rng.Intn(2) == 0) == nil {
						touched = append(touched, item)
					}
				}
			}
			r.Reconsolidate(c, touched)
			if got, want := c.Tuples(), r.Consolidate().Tuples(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d round %d: touched %v\nsource %v\npatched %v\nfresh   %v", trial, round, touched, r.Tuples(), got, want)
			}
		}
	}
}
