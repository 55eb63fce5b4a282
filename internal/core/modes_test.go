package core

import (
	"math/rand"
	"testing"

	"hrdb/internal/hierarchy"
)

// randomTree builds a random single-inheritance hierarchy (every node has
// exactly one parent).
func randomTree(rng *rand.Rand, domain string, n int) *hierarchy.Hierarchy {
	h := hierarchy.New(domain)
	names := []string{domain}
	for i := 0; i < n; i++ {
		name := domain + "_" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		parent := names[rng.Intn(len(names))]
		if err := h.AddClass(name, parent); err != nil {
			panic(err)
		}
		names = append(names, name)
	}
	return h
}

// TestPropertyTreeOnPathEqualsOffPath: with single inheritance every path
// between two comparable nodes is unique, so on-path and off-path
// preemption coincide — including which items conflict (none can, in a
// tree, absent exact contradictions).
func TestPropertyTreeOnPathEqualsOffPath(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 30; trial++ {
		h := randomTree(rng, "D", 8+rng.Intn(6))
		s := MustSchema(Attribute{Name: "X", Domain: h})
		r := NewRelation("R", s)
		nodes := h.Nodes()
		for n := 0; n < 4+rng.Intn(5); n++ {
			_ = r.Insert(Item{nodes[rng.Intn(len(nodes))]}, rng.Intn(2) == 0)
		}
		for _, node := range nodes {
			item := Item{node}
			r.SetMode(OffPath)
			vOff, errOff := r.Evaluate(item)
			r.SetMode(OnPath)
			vOn, errOn := r.Evaluate(item)
			if (errOff == nil) != (errOn == nil) {
				t.Fatalf("trial %d node %s: off err=%v on err=%v\ntuples %v",
					trial, node, errOff, errOn, r.Tuples())
			}
			if errOff == nil && vOff.Value != vOn.Value {
				t.Fatalf("trial %d node %s: off=%v on=%v\ntuples %v",
					trial, node, vOff.Value, vOn.Value, r.Tuples())
			}
		}
	}
}

// TestPropertyPositiveOnlyAllModesAgree: without negated tuples there are
// no exceptions, so all three preemption semantics give the same answers
// and never conflict.
func TestPropertyPositiveOnlyAllModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 30; trial++ {
		h := randomHierarchy(rng, "D", 8+rng.Intn(6))
		s := MustSchema(Attribute{Name: "X", Domain: h})
		r := NewRelation("R", s)
		nodes := h.Nodes()
		for n := 0; n < 4+rng.Intn(5); n++ {
			_ = r.Insert(Item{nodes[rng.Intn(len(nodes))]}, true)
		}
		for _, node := range nodes {
			item := Item{node}
			var vals [3]bool
			for i, mode := range []Preemption{OffPath, OnPath, NoPreemption} {
				r.SetMode(mode)
				v, err := r.Evaluate(item)
				if err != nil {
					t.Fatalf("trial %d mode %v node %s: %v", trial, mode, node, err)
				}
				vals[i] = v.Value
			}
			if vals[0] != vals[1] || vals[1] != vals[2] {
				t.Fatalf("trial %d node %s: modes disagree %v\ntuples %v",
					trial, node, vals, r.Tuples())
			}
		}
	}
}

// TestFigure2ProductShape verifies the product item hierarchy of Figure 2
// through the explicit binding-graph construction: for (John, Fagin) in the
// resolved Respects relation, the binding graph must contain the three
// tuples with the resolving tuple as the unique binder, and the elimination
// path must agree with the fast path.
func TestFigure2ProductShape(t *testing.T) {
	r := respectsRelation(t)
	item := Item{"John", "Fagin"}
	bg, err := r.TupleBindingGraph(item)
	must(t, err)
	if len(bg.Nodes) != 3 {
		t.Fatalf("nodes = %v", bg.Nodes)
	}
	if len(bg.Binders) != 1 {
		t.Fatalf("binders = %v", bg.Binders)
	}
	if !bg.Nodes[bg.Binders[0]].Item.Equal(Item{"ObsequiousStudent", "IncoherentTeacher"}) {
		t.Fatalf("binder = %v", bg.Nodes[bg.Binders[0]])
	}
	// The explicit product-graph elimination agrees.
	applicable := r.Applicable(item)
	slow, err := r.bindersByElimination(item, applicable, false)
	must(t, err)
	if len(slow) != 1 || !slow[0].Item.Equal(Item{"ObsequiousStudent", "IncoherentTeacher"}) {
		t.Fatalf("elimination binder = %v", slow)
	}
	// The product slice enumerated for (John, Fagin) covers
	// ancestors(John) × ancestors(Fagin) = 3 × 3 = 9 vectors; the paper's
	// Fig. 2c product is exactly this grid.
	sh := r.Schema().Attr(0).Domain
	th := r.Schema().Attr(1).Domain
	sAnc := len(sh.AncestorIDs(sh.IDOf("John"))) + 1
	tAnc := len(th.AncestorIDs(th.IDOf("Fagin"))) + 1
	if sAnc*tAnc != 9 {
		t.Fatalf("product slice = %d × %d", sAnc, tAnc)
	}
}

// TestEvaluateProductTooLarge: the explicit-elimination cap is enforced.
func TestEvaluateProductTooLarge(t *testing.T) {
	h := hierarchy.New("D")
	// A wide two-level hierarchy: node x has ~700 ancestors through a
	// redundancy-inducing construction is hard; instead use many attributes
	// of a deep chain so the ancestor product explodes.
	parent := "D"
	for i := 0; i < 64; i++ {
		name := leafName(i) + "_lvl"
		must(t, h.AddClass(name, parent))
		parent = name
	}
	must(t, h.AddInstance("leaf", parent))
	s := MustSchema(
		Attribute{Name: "A", Domain: h},
		Attribute{Name: "B", Domain: h},
		Attribute{Name: "C", Domain: h},
	)
	r := NewRelation("R", s)
	must(t, r.Assert("D", "D", "D"))
	r.SetMode(OnPath) // forces the explicit construction
	_, err := r.Evaluate(Item{"leaf", "leaf", "leaf"})
	if err == nil {
		t.Fatal("expected ErrTooLarge")
	}
}
