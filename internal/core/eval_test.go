package core

import (
	"errors"
	"testing"
)

// TestFigure1Evaluation reproduces the truth values the paper derives from
// Figure 1: Tweety flies (inherits from Bird); Paul does not (Penguin
// exception); Pamela flies (exception to the exception); Peter flies (an
// exact tuple overrides everything); Patricia flies (her only immediate
// predecessor is the AmazingFlyingPenguin tuple).
func TestFigure1Evaluation(t *testing.T) {
	r := fliesRelation(t)
	cases := []struct {
		who  string
		want bool
	}{
		{"Tweety", true},
		{"Paul", false},
		{"Pamela", true},
		{"Peter", true},
		{"Patricia", true},
		{"Canary", true},            // the class itself
		{"GalapagosPenguin", false}, // class under Penguin
	}
	for _, c := range cases {
		got, err := r.Holds(c.who)
		if err != nil {
			t.Errorf("Holds(%s): %v", c.who, err)
			continue
		}
		if got != c.want {
			t.Errorf("Holds(%s) = %v, want %v", c.who, got, c.want)
		}
	}
}

// TestFigure1Verdict checks the structure of a verdict: Peter's exact tuple
// binds strongest; Patricia's binder is the AFP tuple; Paul's binder is the
// Penguin negation.
func TestFigure1Verdict(t *testing.T) {
	r := fliesRelation(t)

	v, err := r.Evaluate(Item{"Peter"})
	must(t, err)
	if !v.Exact || len(v.Binders) != 1 || v.Binders[0].Item[0] != "Peter" {
		t.Errorf("Peter verdict = %+v, want exact binder Peter", v)
	}
	if len(v.Applicable) != 4 {
		t.Errorf("Peter has %d applicable tuples, want 4", len(v.Applicable))
	}

	v, err = r.Evaluate(Item{"Patricia"})
	must(t, err)
	if len(v.Binders) != 1 || v.Binders[0].Item[0] != "AmazingFlyingPenguin" {
		t.Errorf("Patricia binders = %v, want [AmazingFlyingPenguin]", v.Binders)
	}
	if len(v.Applicable) != 3 {
		t.Errorf("Patricia has %d applicable tuples, want 3 (Bird, Penguin, AFP)", len(v.Applicable))
	}

	v, err = r.Evaluate(Item{"Paul"})
	must(t, err)
	if v.Value || len(v.Binders) != 1 || v.Binders[0].Item[0] != "Penguin" {
		t.Errorf("Paul verdict = %+v, want negative Penguin binder", v)
	}
}

// TestDefaultFalse: an item with no applicable tuples is false by default
// (the universal negated tuple).
func TestDefaultFalse(t *testing.T) {
	r := fliesRelation(t)
	// Remove everything but the Peter tuple; then Tweety has no applicable
	// tuples at all.
	must(t, func() error { r.Retract(Item{"Bird"}); return nil }())
	v, err := r.Evaluate(Item{"Tweety"})
	must(t, err)
	if v.Value || !v.Default {
		t.Errorf("verdict = %+v, want default false", v)
	}
}

// TestEvaluateValidation: bad arity and unknown values are rejected.
func TestEvaluateValidation(t *testing.T) {
	r := fliesRelation(t)
	if _, err := r.Evaluate(Item{"Tweety", "extra"}); !errors.Is(err, ErrArity) {
		t.Errorf("arity: got %v", err)
	}
	if _, err := r.Evaluate(Item{"Dodo"}); !errors.Is(err, ErrUnknownValue) {
		t.Errorf("unknown: got %v", err)
	}
}

// TestInsertValidationAndContradiction covers tuple-level errors.
func TestInsertValidationAndContradiction(t *testing.T) {
	r := fliesRelation(t)
	if err := r.Assert("Dodo"); !errors.Is(err, ErrUnknownValue) {
		t.Errorf("unknown value: got %v", err)
	}
	if err := r.Assert("Bird"); err != nil {
		t.Errorf("idempotent re-assert: got %v", err)
	}
	if err := r.Deny("Bird"); !errors.Is(err, ErrContradiction) {
		t.Errorf("contradiction: got %v", err)
	}
	if !r.Retract(Item{"Bird"}) {
		t.Error("Retract(Bird) = false")
	}
	if r.Retract(Item{"Bird"}) {
		t.Error("second Retract(Bird) = true")
	}
	if err := r.Deny("Bird"); err != nil {
		t.Errorf("deny after retract: %v", err)
	}
}

// TestFigure4Appu reproduces the paper's Clyde-the-royal-elephant variation:
// royal elephant binds more strongly to Appu than elephant does, so Appu is
// white, not grey; Appu's Indian-elephant membership is irrelevant because
// nothing is asserted about Indian elephants' color.
func TestFigure4Appu(t *testing.T) {
	r := colorRelation(t)
	cases := []struct {
		item Item
		want bool
	}{
		{Item{"Appu", "Grey"}, false},
		{Item{"Appu", "White"}, true},
		{Item{"Clyde", "White"}, false},
		{Item{"Clyde", "Dappled"}, true},
		{Item{"Clyde", "Grey"}, false},
		{Item{"AfricanElephant", "Grey"}, true},
		{Item{"RoyalElephant", "White"}, true},
		{Item{"RoyalElephant", "Grey"}, false},
	}
	for _, c := range cases {
		v, err := r.Evaluate(c.item)
		if err != nil {
			t.Errorf("Evaluate(%v): %v", c.item, err)
			continue
		}
		if v.Value != c.want {
			t.Errorf("Evaluate(%v) = %v, want %v", c.item, v.Value, c.want)
		}
	}
	if err := r.CheckConsistency(); err != nil {
		t.Errorf("Figure 4 relation should be consistent: %v", err)
	}
}

// TestAppendixOffPathPatricia: under the default off-path semantics
// Patricia flies — AmazingFlyingPenguin preempts Penguin because Patricia's
// Galapagos path to Penguin does not carry a tuple.
func TestAppendixOffPathPatricia(t *testing.T) {
	r := fliesRelation(t)
	r.SetMode(OffPath)
	got, err := r.Holds("Patricia")
	must(t, err)
	if !got {
		t.Error("off-path: Patricia should fly")
	}
}

// TestAppendixOnPathPatricia: under on-path preemption, Patricia's
// Galapagos-penguin path keeps the Penguin negation as an immediate
// predecessor (the appendix: "it may or may not be able to fly"), so the
// evaluation reports a conflict.
func TestAppendixOnPathPatricia(t *testing.T) {
	r := fliesRelation(t)
	r.SetMode(OnPath)
	_, err := r.Evaluate(Item{"Patricia"})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("on-path Patricia: got %v, want ConflictError", err)
	}
	if len(ce.Binders) != 2 {
		t.Errorf("on-path Patricia binders = %v, want 2", ce.Binders)
	}
}

// TestAppendixOnPathPamela: Pamela is only an amazing flying penguin, so
// every path from Penguin to Pamela passes through AFP and she flies even
// under on-path preemption.
func TestAppendixOnPathPamela(t *testing.T) {
	r := fliesRelation(t)
	r.SetMode(OnPath)
	got, err := r.Holds("Pamela")
	must(t, err)
	if !got {
		t.Error("on-path: Pamela should fly")
	}
	// Peter has an exact tuple: it wins under every semantics.
	got, err = r.Holds("Peter")
	must(t, err)
	if !got {
		t.Error("on-path: Peter should fly")
	}
}

// TestAppendixNoPreemption: with no preemption, any sign disagreement among
// applicable tuples is a conflict — even plain exceptions like Paul.
func TestAppendixNoPreemption(t *testing.T) {
	r := fliesRelation(t)
	r.SetMode(NoPreemption)
	var ce *ConflictError
	if _, err := r.Evaluate(Item{"Paul"}); !errors.As(err, &ce) {
		t.Fatalf("no-preemption Paul: got %v, want ConflictError", err)
	}
	// Tweety sees only the Bird tuple: no conflict.
	got, err := r.Holds("Tweety")
	must(t, err)
	if !got {
		t.Error("no-preemption: Tweety should fly")
	}
	// Peter's exact tuple still wins.
	got, err = r.Holds("Peter")
	must(t, err)
	if !got {
		t.Error("no-preemption: Peter should fly")
	}
}

// TestAppendixRedundantEdgePamela reproduces the appendix's redundant-link
// example: adding the (redundant) is-a edge Penguin→Pamela makes Penguin an
// immediate predecessor of Pamela in her tuple-binding graph, so AFP no
// longer preempts Penguin and Pamela's evaluation conflicts — even under
// off-path preemption.
func TestAppendixRedundantEdgePamela(t *testing.T) {
	r := fliesRelation(t)
	h := r.Schema().Attr(0).Domain
	must(t, h.AddEdge("Penguin", "Pamela"))
	_, err := r.Evaluate(Item{"Pamela"})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("redundant-edge Pamela: got %v, want ConflictError", err)
	}
	// Patricia is unaffected by Pamela's extra edge.
	got, err := r.Holds("Patricia")
	must(t, err)
	if !got {
		t.Error("Patricia should still fly")
	}
}

// TestAppendixPreference: a preference edge resolves a multiple-inheritance
// conflict by making one class's tuples bind more strongly.
func TestAppendixPreference(t *testing.T) {
	r := fliesRelation(t)
	h := r.Schema().Attr(0).Domain
	// Create a conflict: assert that Galapagos penguins cannot fly; then
	// Patricia (GP and AFP) has two opposite immediate predecessors.
	must(t, r.Deny("GalapagosPenguin"))
	var ce *ConflictError
	if _, err := r.Evaluate(Item{"Patricia"}); !errors.As(err, &ce) {
		t.Fatalf("expected conflict at Patricia, got %v", err)
	}
	// Prefer AmazingFlyingPenguin over GalapagosPenguin: Patricia flies.
	must(t, h.Prefer("AmazingFlyingPenguin", "GalapagosPenguin"))
	got, err := r.Holds("Patricia")
	must(t, err)
	if !got {
		t.Error("with preference AFP>GP, Patricia should fly")
	}
	// Paul (GP only) is unaffected.
	got, err = r.Holds("Paul")
	must(t, err)
	if got {
		t.Error("Paul should still not fly")
	}
	// Explication flattens by the same binding order: the preferred tuple
	// writes Patricia first, so the extension agrees with Holds.
	ext, err := r.Extension()
	must(t, err)
	for _, want := range []struct {
		who   string
		flies bool
	}{{"Patricia", true}, {"Paul", false}} {
		in := false
		for _, it := range ext {
			in = in || it.Equal(Item{want.who})
		}
		if in != want.flies {
			t.Errorf("Extension has %s: %v, Holds says %v", want.who, in, want.flies)
		}
	}
}

// TestFastPathMatchesElimination: on the paper's own fixtures, the fast
// minimal-applicable path and the literal product-graph elimination must
// agree for every item.
func TestFastPathMatchesElimination(t *testing.T) {
	rels := []*Relation{fliesRelation(t), respectsRelation(t), colorRelation(t)}
	for _, r := range rels {
		if !r.fastPathOK() {
			t.Fatalf("%s: fixture should be irredundant", r.Name())
		}
		items := allItems(r.Schema())
		for _, item := range items {
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
				t.Fatalf("%s %v: %v", r.Name(), item, err)
			}
			if len(fast) != len(slow) {
				t.Fatalf("%s %v: fast %v vs slow %v", r.Name(), item, fast, slow)
			}
			for i := range fast {
				if !fast[i].Item.Equal(slow[i].Item) || fast[i].Sign != slow[i].Sign {
					t.Fatalf("%s %v: fast %v vs slow %v", r.Name(), item, fast, slow)
				}
			}
		}
	}
}

// allItems enumerates every item (all node combinations) of a schema.
func allItems(s *Schema) []Item {
	var pools [][]string
	for i := 0; i < s.Arity(); i++ {
		pools = append(pools, s.Attr(i).Domain.Nodes())
	}
	var out []Item
	var rec func(prefix Item, i int)
	rec = func(prefix Item, i int) {
		if i == s.Arity() {
			out = append(out, prefix.Clone())
			return
		}
		for _, n := range pools[i] {
			rec(append(prefix, n), i+1)
		}
	}
	rec(make(Item, 0, s.Arity()), 0)
	return out
}

// TestTupleBindingGraphPatricia reproduces Figure 1d: Patricia's tuple-
// binding graph has the three applicable tuples with AFP as the only
// binder, Bird→Penguin→AFP as the spine.
func TestTupleBindingGraphPatricia(t *testing.T) {
	r := fliesRelation(t)
	bg, err := r.TupleBindingGraph(Item{"Patricia"})
	must(t, err)
	if len(bg.Nodes) != 3 {
		t.Fatalf("nodes = %v, want 3", bg.Nodes)
	}
	if len(bg.Binders) != 1 || bg.Nodes[bg.Binders[0]].Item[0] != "AmazingFlyingPenguin" {
		t.Fatalf("binders = %v", bg.Binders)
	}
	// Expect edges Bird→Penguin, Penguin→AFP, AFP→item.
	var spine int
	for _, e := range bg.Edges {
		if e[1] == -1 {
			continue
		}
		from, to := bg.Nodes[e[0]].Item[0], bg.Nodes[e[1]].Item[0]
		if from == "Bird" && to == "Penguin" || from == "Penguin" && to == "AmazingFlyingPenguin" {
			spine++
		} else {
			t.Errorf("unexpected edge %s → %s", from, to)
		}
	}
	if spine != 2 {
		t.Errorf("spine edges = %d, want 2", spine)
	}
}

// TestHoldsOnClassesQuantifiesUniversally: a class item is true iff the
// strongest binder says so — storing one tuple for a class answers queries
// about the class itself (§1's succinctness claim).
func TestHoldsOnClassesQuantifiesUniversally(t *testing.T) {
	r := fliesRelation(t)
	got, err := r.Holds("Bird")
	must(t, err)
	if !got {
		t.Error("Holds(Bird) = false")
	}
	got, err = r.Holds("Penguin")
	must(t, err)
	if got {
		t.Error("Holds(Penguin) = true")
	}
}

func TestPreemptionString(t *testing.T) {
	if OffPath.String() != "off-path" || OnPath.String() != "on-path" || NoPreemption.String() != "none" {
		t.Error("Preemption.String names wrong")
	}
	if Preemption(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}
