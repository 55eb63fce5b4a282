package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestFigure3Conflict reproduces the paper's Figure 3 discussion: with only
// the two tuples above the dashed line ("obsequious students respect all
// teachers", "no student respects any incoherent teacher") the database is
// inconsistent — obsequious students vs incoherent teachers is undetermined.
func TestFigure3Conflict(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "Student", Domain: studentHierarchy(t)},
		Attribute{Name: "Teacher", Domain: teacherHierarchy(t)},
	)
	r := NewRelation("Respects", s)
	must(t, r.Assert("ObsequiousStudent", "Teacher"))
	must(t, r.Deny("Student", "IncoherentTeacher"))

	err := r.CheckConsistency()
	var ie *InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want InconsistencyError", err)
	}
	// The conflict sits at the minimal resolution item
	// (ObsequiousStudent, IncoherentTeacher).
	found := false
	for _, c := range ie.Conflicts {
		if c.Item.Equal(Item{"ObsequiousStudent", "IncoherentTeacher"}) {
			found = true
			if len(c.Resolution) != 1 || !c.Resolution[0].Equal(Item{"ObsequiousStudent", "IncoherentTeacher"}) {
				t.Errorf("resolution = %v", c.Resolution)
			}
		}
	}
	if !found {
		t.Fatalf("conflicts = %v, missing (ObsequiousStudent, IncoherentTeacher)", ie.Conflicts)
	}

	// The explicit resolving tuple restores consistency (Fig. 3's tuple
	// below the dashed line).
	must(t, r.Assert("ObsequiousStudent", "IncoherentTeacher"))
	if err := r.CheckConsistency(); err != nil {
		t.Fatalf("resolved relation still inconsistent: %v", err)
	}

	// And John (an obsequious student) now respects Fagin (an incoherent
	// teacher).
	got, err2 := r.Holds("John", "Fagin")
	must(t, err2)
	if !got {
		t.Error("John should respect Fagin after resolution")
	}
}

// TestFigure3EvaluateConflict: evaluating the conflicted item directly also
// reports the conflict with both binders.
func TestFigure3EvaluateConflict(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "Student", Domain: studentHierarchy(t)},
		Attribute{Name: "Teacher", Domain: teacherHierarchy(t)},
	)
	r := NewRelation("Respects", s)
	must(t, r.Assert("ObsequiousStudent", "Teacher"))
	must(t, r.Deny("Student", "IncoherentTeacher"))

	_, err := r.Evaluate(Item{"John", "Fagin"})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want ConflictError", err)
	}
	if len(ce.Binders) != 2 {
		t.Errorf("binders = %v, want 2", ce.Binders)
	}
}

// TestPatriciaGalapagosConflict reproduces §2.1's multiple-inheritance
// discussion: adding "Galapagos penguins cannot fly" conflicts at Patricia,
// who is both a Galapagos and an amazing flying penguin.
func TestPatriciaGalapagosConflict(t *testing.T) {
	r := fliesRelation(t)
	if err := r.CheckConsistency(); err != nil {
		t.Fatalf("Figure 1 relation should be consistent: %v", err)
	}
	must(t, r.Deny("GalapagosPenguin"))
	err := r.CheckConsistency()
	var ie *InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want InconsistencyError", err)
	}
	if len(ie.Conflicts) != 1 || !ie.Conflicts[0].Item.Equal(Item{"Patricia"}) {
		t.Fatalf("conflicts = %v, want one at Patricia", ie.Conflicts)
	}
	// Resolve with an exact tuple on Patricia.
	must(t, r.Assert("Patricia"))
	if err := r.CheckConsistency(); err != nil {
		t.Fatalf("still inconsistent: %v", err)
	}
}

// TestMinimalResolutionSet: per-attribute meets multiply out.
func TestMinimalResolutionSet(t *testing.T) {
	r := respectsRelation(t)
	got := r.MinimalResolutionSet(
		Item{"ObsequiousStudent", "Teacher"},
		Item{"Student", "IncoherentTeacher"},
	)
	want := []Item{{"ObsequiousStudent", "IncoherentTeacher"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Disjoint items have an empty resolution set.
	r2 := fliesRelation(t)
	if got := r2.MinimalResolutionSet(Item{"Canary"}, Item{"Penguin"}); got != nil {
		t.Fatalf("disjoint: got %v, want nil", got)
	}
}

// TestCompleteResolutionSet: all common subsumees, most general to leaves.
func TestCompleteResolutionSet(t *testing.T) {
	r := fliesRelation(t)
	got, err := r.CompleteResolutionSet(Item{"GalapagosPenguin"}, Item{"AmazingFlyingPenguin"}, 0)
	must(t, err)
	want := []Item{{"Patricia"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}

	// With a shared class, the complete set includes the class and its
	// descendants while the minimal set is just the class.
	h := r.Schema().Attr(0).Domain
	_ = h
	got, err = r.CompleteResolutionSet(Item{"Bird"}, Item{"Penguin"}, 0)
	must(t, err)
	// Bird subsumes Penguin: meets = {Penguin}; complete = Penguin + all
	// its descendants.
	if len(got) != 7 {
		t.Fatalf("complete set size = %d (%v), want 7", len(got), got)
	}
	// Cap enforcement.
	if _, err := r.CompleteResolutionSet(Item{"Bird"}, Item{"Penguin"}, 3); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("cap: got %v, want ErrTooLarge", err)
	}
}

// TestOptimisticDisjointness (§3.1): opposite-sign assertions on classes
// with no common descendant are not a conflict.
func TestOptimisticDisjointness(t *testing.T) {
	r := fliesRelation(t)
	// Canary+ already implied; deny GalapagosPenguin: Canary and GP share
	// no members, so Bird+ vs GP- is an exception, and Canary vs GP never
	// overlaps.
	must(t, r.Deny("GalapagosPenguin"))
	// Patricia conflict exists (GP vs AFP); resolve it, then check that no
	// Canary/GP conflict is reported.
	must(t, r.Assert("Patricia"))
	if err := r.CheckConsistency(); err != nil {
		t.Fatalf("unexpected conflicts: %v", err)
	}
}

// TestEmptyIntersectionClassForcesPessimism (§3.1): a front end can force
// pessimistic integrity maintenance by defining an empty intersection
// class; a conflict is then detected even with no instances.
func TestEmptyIntersectionClassForcesPessimism(t *testing.T) {
	h := animalHierarchy(t)
	// An empty class of canaries raised among penguins.
	must(t, h.AddClass("PenguinRaisedCanary", "Canary", "Penguin"))
	s := MustSchema(Attribute{Name: "Creature", Domain: h})
	r := NewRelation("Flies", s)
	must(t, r.Assert("Canary"))
	must(t, r.Deny("Penguin"))
	err := r.CheckConsistency()
	var ie *InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want InconsistencyError at the empty intersection class", err)
	}
	if !ie.Conflicts[0].Item.Equal(Item{"PenguinRaisedCanary"}) {
		t.Fatalf("conflict at %v, want PenguinRaisedCanary", ie.Conflicts[0].Item)
	}
}

// TestConflictErrorRendering exercises the error strings.
func TestConflictErrorRendering(t *testing.T) {
	ce := &ConflictError{
		Relation:   "R",
		Item:       Item{"x"},
		Binders:    []Tuple{{Item: Item{"A"}, Sign: true}, {Item: Item{"B"}, Sign: false}},
		Resolution: []Item{{"x"}},
	}
	msg := ce.Error()
	for _, want := range []string{"R", "(x)", "+ (A)", "- (B)", "resolve"} {
		if !contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	ie := &InconsistencyError{Relation: "R", Conflicts: []*ConflictError{ce, ce}}
	if !contains(ie.Error(), "2 ambiguity conflicts") {
		t.Errorf("InconsistencyError = %q", ie.Error())
	}
	if ie.Unwrap() != ce {
		t.Error("Unwrap should expose the first conflict")
	}
	single := &InconsistencyError{Relation: "R", Conflicts: []*ConflictError{ce}}
	if single.Error() != ce.Error() {
		t.Error("single-conflict InconsistencyError should render the conflict")
	}
	empty := &InconsistencyError{Relation: "R"}
	if empty.Unwrap() != nil {
		t.Error("empty Unwrap should be nil")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TestNoPreemptionConsistency: under no-preemption the exhaustive checker
// finds the conflict at Paul that the pairwise check alone would miss
// (Bird+ subsumes Penguin−, so the pair is skipped as an exception, yet
// both apply to Paul with no preemption).
func TestNoPreemptionConsistency(t *testing.T) {
	h := animalHierarchy(t)
	s := MustSchema(Attribute{Name: "Creature", Domain: h})
	r := NewRelation("Flies", s)
	must(t, r.Assert("Bird"))
	must(t, r.Deny("Penguin"))
	r.SetMode(NoPreemption)
	// Direct evaluation conflicts at Paul.
	var ce *ConflictError
	if _, err := r.Evaluate(Item{"Paul"}); !errors.As(err, &ce) {
		t.Fatalf("got %v, want ConflictError at Paul", err)
	}
	// The consistency checker must find it too, even though Bird+ and
	// Penguin− are comparable (a mere exception under off-path).
	var ie *InconsistencyError
	if err := r.CheckConsistency(); !errors.As(err, &ie) {
		t.Fatalf("CheckConsistency: got %v, want InconsistencyError", err)
	}
	// Under the default off-path mode the same relation is consistent.
	r.SetMode(OffPath)
	if err := r.CheckConsistency(); err != nil {
		t.Fatalf("off-path should be consistent: %v", err)
	}
}

// TestConflictsUnderMatchesConflicts: from a conflict-free relation, after
// a batch of inserts, retractions and sign flips, ConflictsUnder on the
// touched items reports exactly what Conflicts does — same items, binders
// and resolutions — in every preemption mode. (The catalog-level twin test,
// TestPropertyDeltaCheckMatchesFull, covers stamps, rollbacks and hierarchy
// surgery; this pins the core routine alone.)
func TestConflictsUnderMatchesConflicts(t *testing.T) {
	conflictCorpus(t, func(mode Preemption, trial int, r *Relation, changed []Item) {
		if got, want := r.ConflictsUnder(changed), r.Conflicts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %v trial %d: changed %v\ntuples %v\ndelta %v\nfull  %v",
				mode, trial, changed, r.Tuples(), got, want)
		}
	})
}

// conflictCorpus builds, per preemption mode, 60 random relations in a
// conflict-free state, applies a batch of inserts, retractions and sign
// flips to each, and hands the result and the touched items to check.
func conflictCorpus(t *testing.T, check func(mode Preemption, trial int, r *Relation, changed []Item)) {
	t.Helper()
	for _, mode := range []Preemption{OffPath, OnPath, NoPreemption} {
		rng := rand.New(rand.NewSource(101 + int64(mode)))
		for trial := 0; trial < 60; trial++ {
			s := randomSchema(rng)
			r := NewRelation("R", s)
			r.SetMode(mode)
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
			for n := 0; n < 12; n++ { // a conflict-free starting state
				item := randomItem()
				if r.Insert(item, rng.Intn(2) == 0) == nil && len(r.Conflicts()) > 0 {
					r.Retract(item)
				}
			}
			var changed []Item
			for n := 1 + rng.Intn(3); n > 0; n-- {
				item := randomItem()
				if old, present := r.Lookup(item); present {
					r.Retract(item)
					if rng.Intn(2) == 0 {
						must(t, r.Insert(item, !old.Sign))
					}
				} else {
					must(t, r.Insert(item, rng.Intn(2) == 0))
				}
				changed = append(changed, item)
			}
			check(mode, trial, r, changed)
		}
	}
}

// conflictsAllPairs is the checker's loop as it was before it partitioned
// the tuples by sign: every i<j pair, skipping the same-sign ones. Kept as
// the reference the partitioned loop is compared against.
func conflictsAllPairs(r *Relation, tuples []Tuple) []*ConflictError {
	exhaustive := r.mode != OffPath || !r.fastPathOK()
	var out []*ConflictError
	seen := map[string]bool{}
	record := func(item Item) {
		if seen[item.Key()] {
			return
		}
		if _, err := r.Evaluate(item); err != nil {
			if ce, ok := err.(*ConflictError); ok {
				seen[item.Key()] = true
				ce.Resolution = r.resolutionFor(ce)
				out = append(out, ce)
			}
		}
	}
	for i := 0; i < len(tuples); i++ {
		for j := i + 1; j < len(tuples); j++ {
			t1, t2 := tuples[i], tuples[j]
			if t1.Sign == t2.Sign {
				continue
			}
			comparable := r.Subsumes(t1.Item, t2.Item) || r.Subsumes(t2.Item, t1.Item)
			if comparable && !exhaustive {
				continue
			}
			if !r.Overlapping(t1.Item, t2.Item) {
				continue
			}
			if !comparable {
				for _, m := range r.MinimalResolutionSet(t1.Item, t2.Item) {
					record(m)
				}
			}
			if exhaustive {
				common, _ := r.CompleteResolutionSet(t1.Item, t2.Item, maxProductNodes)
				for _, it := range common {
					record(it)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Item.Key() < out[j].Item.Key() })
	return out
}

// TestConflictsSignPartitionMatchesAllPairs: pairing positives with
// negatives reports the identical conflicts — items, binders, resolutions,
// order — as walking every pair, on the delta-vs-full corpus, for the full
// tuple set and for the overlap region of the touched items.
func TestConflictsSignPartitionMatchesAllPairs(t *testing.T) {
	conflicted := 0
	conflictCorpus(t, func(mode Preemption, trial int, r *Relation, changed []Item) {
		for _, tuples := range [][]Tuple{r.Tuples(), r.TuplesOverlapping(changed)} {
			got, want := r.conflictsAmong(r.rowsOf(tuples)), conflictsAllPairs(r, tuples)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mode %v trial %d: tuples %v\npartitioned %v\nall pairs   %v", mode, trial, tuples, got, want)
			}
			conflicted += len(want)
		}
	})
	if conflicted == 0 {
		t.Fatal("the corpus produced no conflict to compare")
	}
}

// An item the relation cannot place has no overlap region; the delta check
// must then fall back to every tuple rather than to none.
func TestConflictsUnderUnknownItemChecksEverything(t *testing.T) {
	r := fliesRelation(t)
	r.SetMode(NoPreemption) // Bird+ and Penguin− now conflict at every penguin
	want := r.Conflicts()
	if len(want) == 0 {
		t.Fatal("fixture has no conflict")
	}
	for _, changed := range []Item{{"NoSuchNode"}, {"Bird", "Extra"}} {
		if got := r.ConflictsUnder([]Item{changed}); !reflect.DeepEqual(got, want) {
			t.Fatalf("ConflictsUnder(%v) = %v, want the full answer %v", changed, got, want)
		}
	}
}

// TestVerifiedConsistentStamp: a passing check verifies exactly the state it
// ran on; every kind of change since — tuple, mode, hierarchy — unverifies
// it, and a failing check verifies nothing.
func TestVerifiedConsistentStamp(t *testing.T) {
	r := fliesRelation(t)
	if r.VerifiedConsistent() {
		t.Fatal("verified before any check")
	}
	must(t, r.CheckConsistency())
	if !r.VerifiedConsistent() {
		t.Fatal("not verified after a passing check")
	}
	must(t, r.Assert("Tweety"))
	if r.VerifiedConsistent() {
		t.Fatal("still verified after Insert")
	}
	must(t, r.CheckConsistencyUnder([]Item{{"Tweety"}}))
	if !r.VerifiedConsistent() {
		t.Fatal("not verified after a passing delta check")
	}
	r.Retract(Item{"Tweety"})
	if r.VerifiedConsistent() {
		t.Fatal("still verified after Retract")
	}
	must(t, r.CheckConsistency())
	r.SetMode(NoPreemption)
	if r.VerifiedConsistent() {
		t.Fatal("still verified after SetMode")
	}
	if err := r.CheckConsistency(); err == nil {
		t.Fatal("Bird+/Penguin− is a conflict without preemption")
	}
	if r.VerifiedConsistent() {
		t.Fatal("a failing check verified the relation")
	}
	r.SetMode(OffPath)
	must(t, r.CheckConsistency())
	must(t, r.Schema().Attr(0).Domain.AddInstance("Polly", "Canary"))
	if r.VerifiedConsistent() {
		t.Fatal("still verified after a hierarchy edit")
	}
	if c := r.Clone(); c.VerifiedConsistent() {
		t.Fatal("a clone inherited the stamp")
	}
}

// TestCloneKeepsCurrentStamp: the copy of a verified relation is verified at
// its own state, mutating it unverifies the copy alone, and the copy of an
// unverified relation is unverified.
func TestCloneKeepsCurrentStamp(t *testing.T) {
	r := fliesRelation(t)
	if c := r.Clone(); c.VerifiedConsistent() {
		t.Fatal("the clone of an unverified relation is verified")
	}
	must(t, r.CheckConsistency())
	c := r.Clone()
	if !c.VerifiedConsistent() {
		t.Fatal("the clone of a verified relation is not verified")
	}
	must(t, c.Assert("Tweety"))
	if c.VerifiedConsistent() {
		t.Fatal("the clone is still verified after its own Insert")
	}
	if !r.VerifiedConsistent() {
		t.Fatal("mutating the clone unverified its source")
	}
	if w := r.WithName("Soars"); !w.VerifiedConsistent() {
		t.Fatal("a renamed copy of a verified relation is not verified")
	}
}
