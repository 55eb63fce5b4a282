package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hrdb/internal/core"
	"hrdb/internal/hierarchy"
)

// twin is one script run against two databases. delta is used as any
// database is. full has its relations' stamps invalidated before every
// write (a SetMode to the mode already in force moves the epoch and nothing
// else), so each of its writes is verified by the whole-relation check.
type twin struct {
	delta, full *Database
	mode        core.Preemption
}

var twinRelations = []string{"R", "S"}

// each runs fn on both databases and returns the two errors.
func (tw *twin) each(fn func(db *Database) error) (dErr, fErr error) {
	return fn(tw.delta), fn(tw.full)
}

// write is each for a catalog write: the full twin is forced off the delta
// path first.
func (tw *twin) write(fn func(db *Database) error) (dErr, fErr error) {
	for _, rel := range twinRelations {
		if err := tw.full.SetMode(rel, tw.mode); err != nil {
			panic(err)
		}
	}
	return tw.each(fn)
}

// conflictItems returns the item keys an InconsistencyError names.
func conflictItems(err error) ([]string, bool) {
	var ie *core.InconsistencyError
	if !errors.As(err, &ie) {
		return nil, false
	}
	var keys []string
	for _, c := range ie.Conflicts {
		keys = append(keys, c.Item.Key())
	}
	return keys, true
}

// TestPropertyDeltaCheckMatchesFull is the exactness test of the delta
// ambiguity check (docs/THEORY.md §4, locality corollary): random
// interleavings of single updates, retractions, sign flips, multi-op
// brackets (some conflicting, some carrying their resolution), repairs and
// hierarchy surgery, over multi-parent hierarchies with a preference edge
// and sometimes a redundant edge, in all three preemption modes. After every
// step both twins must have taken the same decision for the same reason and
// hold the same tuples, and what the delta twin accepted must pass the full
// check.
func TestPropertyDeltaCheckMatchesFull(t *testing.T) {
	const seeds, steps = 10, 250 // 2,500 steps per mode
	for _, mode := range []core.Preemption{core.OffPath, core.OnPath, core.NoPreemption} {
		var accepted, rejected int
		for seed := int64(1); seed <= seeds; seed++ {
			a, r := runDeltaTwin(t, mode, seed, steps)
			accepted, rejected = accepted+a, rejected+r
		}
		// A generator that drifted into all-accept or all-reject would pass
		// vacuously.
		if accepted < 300 || rejected < 300 {
			t.Fatalf("mode %v: %d writes accepted, %d rejected: the script no longer exercises both", mode, accepted, rejected)
		}
		t.Logf("mode %v: %d accepted, %d rejected", mode, accepted, rejected)
	}
}

func runDeltaTwin(t *testing.T, mode core.Preemption, seed int64, steps int) (accepted, rejected int) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(mode)))
	tw := &twin{delta: New(), full: New(), mode: mode}
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("mode %v seed %d step %d: %s", mode, seed, step, fmt.Sprintf(format, args...))
	}
	setup := func(fn func(db *Database) error) {
		t.Helper()
		if dErr, fErr := tw.each(fn); dErr != nil || fErr != nil {
			t.Fatalf("mode %v seed %d: setup: %v / %v", mode, seed, dErr, fErr)
		}
	}

	// Domain A: eight classes and ten instances, a third of them under two
	// incomparable parents. Domain C: two classes, four instances.
	classes := []string{"A"}
	var instances []string
	setup(func(db *Database) error { _, err := db.CreateHierarchy("A"); return err })
	setup(func(db *Database) error { _, err := db.CreateHierarchy("C"); return err })
	hierA := func(db *Database) *hierarchy.Hierarchy {
		h, err := db.Hierarchy("A")
		if err != nil {
			panic(err)
		}
		return h
	}
	parentsFor := func() []string {
		p1 := classes[rng.Intn(len(classes))]
		if rng.Intn(3) == 0 {
			p2 := classes[rng.Intn(len(classes))]
			h := hierA(tw.delta)
			if !h.Subsumes(p1, p2) && !h.Subsumes(p2, p1) {
				return []string{p1, p2}
			}
		}
		return []string{p1}
	}
	for i := 0; i < 8; i++ {
		name, parents := fmt.Sprintf("c%d", i), parentsFor()
		setup(func(db *Database) error { return hierA(db).AddClass(name, parents...) })
		classes = append(classes, name)
	}
	for i := 0; i < 10; i++ {
		name, parents := fmt.Sprintf("i%d", i), parentsFor()
		setup(func(db *Database) error { return hierA(db).AddInstance(name, parents...) })
		instances = append(instances, name)
	}
	setup(func(db *Database) error {
		h, err := db.Hierarchy("C")
		if err != nil {
			return err
		}
		for _, c := range []string{"k0", "k1"} {
			if err := h.AddClass(c); err != nil {
				return err
			}
		}
		for i, p := range []string{"k0", "k0", "k1", "C"} {
			if err := h.AddInstance(fmt.Sprintf("h%d", i), p); err != nil {
				return err
			}
		}
		return nil
	})
	colors := []string{"C", "k0", "k1", "h0", "h1", "h2", "h3"}
	// A preference edge always; a redundant is-a edge on odd seeds (it takes
	// off-path evaluation off its minimal-tuples shortcut). Either may be
	// refused (cycle, duplicate) — identically on both twins.
	tw.each(func(db *Database) error { return hierA(db).Prefer(classes[1], classes[2]) })
	if seed%2 == 1 {
		tw.each(func(db *Database) error { return hierA(db).AddEdge("A", instances[0]) })
	}
	setup(func(db *Database) error {
		if _, err := db.CreateRelation("R", AttrSpec{Name: "a", Domain: "A"}); err != nil {
			return err
		}
		if _, err := db.CreateRelation("S", AttrSpec{Name: "a", Domain: "A"}, AttrSpec{Name: "c", Domain: "C"}); err != nil {
			return err
		}
		for _, rel := range twinRelations {
			if err := db.SetMode(rel, mode); err != nil {
				return err
			}
		}
		return nil
	})

	nodeA := func() string {
		if rng.Intn(2) == 0 {
			return classes[rng.Intn(len(classes))]
		}
		return instances[rng.Intn(len(instances))]
	}
	randomOp := func() TxOp {
		op := TxOp{Kind: []string{"assert", "deny", "retract"}[rng.Intn(3)], Relation: "R", Values: []string{nodeA()}}
		if rng.Intn(3) == 0 {
			op.Relation, op.Values = "S", []string{nodeA(), colors[rng.Intn(len(colors))]}
		}
		return op
	}
	storedTuple := func() (string, core.Tuple, bool) {
		rel := twinRelations[rng.Intn(2)]
		r, err := tw.delta.Relation(rel)
		if err != nil {
			panic(err)
		}
		ts := r.Tuples()
		if len(ts) == 0 {
			return "", core.Tuple{}, false
		}
		return rel, ts[rng.Intn(len(ts))], true
	}
	signKind := func(sign bool) string {
		if sign {
			return "assert"
		}
		return "deny"
	}

	var lastConflict *TxOp // an assert on the item the last rejection named
	for step := 0; step < steps; step++ {
		var ops []TxOp // the write this step makes, if it makes one
		single := false
		switch k := rng.Intn(100); {
		case k < 25: // one ASSERT/DENY outside a bracket
			ops, single = []TxOp{randomOp()}, true
			if ops[0].Kind == "retract" {
				ops[0].Kind = "assert"
			}
		case k < 40: // one RETRACT of a stored tuple, outside a bracket
			if rel, tp, ok := storedTuple(); ok {
				ops, single = []TxOp{{Kind: "retract", Relation: rel, Values: tp.Item}}, true
			}
		case k < 50: // sign flip
			if rel, tp, ok := storedTuple(); ok {
				ops = []TxOp{{Kind: signKind(!tp.Sign), Relation: rel, Values: tp.Item}}
			}
		case k < 72: // bracket of random ops over both relations
			for n := 2 + rng.Intn(3); n > 0; n-- {
				ops = append(ops, randomOp())
			}
		case k < 84: // +X, −Y over a shared instance, with or without its resolution
			inst := instances[rng.Intn(len(instances))]
			x, y := classes[rng.Intn(len(classes))], classes[rng.Intn(len(classes))]
			ops = []TxOp{{Kind: "assert", Relation: "R", Values: []string{x}}, {Kind: "deny", Relation: "R", Values: []string{y}}}
			if rng.Intn(3) > 0 {
				ops = append(ops, TxOp{Kind: signKind(rng.Intn(2) == 0), Relation: "R", Values: []string{inst}})
			}
		case k < 92: // hierarchy surgery, then no write: the next step meets it
			var dErr, fErr error
			switch rng.Intn(5) {
			case 0: // a second parent for an existing node
				p, c := classes[rng.Intn(len(classes))], nodeA()
				dErr, fErr = tw.each(func(db *Database) error { return hierA(db).AddEdge(p, c) })
			case 1: // a new instance under two classes
				name := fmt.Sprintf("n%d_%d", seed, step)
				p1, p2 := classes[rng.Intn(len(classes))], classes[rng.Intn(len(classes))]
				dErr, fErr = tw.each(func(db *Database) error { return hierA(db).AddInstance(name, p1, p2) })
				if dErr == nil {
					instances = append(instances, name)
				}
			case 2:
				name, parents := fmt.Sprintf("d%d_%d", seed, step), parentsFor()
				dErr, fErr = tw.each(func(db *Database) error { return hierA(db).AddClass(name, parents...) })
				if dErr == nil {
					classes = append(classes, name)
				}
			case 3:
				i := rng.Intn(len(instances))
				name := instances[i]
				dErr, fErr = tw.each(func(db *Database) error { return db.DropNode("A", name) })
				if dErr == nil {
					instances = append(instances[:i], instances[i+1:]...)
				}
			default:
				a, b := classes[rng.Intn(len(classes))], classes[rng.Intn(len(classes))]
				dErr, fErr = tw.each(func(db *Database) error { return hierA(db).Prefer(a, b) })
			}
			if fmt.Sprint(dErr) != fmt.Sprint(fErr) {
				fail(step, "hierarchy surgery diverged: %v vs %v", dErr, fErr)
			}
		default: // try to repair what the last rejection complained about
			if lastConflict != nil {
				ops = []TxOp{*lastConflict}
				ops[0].Kind = signKind(rng.Intn(2) == 0)
			}
		}
		if len(ops) == 0 {
			continue
		}

		dErr, fErr := tw.write(func(db *Database) error {
			if !single {
				return db.ApplyOps(ops)
			}
			switch o := ops[0]; o.Kind {
			case "assert":
				return db.Assert(o.Relation, o.Values...)
			case "deny":
				return db.Deny(o.Relation, o.Values...)
			default:
				_, err := db.Retract(o.Relation, o.Values...)
				return err
			}
		})
		if fmt.Sprint(dErr) != fmt.Sprint(fErr) {
			fail(step, "%v: delta says %v, full says %v", ops, dErr, fErr)
		}
		dItems, dIs := conflictItems(dErr)
		fItems, fIs := conflictItems(fErr)
		if dIs != fIs || !reflect.DeepEqual(dItems, fItems) {
			fail(step, "%v: delta names %q, full names %q", ops, dItems, fItems)
		}
		if dIs {
			var ie *core.InconsistencyError
			errors.As(dErr, &ie)
			lastConflict = &TxOp{Relation: ie.Relation, Values: ie.Conflicts[0].Item}
		}
		for _, rel := range twinRelations {
			dr, _ := tw.delta.Relation(rel)
			fr, _ := tw.full.Relation(rel)
			if !reflect.DeepEqual(dr.Tuples(), fr.Tuples()) {
				fail(step, "%v: %s differs: %v vs %v", ops, rel, dr.Tuples(), fr.Tuples())
			}
		}
		if dErr != nil {
			rejected++
			continue
		}
		accepted++
		for _, o := range ops {
			r, _ := tw.delta.Relation(o.Relation)
			if cs := r.Conflicts(); len(cs) > 0 {
				fail(step, "%v accepted, but %s conflicts at %v", ops, o.Relation, cs[0].Item)
			}
		}
	}
	return accepted, rejected
}

// A conflict that hierarchy surgery plants in a verified relation must
// reject the next write, even one far from it: the surgery moved the
// hierarchy generation, so the stamp no longer matches and the write is
// verified by the full check, as every write was before the delta check.
func TestHierarchySurgeryInvalidatesStamp(t *testing.T) {
	db := setupFlies(t)
	r, err := db.Relation("Flies")
	must(t, err)
	if !r.VerifiedConsistent() {
		t.Fatal("relation not verified after accepted writes")
	}
	must(t, db.Assert("Flies", "Canary"))
	if !r.VerifiedConsistent() {
		t.Fatal("relation not verified after an accepted write")
	}

	// Tweety becomes a penguin too: Canary's + and Penguin's − now meet at
	// Tweety with nothing to resolve them.
	h, err := db.Hierarchy("Animal")
	must(t, err)
	must(t, h.AddEdge("Penguin", "Tweety"))
	if r.VerifiedConsistent() {
		t.Fatal("stamp survived a hierarchy edit")
	}

	// Pamela shares nothing with Tweety; a delta check at Pamela would pass.
	err = db.Assert("Flies", "Pamela")
	if items, ok := conflictItems(err); !ok || !reflect.DeepEqual(items, []string{"Tweety"}) {
		t.Fatalf("unrelated write after surgery: got %v, want the conflict at Tweety", err)
	}
	if _, present := r.Lookup(core.Item{"Pamela"}); present {
		t.Fatal("rejected write left its tuple behind")
	}

	// Resolving the conflict verifies the relation again.
	must(t, db.Deny("Flies", "Tweety"))
	if !r.VerifiedConsistent() {
		t.Fatal("relation not verified after the resolving write")
	}
	must(t, db.Assert("Flies", "Pamela"))
}
