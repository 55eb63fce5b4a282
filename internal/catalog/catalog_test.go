package catalog

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"hrdb/internal/core"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// setupFlies builds a database with the Figure 1 hierarchy and Flies
// relation.
func setupFlies(t *testing.T) *Database {
	t.Helper()
	db := New()
	h, err := db.CreateHierarchy("Animal")
	must(t, err)
	must(t, h.AddClass("Bird"))
	must(t, h.AddClass("Canary", "Bird"))
	must(t, h.AddInstance("Tweety", "Canary"))
	must(t, h.AddClass("Penguin", "Bird"))
	must(t, h.AddClass("GalapagosPenguin", "Penguin"))
	must(t, h.AddClass("AmazingFlyingPenguin", "Penguin"))
	must(t, h.AddInstance("Paul", "GalapagosPenguin"))
	must(t, h.AddInstance("Patricia", "GalapagosPenguin", "AmazingFlyingPenguin"))
	must(t, h.AddInstance("Pamela", "AmazingFlyingPenguin"))
	must(t, h.AddInstance("Peter", "AmazingFlyingPenguin"))
	_, err = db.CreateRelation("Flies", AttrSpec{Name: "Creature", Domain: "Animal"})
	must(t, err)
	must(t, db.Assert("Flies", "Bird"))
	must(t, db.Deny("Flies", "Penguin"))
	must(t, db.Assert("Flies", "AmazingFlyingPenguin"))
	return db
}

func TestCreateAndLookup(t *testing.T) {
	db := setupFlies(t)
	if _, err := db.Hierarchy("Animal"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Hierarchy("Nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if _, err := db.Relation("Flies"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Relation("Nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if got := db.Hierarchies(); len(got) != 1 || got[0] != "Animal" {
		t.Fatalf("Hierarchies = %v", got)
	}
	if got := db.Relations(); len(got) != 1 || got[0] != "Flies" {
		t.Fatalf("Relations = %v", got)
	}
}

func TestCreateDuplicates(t *testing.T) {
	db := setupFlies(t)
	if _, err := db.CreateHierarchy("Animal"); !errors.Is(err, ErrExists) {
		t.Fatalf("got %v", err)
	}
	if _, err := db.CreateRelation("Flies"); !errors.Is(err, ErrExists) {
		t.Fatalf("got %v", err)
	}
	if _, err := db.CreateRelation("R2", AttrSpec{Name: "X", Domain: "Nope"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestHoldsAndEvaluate(t *testing.T) {
	db := setupFlies(t)
	got, err := db.Holds("Flies", "Tweety")
	must(t, err)
	if !got {
		t.Fatal("Tweety should fly")
	}
	v, err := db.Evaluate("Flies", "Paul")
	must(t, err)
	if v.Value {
		t.Fatal("Paul should not fly")
	}
	if _, err := db.Holds("Nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

// TestUpdateRejectsConflict: a single update that creates an unresolved
// conflict is rolled back (§3.1).
func TestUpdateRejectsConflict(t *testing.T) {
	db := setupFlies(t)
	err := db.Deny("Flies", "GalapagosPenguin") // conflicts at Patricia
	var ie *core.InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want InconsistencyError", err)
	}
	// The update was rolled back.
	r, _ := db.Relation("Flies")
	if _, ok := r.Lookup(core.Item{"GalapagosPenguin"}); ok {
		t.Fatal("conflicting tuple was not rolled back")
	}
}

// TestTransactionResolvesConflict: the same update packaged with its
// resolution commits (§3.1's transaction requirement).
func TestTransactionResolvesConflict(t *testing.T) {
	db := setupFlies(t)
	tx := db.Begin()
	tx.Deny("Flies", "GalapagosPenguin").Assert("Flies", "Patricia")
	must(t, tx.Commit())
	got, err := db.Holds("Flies", "Patricia")
	must(t, err)
	if !got {
		t.Fatal("Patricia should fly via the resolving tuple")
	}
	got, err = db.Holds("Flies", "Paul")
	must(t, err)
	if got {
		t.Fatal("Paul should not fly")
	}
}

// TestTransactionAtomicRollback: a failing commit leaves no trace.
func TestTransactionAtomicRollback(t *testing.T) {
	db := setupFlies(t)
	r, _ := db.Snapshot("Flies")
	before := r.Tuples()

	tx := db.Begin()
	tx.Assert("Flies", "Paul").Deny("Flies", "GalapagosPenguin") // Patricia conflict remains
	err := tx.Commit()
	var ie *core.InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v", err)
	}
	after, _ := db.Snapshot("Flies")
	if len(after.Tuples()) != len(before) {
		t.Fatalf("rollback incomplete: %v", after.Tuples())
	}
	// Unknown relation mid-transaction also rolls back.
	tx2 := db.Begin()
	tx2.Assert("Flies", "Paul").Assert("Nope", "x")
	if err := tx2.Commit(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	after2, _ := db.Snapshot("Flies")
	if _, ok := after2.Lookup(core.Item{"Paul"}); ok {
		t.Fatal("partial transaction leaked")
	}
}

// TestTransactionFlipSign: a transaction can replace a tuple's sign.
func TestTransactionFlipSign(t *testing.T) {
	db := setupFlies(t)
	tx := db.Begin()
	tx.Assert("Flies", "Penguin") // flip the − to +
	must(t, tx.Commit())
	got, err := db.Holds("Flies", "Paul")
	must(t, err)
	if !got {
		t.Fatal("after flip, penguins fly")
	}
}

// TestTxDoneAndRollback: reuse after finish is rejected.
func TestTxDoneAndRollback(t *testing.T) {
	db := setupFlies(t)
	tx := db.Begin()
	tx.Assert("Flies", "Tweety")
	must(t, tx.Commit())
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("got %v", err)
	}
	tx2 := db.Begin()
	tx2.Assert("Flies", "Paul")
	if tx2.Len() != 1 {
		t.Fatal("Len wrong")
	}
	tx2.Rollback()
	if err := tx2.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("got %v", err)
	}
	r, _ := db.Relation("Flies")
	if _, ok := r.Lookup(core.Item{"Paul"}); ok {
		t.Fatal("rolled-back op applied")
	}
}

// TestExceptionPolicies: forbid blocks, warn records, allow is silent.
func TestExceptionPolicies(t *testing.T) {
	db := setupFlies(t)

	db.SetPolicy(ForbidExceptions)
	if err := db.Deny("Flies", "Tweety"); !errors.Is(err, ErrExceptionForbidden) {
		t.Fatalf("forbid: got %v", err)
	}

	db.SetPolicy(WarnExceptions)
	deny := []TxOp{{Kind: KindDeny, Relation: "Flies", Values: []string{"Tweety"}, Bare: true}}
	w, err := db.Apply(deny)
	must(t, err)
	if len(w) != 1 || !strings.Contains(w[0], "Tweety") {
		t.Fatalf("warnings = %v", w)
	}

	db.SetPolicy(AllowExceptions)
	_, err = db.Retract("Flies", "Tweety")
	must(t, err)
	if w, err := db.Apply(deny); err != nil || len(w) != 0 {
		t.Fatalf("allow: warnings %v, err %v", w, err)
	}
	if db.Policy() != AllowExceptions {
		t.Fatal("Policy getter wrong")
	}
	for _, p := range []ExceptionPolicy{AllowExceptions, WarnExceptions, ForbidExceptions, ExceptionPolicy(9)} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

// TestPolicyAppliesInTransactions too.
func TestPolicyAppliesInTransactions(t *testing.T) {
	db := setupFlies(t)
	db.SetPolicy(ForbidExceptions)
	tx := db.Begin()
	tx.Deny("Flies", "Tweety")
	if err := tx.Commit(); !errors.Is(err, ErrExceptionForbidden) {
		t.Fatalf("got %v", err)
	}
}

// TestRetractGuardsConsistency: removing a conflict-resolving tuple is
// rejected and rolled back.
func TestRetractGuardsConsistency(t *testing.T) {
	db := setupFlies(t)
	tx := db.Begin()
	tx.Deny("Flies", "GalapagosPenguin").Assert("Flies", "Patricia")
	must(t, tx.Commit())

	_, err := db.Retract("Flies", "Patricia")
	var ie *core.InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want InconsistencyError", err)
	}
	r, _ := db.Relation("Flies")
	if _, ok := r.Lookup(core.Item{"Patricia"}); !ok {
		t.Fatal("resolving tuple lost despite rejection")
	}
	// Retracting a non-existent tuple is a no-op.
	removed, err := db.Retract("Flies", "Tweety")
	must(t, err)
	if removed {
		t.Fatal("phantom retract")
	}
	if _, err := db.Retract("Nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

// TestConsolidateAndExplicate mutate in place.
func TestConsolidateAndExplicate(t *testing.T) {
	db := setupFlies(t)
	must(t, db.Assert("Flies", "Tweety")) // redundant under Bird+
	removed, err := db.Consolidate("Flies")
	must(t, err)
	if removed != 1 {
		t.Fatalf("removed = %d", removed)
	}
	must(t, db.Explicate("Flies"))
	r, _ := db.Relation("Flies")
	for _, tu := range r.Tuples() {
		if !r.IsAtomic(tu.Item) {
			t.Fatalf("non-atomic after explicate: %v", tu)
		}
	}
	if _, err := db.Consolidate("Nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if err := db.Explicate("Nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

// TestSnapshotIsolation: snapshots do not see later writes.
func TestSnapshotIsolation(t *testing.T) {
	db := setupFlies(t)
	snap, err := db.Snapshot("Flies")
	must(t, err)
	must(t, db.Assert("Flies", "Tweety"))
	if _, ok := snap.Lookup(core.Item{"Tweety"}); ok {
		t.Fatal("snapshot saw a later write")
	}
	if _, err := db.Snapshot("Nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

// TestDropRelation removes and rejects missing.
func TestDropRelation(t *testing.T) {
	db := setupFlies(t)
	must(t, db.DropRelation("Flies"))
	if err := db.DropRelation("Flies"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

// TestConcurrentReadersAndWriters: smoke test under the race detector.
func TestConcurrentReadersAndWriters(t *testing.T) {
	db := setupFlies(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				if i%2 == 0 {
					_, _ = db.Holds("Flies", "Tweety")
					_, _ = db.Snapshot("Flies")
				} else {
					_ = db.Assert("Flies", "Peter")
					_, _ = db.Retract("Flies", "Peter")
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestIndexStatsAndWarmIndexes(t *testing.T) {
	db := setupFlies(t)
	if _, err := db.IndexStats("Nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("IndexStats(Nope) = %v, want ErrNotFound", err)
	}
	stats, err := db.IndexStats("Flies")
	must(t, err)
	if len(stats) != 1 || stats[0].Attr != "Creature" {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Tuples != 3 || stats[0].Distinct != 3 {
		t.Fatalf("stats[0] = %+v, want 3 tuples over 3 distinct values", stats[0])
	}
	if stats[0].Warm {
		t.Fatal("fresh database reported a warm label index")
	}
	h, err := db.Hierarchy("Animal")
	must(t, err)
	h.Warm()
	stats, err = db.IndexStats("Flies")
	must(t, err)
	if !stats[0].Warm {
		t.Fatal("warming the hierarchy did not warm the label index")
	}
}

// TestRejectedRestatementKeepsTuple: re-asserting a stored tuple on a
// relation that hierarchy surgery has left inconsistent is refused by the
// full check — and the refusal must undo nothing, because the insert placed
// nothing. It used to retract the stored tuple, in memory only: the WAL, the
// replicas and the views kept it.
func TestRejectedRestatementKeepsTuple(t *testing.T) {
	db := New()
	h, err := db.CreateHierarchy("D")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"a", "b"} {
		if err := h.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddInstance("x", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("R", AttrSpec{Name: "X", Domain: "D"}); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{db.Assert("R", "a"), db.Deny("R", "b"), db.Assert("R", "a")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddEdge("b", "x"); err != nil { // x now inherits + from a and − from b
		t.Fatal(err)
	}
	var ie *core.InconsistencyError
	if err := db.Assert("R", "a"); !errors.As(err, &ie) {
		t.Fatalf("restating + (a) on the inconsistent relation = %v, want the inconsistency", err)
	}
	r, _ := db.Relation("R")
	if _, ok := r.Lookup(core.Item{"a"}); !ok {
		t.Fatal("the refused restatement retracted the stored tuple")
	}
}
