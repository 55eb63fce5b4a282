package catalog

import (
	"errors"
	"testing"

	"hrdb/internal/core"
	"hrdb/internal/hierarchy"
)

// TestApplyOps: the serializable-op entry point used by HQL and the WAL.
func TestApplyOps(t *testing.T) {
	db := setupFlies(t)
	ops := []TxOp{
		{Kind: "deny", Relation: "Flies", Values: []string{"GalapagosPenguin"}},
		{Kind: "assert", Relation: "Flies", Values: []string{"Patricia"}},
	}
	must(t, db.ApplyOps(ops))
	got, err := db.Holds("Flies", "Paul")
	must(t, err)
	if got {
		t.Fatal("Paul should not fly")
	}
	// Retract through ops.
	must(t, db.ApplyOps([]TxOp{{Kind: "retract", Relation: "Flies", Values: []string{"Patricia"}}, {Kind: "retract", Relation: "Flies", Values: []string{"GalapagosPenguin"}}}))
	// Unknown kind rolls back.
	if err := db.ApplyOps([]TxOp{{Kind: "zap", Relation: "Flies"}}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
}

// TestApplyOpsBareVersusTransaction: a bare insert is the statement, which
// refuses to overwrite the opposite sign; the same op unmarked is a
// transaction of one, which replaces it.
func TestApplyOpsBareVersusTransaction(t *testing.T) {
	db := setupFlies(t)
	deny := TxOp{Kind: KindDeny, Relation: "Flies", Values: []string{"Patricia"}}
	must(t, db.ApplyOps([]TxOp{{Kind: KindAssert, Relation: "Flies", Values: []string{"Patricia"}, Bare: true}}))
	bare := deny
	bare.Bare = true
	if err := db.ApplyOps([]TxOp{bare}); !errors.Is(err, core.ErrContradiction) {
		t.Fatalf("bare deny over the stored assert = %v, want ErrContradiction", err)
	}
	if got, err := db.Holds("Flies", "Patricia"); err != nil || !got {
		t.Fatalf("refused deny changed the tuple: Holds = %v, %v", got, err)
	}
	must(t, db.ApplyOps([]TxOp{deny}))
	if got, err := db.Holds("Flies", "Patricia"); err != nil || got {
		t.Fatalf("transaction of one did not flip the sign: Holds = %v, %v", got, err)
	}
}

// TestAttachDuplicates: attach paths reject duplicates.
func TestAttachDuplicates(t *testing.T) {
	db := setupFlies(t)
	if err := db.AttachHierarchy(hierarchy.New("Animal")); !errors.Is(err, ErrExists) {
		t.Fatalf("got %v", err)
	}
	h := hierarchy.New("Other")
	must(t, db.AttachHierarchy(h))
	s := core.MustSchema(core.Attribute{Name: "X", Domain: h})
	r := core.NewRelation("Flies", s)
	if err := db.AttachRelation(r); !errors.Is(err, ErrExists) {
		t.Fatalf("got %v", err)
	}
	r2 := core.NewRelation("Other", s)
	must(t, db.AttachRelation(r2))
}

// TestUpdateOnMissingRelation.
func TestUpdateOnMissingRelation(t *testing.T) {
	db := New()
	if err := db.Assert("Nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if err := db.Deny("Nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if _, err := db.Evaluate("Nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

// TestInsertValidationThroughDatabase: core validation errors surface.
func TestInsertValidationThroughDatabase(t *testing.T) {
	db := setupFlies(t)
	if err := db.Assert("Flies", "NotAnAnimal"); !errors.Is(err, core.ErrUnknownValue) {
		t.Fatalf("got %v", err)
	}
	if err := db.Assert("Flies", "a", "b"); !errors.Is(err, core.ErrArity) {
		t.Fatalf("got %v", err)
	}
	if err := db.Deny("Flies", "Bird"); !errors.Is(err, core.ErrContradiction) {
		t.Fatalf("got %v", err)
	}
}

// TestWarnPolicyInsideSuccessfulTx: warnings accumulate across transaction
// commits as well.
func TestWarnPolicyInsideSuccessfulTx(t *testing.T) {
	db := setupFlies(t)
	db.SetPolicy(WarnExceptions)
	tx := db.Begin()
	tx.Deny("Flies", "Tweety")
	must(t, tx.Commit())
	if len(db.Warnings()) != 1 {
		t.Fatal("warning lost in tx")
	}
}

// TestTxRetractMissingIsNoop.
func TestTxRetractMissingIsNoop(t *testing.T) {
	db := setupFlies(t)
	tx := db.Begin()
	tx.Retract("Flies", "Tweety") // no exact tuple on Tweety
	must(t, tx.Commit())
	got, err := db.Holds("Flies", "Tweety")
	must(t, err)
	if !got {
		t.Fatal("noop retract changed semantics")
	}
}

// TestTxReassertSameSignIsNoop.
func TestTxReassertSameSignIsNoop(t *testing.T) {
	db := setupFlies(t)
	tx := db.Begin()
	tx.Assert("Flies", "Bird")
	tx.Assert("Flies", "Bird")
	must(t, tx.Commit())
	r, _ := db.Relation("Flies")
	if r.Len() != 3 {
		t.Fatalf("tuples = %d", r.Len())
	}
}
