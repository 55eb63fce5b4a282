package storage

import (
	"errors"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

// TestStoreApplyTxAndReplay: a transaction whose individual records are
// inconsistent on their own must be logged as a bracketed batch and
// replayed as one transaction.
func TestStoreApplyTxAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	must(t, s.AddInstance("Animal", "Paul", "GP"))

	// Denying GP alone conflicts at Patricia (GP vs AFP)… except the
	// fixture prefers AFP. Build a real conflict on a fresh pair instead:
	// deny Bird (conflicts with the AFP positive below it? No: comparable).
	// Use: assert GP, then deny AFP — Patricia (GP∧AFP) conflicts; resolve
	// with an exact tuple in the same transaction.
	ops := []catalog.TxOp{
		{Kind: "assert", Relation: "Flies", Values: []string{"GP"}},
		{Kind: "deny", Relation: "Flies", Values: []string{"Patricia"}},
	}
	// assert GP alone would conflict with the stored Penguin negation at
	// Paul? GP+ under Penguin−: comparable (exception), fine. Patricia has
	// GP+ and AFP+ → no conflict. Deny Patricia: exact tuple wins. The
	// batch is consistent as a whole.
	must(t, s.ApplyTx(ops))

	got, err := s.Database().Holds("Flies", "Patricia")
	must(t, err)
	if got {
		t.Fatal("exact negation should win")
	}
	must(t, s.Close())

	// Recovery replays the tx bracket as one transaction.
	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	got, err = s2.Database().Holds("Flies", "Patricia")
	must(t, err)
	if got {
		t.Fatal("tx not replayed")
	}
	got, err = s2.Database().Holds("Flies", "Paul")
	must(t, err)
	if !got {
		t.Fatal("GP assertion lost")
	}
}

// TestStoreApplyTxFailureNotLogged: a failing transaction leaves no log
// records.
func TestStoreApplyTxFailureNotLogged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	before, err := s.LogSize()
	must(t, err)

	ops := []catalog.TxOp{
		{Kind: "assert", Relation: "Nope", Values: []string{"x"}},
	}
	if err := s.ApplyTx(ops); err == nil {
		t.Fatal("bad tx accepted")
	}
	after, err := s.LogSize()
	must(t, err)
	if after != before {
		t.Fatal("failed tx was logged")
	}
	// Unknown op kind is rejected before logging.
	if err := s.ApplyTx([]catalog.TxOp{{Kind: "zap", Relation: "Flies"}}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
}

// TestStoreDropNodeAndSetModeDurable: both schema-evolution ops replay.
func TestStoreDropNodeAndSetModeDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	must(t, s.AddInstance("Animal", "Doomed", "GP"))
	must(t, s.DropNode("Animal", "Doomed"))
	must(t, s.SetMode("Flies", core.OnPath))
	// Referenced nodes refuse and are not logged.
	if err := s.DropNode("Animal", "AFP"); err == nil {
		t.Fatal("referenced node dropped")
	}
	must(t, s.Close())

	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	h, err := s2.Database().Hierarchy("Animal")
	must(t, err)
	if h.Has("Doomed") {
		t.Fatal("drop_node not replayed")
	}
	r, err := s2.Database().Relation("Flies")
	must(t, err)
	if r.Mode() != core.OnPath {
		t.Fatalf("mode = %v", r.Mode())
	}
}

// TestStoreFailureInjection: when the WAL cannot be written (simulated by
// closing its file), the store reports ErrStoreFailed and refuses further
// mutations; reopening recovers the logged prefix.
func TestStoreFailureInjection(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)

	// Simulate an I/O failure: close the log out from under the store.
	must(t, s.log.Close())
	err = s.Assert("Flies", "Tweety")
	if !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("got %v, want ErrStoreFailed", err)
	}
	// Every subsequent mutation refuses fast.
	if err := s.CreateHierarchy("X"); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("got %v", err)
	}
	if err := s.ApplyTx([]catalog.TxOp{{Kind: "assert", Relation: "Flies", Values: []string{"Tweety"}}}); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("got %v", err)
	}

	// Recovery restores the pre-failure state (Tweety's assert was applied
	// in memory but never logged — it must be gone).
	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	r, err := s2.Database().Relation("Flies")
	must(t, err)
	if _, ok := r.Lookup(core.Item{"Tweety"}); ok {
		t.Fatal("unlogged mutation survived recovery")
	}
	got, err := s2.Database().Holds("Flies", "Patricia")
	must(t, err)
	if !got {
		t.Fatal("logged prefix lost")
	}
}

// TestStoreDirAccessor.
func TestStoreDirAccessor(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	defer s.Close()
	if s.Dir() != dir {
		t.Fatalf("Dir = %q", s.Dir())
	}
}

// TestStoreTxWithRetractReplay: retract inside a tx bracket replays.
func TestStoreTxWithRetractReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	ops := []catalog.TxOp{
		{Kind: "retract", Relation: "Flies", Values: []string{"AFP"}},
		{Kind: "assert", Relation: "Flies", Values: []string{"Patricia"}},
	}
	must(t, s.ApplyTx(ops))
	must(t, s.Close())

	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	r, err := s2.Database().Relation("Flies")
	must(t, err)
	if _, ok := r.Lookup(core.Item{"AFP"}); ok {
		t.Fatal("retract in tx not replayed")
	}
	got, err := s2.Database().Holds("Flies", "Patricia")
	must(t, err)
	if !got {
		t.Fatal("assert in tx not replayed")
	}
}

// TestLogBytesPerStatement: the log's bytes do not move. Every op kind, a
// committed bracket and a rejected one add exactly the bytes they added when
// commit 8332a0f wrote them (the deltas below were recorded there).
func TestLogBytesPerStatement(t *testing.T) {
	s, err := Open(t.TempDir())
	must(t, err)
	defer s.Close()
	bare := func(kind, target string, values ...string) []catalog.TxOp {
		return []catalog.TxOp{{Kind: kind, Relation: target, Values: values, Bare: true}}
	}
	tx := func(pairs ...string) (ops []catalog.TxOp) {
		for i := 0; i < len(pairs); i += 3 {
			ops = append(ops, catalog.TxOp{Kind: pairs[i], Relation: pairs[i+1], Values: []string{pairs[i+2]}})
		}
		return ops
	}
	for i, step := range []struct {
		ops      []catalog.TxOp
		rejected bool
		want     int64
	}{
		{ops: bare("create_hierarchy", "D"), want: 104},
		{ops: bare("add_class", "D", "C1"), want: 102},
		{ops: bare("add_class", "D", "C2", "C1"), want: 105},
		{ops: bare("add_instance", "D", "i1", "C2"), want: 108},
		{ops: bare("add_instance", "D", "i2", "C1"), want: 108},
		{ops: bare("add_class", "D", "K"), want: 101},
		{ops: bare("add_edge", "D", "K", "i2"), want: 103},
		{ops: bare("prefer", "D", "C2", "K"), want: 101},
		{ops: bare("create_relation", "R", "X", "D"), want: 109},
		{ops: bare("assert", "R", "C1"), want: 99},
		{ops: bare("deny", "R", "C2"), want: 97},
		{ops: bare("retract", "R", "C2"), want: 100},
		{ops: bare("deny", "R", "C1"), rejected: true, want: 0}, // bare flip: refused, nothing logged
		{ops: tx("deny", "R", "C2", "assert", "R", "i1"), want: 383},
		{ops: tx("deny", "R", "C1"), want: 284},                                           // one-op bracket: flips
		{ops: tx("assert", "R", "i2", "assert", "Nope", "i2"), rejected: true, want: 387}, // tx_abort: both records staged
		{ops: bare("set_mode", "R", "on-path"), want: 106},
		{ops: bare("set_policy", "", "warn"), want: 102},
		{ops: bare("consolidate", "R"), want: 99},
		{ops: bare("explicate", "R", "X"), want: 101},
		{ops: bare("add_instance", "D", "doomed", "C1"), want: 112},
		{ops: bare("drop_node", "D", "doomed"), want: 106},
		{ops: bare("drop_relation", "R"), want: 101},
	} {
		// Staged, not durable, bytes: a rejected bracket's tx_abort waits for
		// the next statement's fsync.
		_, before := s.log.StagedMark()
		if err := s.ApplyTx(step.ops); (err != nil) != step.rejected {
			t.Fatalf("step %d %+v: %v", i, step.ops, err)
		}
		_, after := s.log.StagedMark()
		if after-before != step.want {
			t.Errorf("step %d %+v logged %d bytes, want %d", i, step.ops, after-before, step.want)
		}
	}
}
