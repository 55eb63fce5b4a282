package storage

import (
	"os"
	"path/filepath"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

// This file is the crash-recovery property harness: run a scripted workload
// against a store, then simulate a crash at every byte offset of the WAL by
// truncating a copy and reopening. The recovered database must equal the
// state at the last acknowledged operation whose bytes fit the prefix —
// no acknowledged operation lost, no unacknowledged bracket resurrected.

// fingerprint returns a canonical rendering of a database's full logical
// state (hierarchies, preferences, relations, modes, tuples, policy),
// independent of construction order.
func fingerprint(db *catalog.Database) string { return Fingerprint(db) }

// boundary records the durable WAL size and database state after one
// acknowledged operation.
type boundary struct {
	off int64
	fp  string
}

// expectedAt returns the state an offset-L crash must recover: the
// fingerprint at the largest acknowledged boundary not beyond L.
func expectedAt(bounds []boundary, l int64) string {
	want := bounds[0].fp
	for _, b := range bounds {
		if b.off <= l {
			want = b.fp
		}
	}
	return want
}

// runCrashWorkload drives a fresh store in dir through a scripted workload
// covering the whole mutation surface — standalone DDL and DML,
// transactions (including a rejected one), schema evolution, consolidate
// and explicate — recording a boundary after every acknowledged call. It
// returns the boundaries and the final WAL bytes.
func runCrashWorkload(t testing.TB, dir string) ([]boundary, []byte) {
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []boundary
	mark := func() {
		off, err := s.LogSize()
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, boundary{off: off, fp: fingerprint(s.Database())})
	}
	step := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		mark()
	}
	mark() // empty store at offset 0

	step(s.CreateHierarchy("D"))
	step(s.AddClass("D", "C1"))
	step(s.AddClass("D", "C2", "C1"))
	step(s.AddClass("D", "C3", "C1"))
	step(s.AddInstance("D", "i1", "C2"))
	step(s.AddInstance("D", "i2", "C3"))
	step(s.AddInstance("D", "i3", "C1"))
	step(s.CreateRelation("R", catalog.AttrSpec{Name: "X", Domain: "D"}))
	step(s.Assert("R", "C1"))
	step(s.Deny("R", "C2"))

	// A transaction whose parts are only consistent together.
	step(s.ApplyTx([]catalog.TxOp{
		{Kind: "assert", Relation: "R", Values: []string{"C3"}},
		{Kind: "deny", Relation: "R", Values: []string{"i2"}},
	}))

	// A rejected transaction: its bracket is closed by tx_abort and must
	// never be recovered, at any crash offset.
	if err := s.ApplyTx([]catalog.TxOp{
		{Kind: "assert", Relation: "Nope", Values: []string{"i1"}},
	}); err == nil {
		t.Fatal("transaction on missing relation accepted")
	}
	mark()

	step(s.Assert("R", "i3"))
	step(s.Retract("R", "i3"))
	step(s.AddEdge("D", "C3", "i3"))
	step(s.Prefer("D", "C2", "C3"))
	step(s.SetMode("R", core.OnPath))
	step(s.Consolidate("R"))

	step(s.ApplyTx([]catalog.TxOp{
		{Kind: "retract", Relation: "R", Values: []string{"C3"}},
		{Kind: "assert", Relation: "R", Values: []string{"i2"}},
	}))

	step(s.CreateRelation("Tmp", catalog.AttrSpec{Name: "Y", Domain: "D"}))
	step(s.DropRelation("Tmp"))
	step(s.AddInstance("D", "doomed", "C1"))
	step(s.DropNode("D", "doomed"))
	step(s.Explicate("R"))

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if last := bounds[len(bounds)-1].off; last != int64(len(wal)) {
		t.Fatalf("durable size %d != wal file size %d", last, len(wal))
	}
	return bounds, wal
}

// TestCrashAtEveryOffset: for every byte offset L of the workload's WAL,
// a crash leaving exactly L bytes must recover exactly the committed
// prefix. Run via `make test-crash` (or the ordinary test suite; -short
// strides).
func TestCrashAtEveryOffset(t *testing.T) {
	bounds, wal := runCrashWorkload(t, t.TempDir())

	crashDir := t.TempDir()
	walPath := filepath.Join(crashDir, walFile)
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for l := 0; l <= len(wal); l += stride {
		if err := os.WriteFile(walPath, wal[:l], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(crashDir)
		if err != nil {
			t.Fatalf("crash at offset %d: reopen failed: %v", l, err)
		}
		got := fingerprint(s.Database())
		want := expectedAt(bounds, int64(l))
		s.Close()
		if got != want {
			t.Fatalf("crash at offset %d: recovered state diverges from committed prefix\n got: %s\nwant: %s", l, got, want)
		}
	}
}

// TestCrashRecoveredStoreStaysWritable: after a mid-record crash the
// reopened store accepts new mutations and they survive a further reopen.
func TestCrashRecoveredStoreStaysWritable(t *testing.T) {
	_, wal := runCrashWorkload(t, t.TempDir())

	dir := t.TempDir()
	// Cut inside the final record to force tail truncation.
	if err := os.WriteFile(filepath.Join(dir, walFile), wal[:len(wal)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.AddInstance("D", "post-crash", "C1"))
	must(t, s.Assert("R", "post-crash"))
	must(t, s.Close())

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Database().Holds("R", "post-crash")
	must(t, err)
	if !got {
		t.Fatal("post-crash mutation lost after reopen")
	}
}

// TestCrashBetweenTxBeginAndCommit: records of an unterminated bracket —
// DML and non-DML alike — must not mutate the recovered database, and the
// reopened log must not strand later appends behind the open bracket.
func TestCrashBetweenTxBeginAndCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	before := fingerprint(s.Database())
	must(t, s.Close())

	// Simulate a crash mid-transaction: an open bracket with DML and a
	// non-DML record, no commit. (This writer keeps brackets pure DML; the
	// set_mode covers foreign/legacy writers too.)
	l, err := OpenLog(filepath.Join(dir, walFile))
	must(t, err)
	must(t, l.Append(Record{Op: OpTxBegin}))
	must(t, l.Append(Record{Op: "assert", Target: "Flies", Args: []string{"GP"}}))
	must(t, l.Append(Record{Op: "set_mode", Target: "Flies", Args: []string{"on-path"}}))
	must(t, l.Close())

	s2, err := Open(dir)
	must(t, err)
	if got := fingerprint(s2.Database()); got != before {
		t.Fatalf("uncommitted bracket mutated the recovered database\n got: %s\nwant: %s", got, before)
	}
	r, err := s2.Database().Relation("Flies")
	must(t, err)
	if r.Mode() != core.OffPath {
		t.Fatal("set_mode from an uncommitted transaction was applied")
	}
	// The bracket was truncated, so new standalone appends are recovered.
	must(t, s2.AddInstance("Animal", "Pete", "GP"))
	must(t, s2.Close())
	s3, err := Open(dir)
	must(t, err)
	defer s3.Close()
	h, err := s3.Database().Hierarchy("Animal")
	must(t, err)
	if !h.Has("Pete") {
		t.Fatal("standalone append after truncated bracket was lost")
	}
}
