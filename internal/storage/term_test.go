package storage

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hrdb/internal/catalog"
)

// Tests for the primary fencing-term machinery: AdoptTerm durability,
// Fence/ErrDeposed semantics, Create-from-spec materialization, and the
// divergence quarantine used by deposed-primary rejoin.

// TestAdoptTermSurvivesReopen: a term adopted after the last checkpoint
// exists only as an OpNewTerm WAL record; recovery must fold it back in.
func TestAdoptTermSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	if got := s.Term(); got != 0 {
		t.Fatalf("fresh store term = %d, want 0", got)
	}
	must(t, s.AdoptTerm(3))
	if got := s.Term(); got != 3 {
		t.Fatalf("term after adopt = %d, want 3", got)
	}
	// Lower terms are refused and do not regress the store.
	if err := s.AdoptTerm(2); err == nil {
		t.Fatal("adopting a lower term succeeded")
	}
	must(t, s.Close())

	s, err = Open(dir)
	must(t, err)
	defer s.Close()
	if got := s.Term(); got != 3 {
		t.Fatalf("term after reopen = %d, want 3", got)
	}
}

// TestAdoptTermSurvivesCheckpoint: checkpoint rotation discards the WAL
// (including OpNewTerm records), so the snapshot must carry the term.
func TestAdoptTermSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	must(t, s.AdoptTerm(7))
	must(t, s.CreateHierarchy("D"))
	must(t, s.Checkpoint())
	must(t, s.Close())

	s, err = Open(dir)
	must(t, err)
	defer s.Close()
	if got := s.Term(); got != 7 {
		t.Fatalf("term after checkpoint+reopen = %d, want 7", got)
	}
}

// TestFenceRejectsMutations: a fenced store refuses every mutation with
// ErrDeposed — before any staging or apply — while reads, WAL access, and
// the fencing metadata stay available.
func TestFenceRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	defer s.Close()
	must(t, s.CreateHierarchy("D"))
	must(t, s.AdoptTerm(2))

	// Terms at or below the store's own never fence: a primary is not
	// deposed by its past.
	if s.Fence(1) || s.Fence(2) {
		t.Fatal("fenced by a term at or below our own")
	}
	if got := s.FencedBy(); got != 0 {
		t.Fatalf("FencedBy after refused fences = %d, want 0", got)
	}

	if !s.Fence(5) {
		t.Fatal("higher term did not fence")
	}
	if got := s.FencedBy(); got != 5 {
		t.Fatalf("FencedBy = %d, want 5", got)
	}
	if err := s.CreateHierarchy("E"); !errors.Is(err, ErrDeposed) {
		t.Fatalf("mutation on fenced store = %v, want ErrDeposed", err)
	}
	if err := s.Assert("R", "x"); !errors.Is(err, ErrDeposed) {
		t.Fatalf("assert on fenced store = %v, want ErrDeposed", err)
	}
	setPolicy := []catalog.TxOp{{Kind: catalog.KindSetPolicy, Values: []string{"forbid"}}}
	if err := s.ApplyTx(setPolicy); !errors.Is(err, ErrDeposed) || s.Database().Policy() != catalog.AllowExceptions {
		t.Fatalf("set_policy on fenced store = %v (policy %v), want ErrDeposed", err, s.Database().Policy())
	}
	// The rejected mutation left no trace: the hierarchy list is unchanged
	// and the WAL position did not move.
	if hs := s.Database().Hierarchies(); len(hs) != 1 || hs[0] != "D" {
		t.Fatalf("fenced mutation leaked state: %v", hs)
	}
	// Reads and WAL access still work (quarantine needs them).
	if _, err := s.Database().Hierarchy("D"); err != nil {
		t.Fatalf("read on fenced store: %v", err)
	}
	epoch, off := s.Position()
	if _, err := s.ReadWAL(epoch, 0, int(off)); err != nil {
		t.Fatalf("ReadWAL on fenced store: %v", err)
	}
}

// TestCreateMaterializesStore: Create writes a snapshot from the spec and
// opens a live store carrying the spec's epoch, term, and takeover point;
// it refuses to overwrite an existing store.
func TestCreateMaterializesStore(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src)
	must(t, err)
	must(t, s.CreateHierarchy("D"))
	must(t, s.AddClass("D", "C"))
	spec := SnapshotDatabase(s.Database())
	want := Fingerprint(s.Database())
	must(t, s.Close())

	spec.LogEpoch = 4
	spec.PrimaryTerm = 9
	spec.TakeoverEpoch, spec.TakeoverOffset = 3, 1234

	dir := t.TempDir()
	created, err := Create(dir, spec, Options{})
	must(t, err)
	if got := Fingerprint(created.Database()); got != want {
		t.Fatalf("created store fingerprint diverged:\n got %s\nwant %s", got, want)
	}
	if got := created.LogEpoch(); got != 4 {
		t.Fatalf("created store epoch = %d, want 4", got)
	}
	if got := created.Term(); got != 9 {
		t.Fatalf("created store term = %d, want 9", got)
	}
	if e, o := created.Takeover(); e != 3 || o != 1234 {
		t.Fatalf("created store takeover = (%d, %d), want (3, 1234)", e, o)
	}
	must(t, created.Close())

	if _, err := Create(dir, spec, Options{}); err == nil {
		t.Fatal("Create overwrote an existing store")
	}

	// The materialized store reopens with its lineage intact.
	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	if got := s2.Term(); got != 9 {
		t.Fatalf("reopened created store term = %d, want 9", got)
	}
}

// TestQuarantineSuffix: the WAL bytes past the divergence point are copied
// verbatim to a sidecar, decodable as records; RemoveStoreFiles then clears
// the snapshot and WALs but preserves the sidecar.
func TestQuarantineSuffix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	must(t, s.CreateHierarchy("D"))
	must(t, s.AddClass("D", "C"))
	_, divergence := s.Position() // replicated prefix ends here

	// The divergent suffix: committed locally, never replicated.
	must(t, s.AddClass("D", "Lost1", "C"))
	must(t, s.AddClass("D", "Lost2", "C"))
	epoch, end := s.Position()

	if !s.Fence(3) {
		t.Fatal("fence refused")
	}
	path, n, err := s.QuarantineSuffix(epoch, divergence)
	must(t, err)
	if n != end-divergence {
		t.Fatalf("quarantined %d bytes, want %d", n, end-divergence)
	}
	if base := filepath.Base(path); !strings.HasPrefix(base, "quarantine-3-") {
		t.Fatalf("sidecar %q not named for the deposing term", base)
	}
	raw, err := os.ReadFile(path)
	must(t, err)
	var ops []string
	for _, c := range readChanges(t, Position{Epoch: epoch, Offset: divergence}, raw) {
		ops = append(ops, c.Ops[0].Values[0])
	}
	if len(ops) != 2 || ops[0] != "Lost1" || ops[1] != "Lost2" {
		t.Fatalf("quarantine decoded to %v, want the two lost classes", ops)
	}

	// An empty suffix writes no sidecar.
	if p2, n2, err := s.QuarantineSuffix(epoch, end); err != nil || p2 != "" || n2 != 0 {
		t.Fatalf("empty suffix quarantine = (%q, %d, %v), want no file", p2, n2, err)
	}

	must(t, s.Close())
	must(t, RemoveStoreFiles(dir))
	entries, err := os.ReadDir(dir)
	must(t, err)
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if len(left) != 1 || left[0] != filepath.Base(path) {
		t.Fatalf("RemoveStoreFiles left %v, want only the quarantine sidecar", left)
	}
	// The directory now accepts a fresh bootstrap.
	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	if len(s2.Database().Hierarchies()) != 0 {
		t.Fatal("stale state survived RemoveStoreFiles")
	}
}
