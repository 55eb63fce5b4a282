package storage

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/hierarchy"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// buildAnimals builds the Figure 1 hierarchy with a redundant edge and a
// preference, to exercise full round-tripping.
func buildAnimals(t *testing.T) *hierarchy.Hierarchy {
	t.Helper()
	h := hierarchy.New("Animal")
	must(t, h.AddClass("Bird"))
	must(t, h.AddClass("Canary", "Bird"))
	must(t, h.AddInstance("Tweety", "Canary"))
	must(t, h.AddClass("Penguin", "Bird"))
	must(t, h.AddClass("GalapagosPenguin", "Penguin"))
	must(t, h.AddClass("AmazingFlyingPenguin", "Penguin"))
	must(t, h.AddInstance("Patricia", "GalapagosPenguin", "AmazingFlyingPenguin"))
	must(t, h.AddInstance("Pamela", "AmazingFlyingPenguin"))
	must(t, h.AddEdge("Penguin", "Pamela")) // deliberately redundant
	must(t, h.Prefer("AmazingFlyingPenguin", "GalapagosPenguin"))
	return h
}

// TestHierarchySpecRoundTrip: structure, instances, redundant edges and
// preferences all survive.
func TestHierarchySpecRoundTrip(t *testing.T) {
	h := buildAnimals(t)
	spec := SnapshotHierarchy(h)
	h2, err := BuildHierarchy(spec)
	must(t, err)

	if !reflect.DeepEqual(h.Nodes(), h2.Nodes()) {
		t.Fatalf("nodes: %v vs %v", h.Nodes(), h2.Nodes())
	}
	for _, n := range h.Nodes() {
		if !reflect.DeepEqual(h.Parents(n), h2.Parents(n)) {
			t.Errorf("parents(%s): %v vs %v", n, h.Parents(n), h2.Parents(n))
		}
		if h.IsInstance(n) != h2.IsInstance(n) {
			t.Errorf("instance(%s) differs", n)
		}
	}
	if !reflect.DeepEqual(h.Preferences(), h2.Preferences()) {
		t.Fatalf("preferences: %v vs %v", h.Preferences(), h2.Preferences())
	}
	if !reflect.DeepEqual(h.RedundantEdges(), h2.RedundantEdges()) {
		t.Fatalf("redundant edges: %v vs %v", h.RedundantEdges(), h2.RedundantEdges())
	}
}

// buildDB builds a database with a relation over the animals hierarchy.
func buildDB(t *testing.T) *catalog.Database {
	t.Helper()
	db := catalog.New()
	must(t, db.AttachHierarchy(buildAnimals(t)))
	_, err := db.CreateRelation("Flies", catalog.AttrSpec{Name: "Creature", Domain: "Animal"})
	must(t, err)
	must(t, db.Assert("Flies", "Bird"))
	tx := db.Begin()
	tx.Deny("Flies", "Penguin").Assert("Flies", "AmazingFlyingPenguin").Assert("Flies", "Pamela")
	must(t, tx.Commit())
	return db
}

// TestDatabaseSpecRoundTrip: tuples and modes survive.
func TestDatabaseSpecRoundTrip(t *testing.T) {
	db := buildDB(t)
	spec := SnapshotDatabase(db)
	db2, err := BuildDatabase(spec)
	must(t, err)
	r1, _ := db.Snapshot("Flies")
	r2, _ := db2.Snapshot("Flies")
	if !reflect.DeepEqual(r1.Tuples(), r2.Tuples()) {
		t.Fatalf("tuples: %v vs %v", r1.Tuples(), r2.Tuples())
	}
	got, err := db2.Holds("Flies", "Tweety")
	must(t, err)
	if !got {
		t.Fatal("rebuilt database lost semantics")
	}
}

// TestSnapshotFileRoundTrip: write, read, verify.
func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.hrdb")
	db := buildDB(t)
	must(t, WriteSnapshot(path, SnapshotDatabase(db)))
	spec, err := ReadSnapshot(path)
	must(t, err)
	db2, err := BuildDatabase(spec)
	must(t, err)
	got, err := db2.Holds("Flies", "Pamela")
	must(t, err)
	if !got {
		t.Fatal("Pamela lost")
	}
}

// TestSnapshotCorruptionDetected: bit flips and truncation are caught.
func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.hrdb")
	must(t, WriteSnapshot(path, SnapshotDatabase(buildDB(t))))

	data, err := os.ReadFile(path)
	must(t, err)

	// Flip a payload bit.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xFF
	must(t, os.WriteFile(path, bad, 0o644))
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: got %v", err)
	}

	// Truncate.
	must(t, os.WriteFile(path, data[:len(data)-5], 0o644))
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation: got %v", err)
	}

	// Bad magic.
	bad2 := append([]byte(nil), data...)
	bad2[0] = 'X'
	must(t, os.WriteFile(path, bad2, 0o644))
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("magic: got %v", err)
	}

	// Bad version.
	bad3 := append([]byte(nil), data...)
	bad3[4] = 99
	must(t, os.WriteFile(path, bad3, 0o644))
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("version: got %v", err)
	}
}

// populateStore drives a store through the full DDL/DML surface.
func populateStore(t *testing.T, s *Store) {
	t.Helper()
	must(t, s.CreateHierarchy("Animal"))
	must(t, s.AddClass("Animal", "Bird"))
	must(t, s.AddClass("Animal", "Penguin", "Bird"))
	must(t, s.AddClass("Animal", "AFP", "Penguin"))
	must(t, s.AddClass("Animal", "GP", "Penguin"))
	must(t, s.AddInstance("Animal", "Tweety", "Bird"))
	must(t, s.AddInstance("Animal", "Patricia", "AFP", "GP"))
	must(t, s.Prefer("Animal", "AFP", "GP"))
	must(t, s.CreateRelation("Flies", catalog.AttrSpec{Name: "Creature", Domain: "Animal"}))
	must(t, s.Assert("Flies", "Bird"))
	must(t, s.Deny("Flies", "Penguin"))
	must(t, s.Assert("Flies", "AFP"))
}

// TestStoreRecoveryFromLog: reopening replays the WAL.
func TestStoreRecoveryFromLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	must(t, s.Close())

	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	got, err := s2.Database().Holds("Flies", "Patricia")
	must(t, err)
	if !got {
		t.Fatal("recovered database lost Patricia")
	}
	got, err = s2.Database().Holds("Flies", "Tweety")
	must(t, err)
	if !got {
		t.Fatal("recovered database lost Tweety")
	}
}

// TestStoreCheckpointAndRecovery: checkpoint resets the WAL; recovery uses
// the snapshot plus post-checkpoint log records.
func TestStoreCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	must(t, s.Checkpoint())
	size, err := s.LogSize()
	must(t, err)
	if size != 0 {
		t.Fatalf("log size after checkpoint = %d", size)
	}
	// Post-checkpoint mutation.
	must(t, s.AddInstance("Animal", "Paul", "GP"))
	must(t, s.Assert("Flies", "Tweety"))
	must(t, s.Consolidate("Flies")) // removes the redundant Tweety tuple
	must(t, s.Close())

	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	db := s2.Database()
	got, err := db.Holds("Flies", "Paul")
	must(t, err)
	if got {
		t.Fatal("Paul should not fly")
	}
	r, err := db.Relation("Flies")
	must(t, err)
	if _, ok := r.Lookup(core.Item{"Tweety"}); ok {
		t.Fatal("consolidate was not replayed")
	}
}

// TestStoreTornTailTruncated: a torn final record is discarded, earlier
// records survive.
func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	must(t, s.Close())

	// Append garbage (simulating a crash mid-append).
	walPath := filepath.Join(dir, walFile)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	must(t, err)
	_, err = f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad})
	must(t, err)
	must(t, f.Close())

	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	got, err := s2.Database().Holds("Flies", "Patricia")
	must(t, err)
	if !got {
		t.Fatal("valid prefix lost after torn tail")
	}
	// The store remains writable after truncation.
	must(t, s2.AddInstance("Animal", "Pamela", "AFP"))
}

// TestStoreExplicateAndDropLogged: the remaining ops round-trip too.
func TestStoreExplicateAndDropLogged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	must(t, s.Explicate("Flies"))
	must(t, s.CreateRelation("Tmp", catalog.AttrSpec{Name: "X", Domain: "Animal"}))
	must(t, s.DropRelation("Tmp"))
	must(t, s.Retract("Flies", "Tweety"))
	must(t, s.Close())

	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	db := s2.Database()
	if got := db.Relations(); !reflect.DeepEqual(got, []string{"Flies"}) {
		t.Fatalf("relations = %v", got)
	}
	got, err := db.Holds("Flies", "Tweety")
	must(t, err)
	if got {
		t.Fatal("retract not replayed")
	}
}

// TestLogRejectsFailedOps: a mutation that fails in memory is not logged,
// so recovery never replays it.
func TestLogRejectsFailedOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	// Contradictory update (Bird already positive): rejected and NOT logged.
	if err := s.Deny("Flies", "Bird"); !errors.Is(err, core.ErrContradiction) {
		t.Fatalf("contradictory deny: got %v", err)
	}
	sizeBefore, err := s.LogSize()
	must(t, err)
	must(t, s.Close())
	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	sizeAfter, err := s2.LogSize()
	must(t, err)
	if sizeAfter != sizeBefore {
		t.Fatalf("log changed: %d vs %d", sizeAfter, sizeBefore)
	}
	got, err := s2.Database().Holds("Flies", "Tweety")
	must(t, err)
	if !got {
		t.Fatal("recovery broken")
	}
}

// TestAddEdgeLogged: extra is-a edges round-trip through the WAL.
func TestAddEdgeLogged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	must(t, s.AddInstance("Animal", "Pamela", "AFP"))
	must(t, s.AddEdge("Animal", "Penguin", "Pamela"))
	must(t, s.Close())
	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	h, err := s2.Database().Hierarchy("Animal")
	must(t, err)
	if h.Irredundant() {
		t.Fatal("redundant edge lost in recovery")
	}
}

// TestOpensStoreWrittenBeforeTxOpBatches: testdata/pr12_store was written by
// the commit before every mutation became a TxOp batch (f264896): a
// checkpoint, then every op kind of that writer, a committed bracket, a
// one-statement bracket that flips a stored sign, and a rejected bracket
// closed by tx_abort. fingerprint.txt is that writer's Fingerprint of the
// state it acknowledged.
func TestOpensStoreWrittenBeforeTxOpBatches(t *testing.T) {
	dir := t.TempDir()
	copyDirFiles(t, filepath.Join("testdata", "pr12_store"), dir)
	want, err := os.ReadFile(filepath.Join(dir, "fingerprint.txt"))
	must(t, err)
	s, err := Open(dir)
	must(t, err)
	defer s.Close()
	if got := fingerprint(s.Database()); got != string(want) {
		t.Fatalf("recovered a different state\n got: %s\nwant: %s", got, want)
	}
}
