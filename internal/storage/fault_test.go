package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"hrdb/internal/catalog"
)

// Fault-injection tests: the FaultFS seam makes fsync errors, short writes,
// and missing directory fsyncs deterministic.

// TestLogFsyncErrorPoisons: a failed fsync poisons the log — later Append
// calls return an error instead of writing records whose durability would
// be unknowable, even though the "device" recovered.
func TestLogFsyncErrorPoisons(t *testing.T) {
	ffs := NewFaultFS(nil)
	l, err := OpenLogFS(ffs, filepath.Join(t.TempDir(), "wal.log"), NewReader(Position{}), func(Change) error { return nil })
	must(t, err)
	must(t, l.Append(Record{Op: "create_hierarchy", Target: "D"}))

	ffs.FailSyncAfter(0)
	if err := l.Append(Record{Op: "create_hierarchy", Target: "E"}); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append with failing fsync: got %v, want ErrLogFailed", err)
	}
	// The fault was one-shot; the log must stay poisoned regardless.
	if err := l.Append(Record{Op: "create_hierarchy", Target: "F"}); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after poison: got %v, want ErrLogFailed", err)
	}
	l.Close()
}

// TestLogShortWritePoisonsAndRecovers: a short write mid-frame poisons the
// log; reopening truncates the torn frame and the valid prefix survives,
// appendable.
func TestLogShortWritePoisonsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	ffs := NewFaultFS(nil)
	l, err := OpenLogFS(ffs, path, NewReader(Position{}), func(Change) error { return nil })
	must(t, err)
	must(t, l.Append(Record{Op: "create_hierarchy", Target: "D"}))
	must(t, l.Append(Record{Op: "assert", Target: "R", Args: []string{"a"}}))

	ffs.FailWriteAfter(0, 5) // tear the next frame after 5 bytes
	if err := l.Append(Record{Op: "assert", Target: "R", Args: []string{"b"}}); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("torn append: got %v, want ErrLogFailed", err)
	}
	if err := l.Append(Record{Op: "assert", Target: "R", Args: []string{"c"}}); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after torn write: got %v, want ErrLogFailed", err)
	}
	l.Close()

	// Reopen: the torn frame is truncated, both valid records replay, and
	// the log accepts appends again.
	l2, err := OpenLog(path)
	must(t, err)
	defer l2.Close()
	if n := logRecords(t, path); n != 2 {
		t.Fatalf("recovered %d records, want 2", n)
	}
	must(t, l2.Append(Record{Op: "assert", Target: "R", Args: []string{"d"}}))
	if n := logRecords(t, path); n != 3 {
		t.Fatalf("after re-append: %d records, want 3", n)
	}
}

// TestStoreFsyncFaultFailsStore: an fsync error during a mutation surfaces
// as ErrStoreFailed, the store refuses further mutations, and reopening
// recovers a consistent state containing at least every previously
// acknowledged operation.
func TestStoreFsyncFaultFailsStore(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := OpenOptions(dir, Options{FS: ffs})
	must(t, err)
	populateStore(t, s)

	ffs.FailSyncAfter(0)
	if err := s.Assert("Flies", "Tweety"); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("got %v, want ErrStoreFailed", err)
	}
	if err := s.CreateHierarchy("X"); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("mutation after failure: got %v", err)
	}
	if err := s.ApplyTx([]catalog.TxOp{{Kind: "assert", Relation: "Flies", Values: []string{"Tweety"}}}); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("tx after failure: got %v", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("checkpoint after failure: got %v", err)
	}

	// Reopen on a healthy FS: every acknowledged op is present. (The op
	// whose fsync errored has unknown durability — either outcome is a
	// consistent prefix — so it is not asserted either way.)
	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	got, err := s2.Database().Holds("Flies", "Patricia")
	must(t, err)
	if !got {
		t.Fatal("acknowledged prefix lost after fsync fault")
	}
}

// TestStoreShortWriteFaultRecovery: a write torn mid-frame by the fault
// program is discarded on reopen — the unacknowledged mutation is rolled
// back, the acknowledged prefix intact.
func TestStoreShortWriteFaultRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := OpenOptions(dir, Options{FS: ffs})
	must(t, err)
	populateStore(t, s)

	ffs.FailWriteAfter(0, 3)
	if err := s.Assert("Flies", "Tweety"); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("got %v, want ErrStoreFailed", err)
	}
	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	r, err := s2.Database().Relation("Flies")
	must(t, err)
	if _, ok := r.Lookup([]string{"Tweety"}); ok {
		t.Fatal("torn, unacknowledged record resurrected")
	}
	got, err := s2.Database().Holds("Flies", "Patricia")
	must(t, err)
	if !got {
		t.Fatal("acknowledged prefix lost after torn write")
	}
}

// TestCheckpointSyncsDirectory: checkpoint must fsync the store directory
// for both the snapshot rename and the new log creation, and a failing
// directory fsync fails the checkpoint.
func TestCheckpointSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s, err := OpenOptions(dir, Options{FS: ffs})
	must(t, err)
	populateStore(t, s)

	before := ffs.DirSyncs()
	must(t, s.Checkpoint())
	if got := ffs.DirSyncs() - before; got < 2 {
		t.Fatalf("checkpoint issued %d directory fsyncs, want >= 2 (snapshot rename + log creation)", got)
	}
	size, err := s.LogSize()
	must(t, err)
	if size != 0 {
		t.Fatalf("log size after checkpoint = %d", size)
	}

	must(t, s.Assert("Flies", "Tweety"))
	ffs.FailDirSync(true)
	if err := s.Checkpoint(); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("checkpoint with failing dir fsync: got %v, want ErrStoreFailed", err)
	}
	ffs.FailDirSync(false)

	// The poisoned store reopens to a consistent state with everything
	// acknowledged before the failed checkpoint.
	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	got, err := s2.Database().Holds("Flies", "Tweety")
	must(t, err)
	if !got {
		t.Fatal("acknowledged op lost across failed checkpoint")
	}
}

// TestCheckpointRotatesEpochs: each checkpoint moves to a fresh WAL file;
// post-checkpoint mutations land in it, recovery reads it, and the old
// file is removed.
func TestCheckpointRotatesEpochs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	populateStore(t, s)
	must(t, s.Checkpoint())
	must(t, s.Assert("Flies", "Tweety"))
	must(t, s.Checkpoint())
	must(t, s.AddInstance("Animal", "Paul", "GP"))
	must(t, s.Close())

	osfs := OsFS{}
	if _, err := osfs.Stat(filepath.Join(dir, walName(2))); err != nil {
		t.Fatalf("epoch-2 wal missing: %v", err)
	}
	for _, old := range []string{walName(0), walName(1)} {
		if _, err := osfs.Stat(filepath.Join(dir, old)); err == nil {
			t.Fatalf("stale wal %s not removed", old)
		}
	}

	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	h, err := s2.Database().Hierarchy("Animal")
	must(t, err)
	if !h.Has("Paul") {
		t.Fatal("post-checkpoint mutation lost")
	}
	got, err := s2.Database().Holds("Flies", "Tweety")
	must(t, err)
	if !got {
		t.Fatal("checkpointed state lost")
	}
}

// TestStoreConcurrentApplyTxGroupCommit: many concurrent committers, all
// transactions acknowledged, recovery sees every one, and group commit
// coalesces their fsyncs (fewer syncs than records).
func TestStoreConcurrentApplyTxGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	must(t, s.CreateHierarchy("D"))
	must(t, s.CreateRelation("R", catalog.AttrSpec{Name: "X", Domain: "D"}))
	const workers, txsPerWorker = 8, 20
	for w := 0; w < workers; w++ {
		for i := 0; i < txsPerWorker; i++ {
			must(t, s.AddInstance("D", fmt.Sprintf("w%d-i%d", w, i), "D"))
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txsPerWorker; i++ {
				name := fmt.Sprintf("w%d-i%d", w, i)
				if err := s.ApplyTx([]catalog.TxOp{
					{Kind: "assert", Relation: "R", Values: []string{name}},
				}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	records, syncs := s.LogStats()
	if syncs >= records {
		t.Fatalf("no coalescing: %d fsyncs for %d records", syncs, records)
	}
	live := fingerprint(s.Database())
	must(t, s.Close())

	s2, err := Open(dir)
	must(t, err)
	defer s2.Close()
	if got := fingerprint(s2.Database()); got != live {
		t.Fatal("recovered state diverges from live state after concurrent commits")
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < txsPerWorker; i++ {
			got, err := s2.Database().Holds("R", fmt.Sprintf("w%d-i%d", w, i))
			must(t, err)
			if !got {
				t.Fatalf("committed tx w%d-i%d lost", w, i)
			}
		}
	}
}
