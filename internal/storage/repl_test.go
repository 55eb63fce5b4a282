package storage

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hrdb/internal/catalog"
)

// Tests for the replication position API: Position, EpochEnd, ReadWAL,
// WaitChange, ReplicationSnapshot. The streaming layer on top lives in
// internal/repl.

// TestPositionAdvancesWithCommits: the durable position starts at the
// epoch's durable size and advances monotonically with every acknowledged
// mutation; a checkpoint moves it to (epoch+1, 0).
func TestPositionAdvancesWithCommits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	defer s.Close()

	epoch, off := s.Position()
	if epoch != 0 || off != 0 {
		t.Fatalf("fresh store position = (%d, %d), want (0, 0)", epoch, off)
	}
	must(t, s.CreateHierarchy("D"))
	_, off1 := s.Position()
	if off1 <= 0 {
		t.Fatalf("position did not advance after a commit: %d", off1)
	}
	must(t, s.AddClass("D", "C"))
	_, off2 := s.Position()
	if off2 <= off1 {
		t.Fatalf("position did not advance: %d then %d", off1, off2)
	}

	must(t, s.Checkpoint())
	epoch, off = s.Position()
	if epoch != 1 || off != 0 {
		t.Fatalf("post-checkpoint position = (%d, %d), want (1, 0)", epoch, off)
	}
	// The retired epoch's end is recorded and equals its final size.
	end, ok := s.EpochEnd(0)
	if !ok || end != off2 {
		t.Fatalf("EpochEnd(0) = (%d, %v), want (%d, true)", end, ok, off2)
	}
	if _, ok := s.EpochEnd(1); ok {
		t.Fatal("current epoch reported an end")
	}
}

// TestReadWALReturnsDurableBytes: ReadWAL serves exactly the durable bytes
// of the current epoch, honors the max bound, and reports caught-up as an
// empty read.
func TestReadWALReturnsDurableBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	defer s.Close()
	populateStore(t, s)

	_, size := s.Position()
	want, err := os.ReadFile(filepath.Join(dir, walFile))
	must(t, err)
	if int64(len(want)) != size {
		t.Fatalf("durable size %d != wal file size %d", size, len(want))
	}

	got, err := s.ReadWAL(0, 0, int(size))
	must(t, err)
	if string(got) != string(want) {
		t.Fatal("ReadWAL bytes differ from the wal file")
	}
	// Bounded read from an interior (mid-frame) offset.
	part, err := s.ReadWAL(0, 3, 10)
	must(t, err)
	if string(part) != string(want[3:13]) {
		t.Fatal("bounded ReadWAL bytes differ")
	}
	// Caught up: empty, no error.
	empty, err := s.ReadWAL(0, size, 1024)
	must(t, err)
	if len(empty) != 0 {
		t.Fatalf("caught-up read returned %d bytes", len(empty))
	}
	// Beyond the end: an error, not silence.
	if _, err := s.ReadWAL(0, size+1, 1); err == nil {
		t.Fatal("read beyond the durable end accepted")
	}
}

// TestReadWALRetiredEpoch: after a checkpoint the superseded epoch's file
// is gone, so reads of it fail with ErrWALUnavailable — the signal that a
// follower must re-bootstrap from a snapshot. An epoch retired before this
// process is equally unavailable.
func TestReadWALRetiredEpoch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	defer s.Close()
	populateStore(t, s)
	_, end := s.Position()
	must(t, s.Checkpoint())

	if _, err := s.ReadWAL(0, 0, int(end)); !errors.Is(err, ErrWALUnavailable) {
		t.Fatalf("read of removed epoch: got %v, want ErrWALUnavailable", err)
	}
	// But the recorded end still lets a caught-up follower rotate forward.
	if got, ok := s.EpochEnd(0); !ok || got != end {
		t.Fatalf("EpochEnd(0) = (%d, %v), want (%d, true)", got, ok, end)
	}
	if _, err := s.ReadWAL(7, 0, 10); !errors.Is(err, ErrWALUnavailable) {
		t.Fatalf("read of unknown epoch: got %v, want ErrWALUnavailable", err)
	}
}

// TestWaitChangeWakesOnCommit: WaitChange blocks while the position is
// unchanged, wakes when a commit advances it, and reports a closed store.
func TestWaitChangeWakesOnCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	epoch, off := s.Position()

	// Already-past positions return immediately.
	must(t, s.CreateHierarchy("D"))
	if err := s.WaitChange(context.Background(), epoch, off); err != nil {
		t.Fatalf("WaitChange on a stale position: %v", err)
	}

	// Blocks until the next commit.
	epoch, off = s.Position()
	done := make(chan error, 1)
	go func() { done <- s.WaitChange(context.Background(), epoch, off) }()
	select {
	case err := <-done:
		t.Fatalf("WaitChange returned before any commit: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	must(t, s.AddClass("D", "C"))
	select {
	case err := <-done:
		must(t, err)
	case <-time.After(2 * time.Second):
		t.Fatal("WaitChange missed the commit")
	}

	// Context cancellation unblocks.
	epoch, off = s.Position()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.WaitChange(ctx, epoch, off); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitChange under a dead context: got %v", err)
	}

	// Close wakes waiters with ErrStoreClosed.
	go func() { done <- s.WaitChange(context.Background(), epoch, off) }()
	time.Sleep(10 * time.Millisecond)
	must(t, s.Close())
	select {
	case err := <-done:
		if !errors.Is(err, ErrStoreClosed) {
			t.Fatalf("WaitChange on close: got %v, want ErrStoreClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitChange missed the close")
	}
}

// TestReplicationSnapshotConsistent: the snapshot's spec plus the WAL tail
// from its position reconstructs the primary's state exactly — the
// bootstrap invariant the follower relies on.
func TestReplicationSnapshotConsistent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	defer s.Close()
	populateStore(t, s)

	spec, epoch, off, err := s.ReplicationSnapshot()
	must(t, err)
	if epoch != 0 {
		t.Fatalf("snapshot epoch = %d, want 0", epoch)
	}
	curEpoch, curOff := s.Position()
	if curEpoch != epoch || curOff != off {
		t.Fatalf("snapshot position (%d, %d) != durable position (%d, %d)", epoch, off, curEpoch, curOff)
	}

	// Mutate further, then replay the tail beyond the snapshot position
	// onto the bootstrapped spec: states must converge.
	must(t, s.Assert("Flies", "GP"))
	must(t, s.ApplyTx([]catalog.TxOp{
		{Kind: "assert", Relation: "Flies", Values: []string{"Tweety"}},
		{Kind: "retract", Relation: "Flies", Values: []string{"AFP"}},
	}))

	db, err := BuildDatabase(spec)
	must(t, err)
	_, size := s.Position()
	tail, err := s.ReadWAL(epoch, off, int(size-off))
	must(t, err)
	for _, c := range readChanges(t, Position{Epoch: epoch, Offset: off}, tail) {
		must(t, c.Apply(db))
	}
	if got, want := fingerprint(db), fingerprint(s.Database()); got != want {
		t.Fatalf("bootstrap + tail replay diverges from primary\n got: %s\nwant: %s", got, want)
	}
}
