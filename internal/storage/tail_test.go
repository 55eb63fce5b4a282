package storage

import (
	"context"
	"errors"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

func tailStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func nextBatch(t *testing.T, tl *Tailer) ([]catalog.TxOp, uint64, int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := tl.Next(ctx)
	if err != nil {
		t.Fatalf("Tailer.Next: %v", err)
	}
	return c.Ops, c.Pos.Epoch, c.Pos.Offset
}

func seedRelation(t *testing.T, s *Store) {
	t.Helper()
	if err := s.CreateHierarchy("d"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddInstance("d", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddInstance("d", "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateRelation("r", catalog.AttrSpec{Name: "x", Domain: "d"}); err != nil {
		t.Fatal(err)
	}
}

// TestTailerSingleRecords checks that out-of-bracket mutations arrive one
// batch per record, with positions that resume exactly.
func TestTailerSingleRecords(t *testing.T) {
	s := tailStore(t)
	tl := NewTailer(s)
	seedRelation(t, s)

	var ops []string
	var positions [][2]int64
	for i := 0; i < 4; i++ {
		recs, epoch, off := nextBatch(t, tl)
		if len(recs) != 1 {
			t.Fatalf("batch %d: %d records, want 1", i, len(recs))
		}
		ops = append(ops, recs[0].Kind)
		positions = append(positions, [2]int64{int64(epoch), off})
	}
	want := []string{"create_hierarchy", "add_instance", "add_instance", "create_relation"}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}

	// Resuming from an intermediate boundary replays exactly the suffix.
	tl2 := TailFrom(s, Position{Epoch: uint64(positions[1][0]), Offset: positions[1][1]})
	recs, _, _ := nextBatch(t, tl2)
	if recs[0].Kind != "add_instance" || recs[0].Relation != "d" || recs[0].Values[0] != "b" {
		t.Fatalf("resumed batch = %+v, want AddInstance b", recs[0])
	}
}

// TestTailerBrackets checks committed brackets fold into one batch with the
// markers stripped, and aborted brackets leave only their position.
func TestTailerBrackets(t *testing.T) {
	s := tailStore(t)
	seedRelation(t, s)
	tl := NewTailer(s)

	ops := []catalog.TxOp{
		{Kind: "assert", Relation: "r", Values: []string{"a"}},
		{Kind: "assert", Relation: "r", Values: []string{"b"}},
	}
	if err := s.ApplyTx(ops); err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	recs, _, off := nextBatch(t, tl)
	if len(recs) != 2 {
		t.Fatalf("bracket batch = %+v, want 2 records", recs)
	}
	for _, r := range recs {
		if r.Kind != "assert" {
			t.Fatalf("bracket record %+v, want assert", r)
		}
	}

	// A failing bracket (touches a missing relation) is aborted in the WAL
	// (durable with the next write's sync): none of its ops surface from the
	// tail, only its end position.
	if err := s.ApplyTx([]catalog.TxOp{
		{Kind: "deny", Relation: "r", Values: []string{"a"}},
		{Kind: "assert", Relation: "nope", Values: []string{"a"}},
	}); err == nil {
		t.Fatal("ApplyTx on missing relation succeeded, want error")
	}
	if err := s.Retract("r", "b"); err != nil {
		t.Fatalf("Retract: %v", err)
	}
	recs, _, offAbort := nextBatch(t, tl)
	if len(recs) != 0 || offAbort <= off {
		t.Fatalf("aborted bracket = %+v at %d, want no ops past %d", recs, offAbort, off)
	}
	recs, _, off2 := nextBatch(t, tl)
	if len(recs) != 1 || recs[0].Kind != "retract" || recs[0].Relation != "r" {
		t.Fatalf("post-abort batch = %+v, want single retract", recs)
	}
	if off2 <= offAbort {
		t.Fatalf("position did not advance: %d -> %d", offAbort, off2)
	}
}

// TestTailerRotation checks a tail survives a checkpoint boundary when the
// old epoch's file is still readable, or reports ErrWALUnavailable once the
// file is gone — never silently skips.
func TestTailerRotation(t *testing.T) {
	s := tailStore(t)
	seedRelation(t, s)
	tl := NewTailer(s)
	if err := s.Assert("r", "a"); err != nil {
		t.Fatal(err)
	}
	recs, epoch0, _ := nextBatch(t, tl)
	if recs[0].Kind != "assert" {
		t.Fatalf("got %+v", recs)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// The new epoch's start arrives as a change of its own, before any write.
	if recs, epoch1, off1 := nextBatch(t, tl); len(recs) != 0 || epoch1 != epoch0+1 || off1 != 0 {
		t.Fatalf("rotation = %+v at %d/%d, want no ops at %d/0", recs, epoch1, off1, epoch0+1)
	}
	if err := s.Assert("r", "b"); err != nil {
		t.Fatal(err)
	}
	recs, epoch1, _ := nextBatch(t, tl)
	if len(recs) != 1 || recs[0].Kind != "assert" || recs[0].Values[0] != "b" {
		t.Fatalf("post-rotation batch = %+v", recs)
	}
	if epoch1 != epoch0+1 {
		t.Fatalf("epoch after rotation = %d, want %d", epoch1, epoch0+1)
	}
}

// TestTailerRetiredEpoch checks that tailing from an epoch this process no
// longer serves reports ErrWALUnavailable rather than data loss.
func TestTailerRetiredEpoch(t *testing.T) {
	s := tailStore(t)
	seedRelation(t, s)
	epoch, off := s.Position()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tl := TailFrom(s, Position{Epoch: epoch, Offset: off})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := tl.Next(ctx); !errors.Is(err, ErrWALUnavailable) && err != nil {
		// Either the epoch file survived (rotation keeps it) and Next
		// blocks until timeout, or the read fails with ErrWALUnavailable.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Next = %v, want ErrWALUnavailable or timeout", err)
		}
	}
}

// TestTailerCancel checks Next honors context cancellation while waiting.
func TestTailerCancel(t *testing.T) {
	s := tailStore(t)
	tl := NewTailer(s)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := tl.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next = %v, want deadline exceeded", err)
	}
}

// TestTailerStoreClose checks Next unblocks with ErrStoreClosed on shutdown.
func TestTailerStoreClose(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(s)
	done := make(chan error, 1)
	go func() {
		_, err := tl.Next(context.Background())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStoreClosed) {
			t.Fatalf("Next = %v, want ErrStoreClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not unblock on store close")
	}
}

var _ = core.Item{} // keep core import if helpers change
