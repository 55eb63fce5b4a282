package view

import (
	"errors"
	"strings"
	"testing"
)

// TestDeltaAtomCapFallsBack: a committed batch whose changed item has more
// leaves under it than MaxDeltaAtoms abandons the incremental fold and
// recomputes, and the fallback is visible in the view's recompute counter.
func TestDeltaAtomCapFallsBack(t *testing.T) {
	_, m, sess := openView(t, Options{MaxDeltaAtoms: 2})
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "INSTANCE a UNDER mammal; INSTANCE b UNDER mammal;")
	// The tail passes the seed before the view exists, so none of it
	// replays into the fresh view as a delta.
	quiesce(t, m)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")

	stats := func() (deltas, recomputes uint64) {
		t.Helper()
		quiesce(t, m)
		deltas, recomputes, err := m.Stats("flat")
		if err != nil {
			t.Fatal(err)
		}
		return deltas, recomputes
	}
	deltas0, rec0 := stats()

	// One atom: inside the cap.
	mustExec(t, sess, "DENY flies (tweety);")
	if deltas, rec := stats(); deltas != deltas0+1 || rec != rec0 {
		t.Fatalf("an in-cap write: deltas %d -> %d, recomputes %d -> %d; want one delta", deltas0, deltas, rec0, rec)
	}
	// mammal's own leaf product is rex, a and b: three atoms, over the cap.
	mustExec(t, sess, "ASSERT flies (mammal);")
	if deltas, rec := stats(); deltas != deltas0+1 || rec != rec0+1 {
		t.Fatalf("an over-cap write: deltas %d -> %d, recomputes %d -> %d; want one recompute and no delta", deltas0+1, deltas, rec0, rec)
	}
	rows, err := m.Rows("flat")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rows, ","); got != "(a),(b),(rex)" {
		t.Fatalf("rows after fallback = %q", got)
	}
}

// TestCreateRejections pins every way a view definition can be refused:
// bad names, unparseable or multi-statement or mutating queries, name
// collisions with views and relations, and defining queries whose first
// evaluation fails.
func TestCreateRejections(t *testing.T) {
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")

	for _, tc := range []struct{ name, query, wantErr string }{
		{"", "EXTENSION flies", "invalid view name"},
		{"bad name", "EXTENSION flies", "invalid view name"},
		{"v", "NOT A QUERY", "defining query"},
		{"v", "EXTENSION flies; EXTENSION flies", "single statement"},
		{"v", "ASSERT flies (bird)", "cannot define"},
		{"flat", "EXTENSION flies", "already exists"},
		{"flies", "EXTENSION flies", `relation "flies" already exists`},
		{"v", "EXTENSION nosuch", "nosuch"},
	} {
		err := m.Create(tc.name, tc.query)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("Create(%q, %q) = %v, want error containing %q", tc.name, tc.query, err, tc.wantErr)
		}
	}

	if err := m.Drop("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Drop(nosuch) = %v, want ErrNotFound", err)
	}
	if _, err := m.Rows("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Rows(nosuch) = %v, want ErrNotFound", err)
	}
	if _, err := m.Snapshot("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Snapshot(nosuch) = %v, want ErrNotFound", err)
	}
	if _, _, err := m.Stats("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stats(nosuch) = %v, want ErrNotFound", err)
	}
	if _, err := m.Status("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Status(nosuch) = %v, want ErrNotFound", err)
	}

	// Count views have no relation form to snapshot.
	mustExec(t, sess, "CREATE MATERIALIZED VIEW tally AS COUNT flies;")
	quiesce(t, m)
	if _, err := m.Snapshot("tally"); err == nil {
		t.Fatal("Snapshot of a count view succeeded")
	}

	// A closed manager refuses definitions and further closes are no-ops.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if err := m.Create("late", "EXTENSION flies"); err == nil {
		t.Fatal("Create after Close succeeded")
	}
}
