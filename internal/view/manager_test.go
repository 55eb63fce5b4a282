package view

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hrdb/internal/hql"
	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// openView builds a store, manager and HQL session wired together.
func openView(t *testing.T, opts Options) (*storage.Store, *Manager, *hql.Session) {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	m, err := Open(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return st, m, hql.NewSession(NewTarget(st, m))
}

func mustExec(t *testing.T, sess *hql.Session, script string) string {
	t.Helper()
	out, err := sess.Exec(script)
	if err != nil {
		t.Fatalf("exec %q: %v", script, err)
	}
	return out
}

func quiesce(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

const seedDDL = `
	CREATE HIERARCHY Animal;
	CLASS bird IN Animal;
	CLASS mammal IN Animal;
	INSTANCE tweety UNDER bird;
	INSTANCE rex UNDER mammal;
	CREATE RELATION flies (who: Animal);
	ASSERT flies (bird);
`

func TestViewLifecycle(t *testing.T) {
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")
	quiesce(t, m)

	rows, err := m.Rows("flat")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0] != "(tweety)" {
		t.Fatalf("initial rows = %q, want [(tweety)]", rows)
	}

	// The view reads as a relation through the session.
	if out := mustExec(t, sess, "SHOW VIEWS;"); !strings.Contains(out, "flat") {
		t.Errorf("SHOW VIEWS = %q, want it to name flat", out)
	}
	if out := mustExec(t, sess, "EXTENSION flat;"); !strings.Contains(out, "tweety") {
		t.Errorf("EXTENSION flat = %q, want tweety", out)
	}
	if out := mustExec(t, sess, "HOLDS flat (tweety);"); !strings.Contains(out, "true") {
		t.Errorf("HOLDS flat (tweety) = %q, want true", out)
	}

	// A plain tuple write folds in incrementally.
	mustExec(t, sess, "INSTANCE polly UNDER bird;") // hierarchy edit: recompute
	mustExec(t, sess, "ASSERT flies (rex);")        // tuple write: delta
	quiesce(t, m)
	rows, _ = m.Rows("flat")
	if want := []string{"(polly)", "(rex)", "(tweety)"}; strings.Join(rows, "|") != strings.Join(want, "|") {
		t.Fatalf("rows after writes = %q, want %q", rows, want)
	}
	deltas, recomputes, err := m.Stats("flat")
	if err != nil {
		t.Fatal(err)
	}
	if deltas == 0 {
		t.Errorf("deltas = 0, want the ASSERT folded incrementally")
	}
	if recomputes == 0 {
		t.Errorf("recomputes = 0, want the INSTANCE edit to force a recompute")
	}

	// Name collisions are rejected in both directions.
	if _, err := sess.Exec("CREATE RELATION flat (x: Animal);"); err == nil {
		t.Error("CREATE RELATION over a view name succeeded, want error")
	}
	if _, err := sess.Exec("CREATE MATERIALIZED VIEW flies AS EXTENSION flies;"); err == nil {
		t.Error("CREATE VIEW over a relation name succeeded, want error")
	}
	if _, err := sess.Exec("CREATE MATERIALIZED VIEW flat AS EXTENSION flies;"); err == nil {
		t.Error("duplicate CREATE VIEW succeeded, want error")
	}

	if out := mustExec(t, sess, "SHOW VIEW flat;"); !strings.Contains(out, "EXTENSION flies") {
		t.Errorf("SHOW VIEW flat = %q, want the defining query", out)
	}

	mustExec(t, sess, "DROP VIEW flat;")
	if _, err := m.Rows("flat"); err == nil {
		t.Error("view readable after DROP VIEW")
	}
	if out := mustExec(t, sess, "SHOW VIEWS;"); !strings.Contains(out, "no views") {
		t.Errorf("SHOW VIEWS after drop = %q, want none", out)
	}
}

func TestViewKinds(t *testing.T) {
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "ASSERT flies (rex);")
	mustExec(t, sess, "CREATE MATERIALIZED VIEW sel AS SELECT FROM flies WHERE who UNDER bird;")
	mustExec(t, sess, "CREATE MATERIALIZED VIEW tally AS COUNT flies BY (who);")
	quiesce(t, m)

	rows, err := m.Rows("sel")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !strings.Contains(rows[0], "(bird)") {
		t.Fatalf("sel rows = %q, want the bird tuple", rows)
	}
	if _, err := m.Snapshot("sel"); err != nil {
		t.Errorf("select view has no relation form: %v", err)
	}
	if _, err := m.Snapshot("tally"); err == nil {
		t.Error("count view returned a relation form, want error")
	}
	rows, _ = m.Rows("tally")
	if len(rows) != 2 {
		t.Fatalf("tally rows = %q, want two groups", rows)
	}

	// Both fold further writes.
	mustExec(t, sess, "RETRACT flies (rex);")
	quiesce(t, m)
	rows, _ = m.Rows("tally")
	if len(rows) != 1 {
		t.Fatalf("tally rows after retract = %q, want one group", rows)
	}
}

func TestViewSourceDropAndRevive(t *testing.T) {
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")
	mustExec(t, sess, "DROP RELATION flies;")
	quiesce(t, m)
	rows, err := m.Rows("flat")
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows after source drop = %q (%v), want empty", rows, err)
	}
	if status, _ := m.Status("flat"); !strings.Contains(status, "error") {
		t.Errorf("status = %q, want an error note", status)
	}
	mustExec(t, sess, "CREATE RELATION flies (who: Animal); ASSERT flies (tweety);")
	quiesce(t, m)
	rows, _ = m.Rows("flat")
	if len(rows) != 1 || rows[0] != "(tweety)" {
		t.Fatalf("rows after revive = %q, want [(tweety)]", rows)
	}
}

func TestViewPersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(st, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sess := hql.NewSession(NewTarget(st, m))
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")
	quiesce(t, m)
	want, _ := m.Rows("flat")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean shutdown: rows adopted without recompute.
	m2, err := Open(st, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Rows("flat")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("reloaded rows = %q, want %q", got, want)
	}
	if _, recomputes, _ := m2.Stats("flat"); recomputes != 0 {
		t.Errorf("clean reload recomputed %d times, want adoption", recomputes)
	}

	// The reloaded view still maintains.
	sess2 := hql.NewSession(NewTarget(st, m2))
	mustExec(t, sess2, "ASSERT flies (rex);")
	quiesce(t, m2)
	got, _ = m2.Rows("flat")
	if len(got) != 2 {
		t.Fatalf("rows after reload+assert = %q, want two", got)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Writes while no manager is running: stale snapshot, recompute on load.
	plain := hql.NewSession(st)
	mustExec(t, plain, "INSTANCE polly UNDER bird;")
	m3, err := Open(st, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	got, _ = m3.Rows("flat")
	if len(got) != 3 {
		t.Fatalf("rows after offline write = %q, want three", got)
	}
	if _, recomputes, _ := m3.Stats("flat"); recomputes == 0 {
		t.Error("stale snapshot adopted without recompute")
	}
	st.Close()
}

// feedCollector gathers a feed's changes and its end in the background.
type feedCollector struct {
	changes chan wire.Change
	errs    chan error
}

func collectFeed(t *testing.T, m *Manager, ctx context.Context, name string, epoch uint64, offset int64, resume bool) *feedCollector {
	t.Helper()
	fc := &feedCollector{changes: make(chan wire.Change, 64), errs: make(chan error, 1)}
	go func() {
		fc.errs <- m.ServeFeed(ctx, name, epoch, offset, resume, func(c wire.Change) error {
			// The change must survive its own payload codec.
			p, err := wire.ChangePayload(c)
			if err == nil {
				c, err = wire.ParseChange(p)
			}
			if err != nil {
				t.Errorf("feed change %+v: %v", c, err)
				return err
			}
			fc.changes <- c
			return nil
		})
	}()
	return fc
}

func (fc *feedCollector) next(t *testing.T, kind string) wire.Change {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case c := <-fc.changes:
			if c.Kind == wire.ChangeHeartbeat && kind != wire.ChangeHeartbeat {
				continue // heartbeats are interleaved freely
			}
			if c.Kind != kind {
				t.Fatalf("got %s change %+v, want %s", c.Kind, c, kind)
			}
			return c
		case err := <-fc.errs:
			t.Fatalf("feed ended (%v) while waiting for a %s", err, kind)
		case <-deadline:
			t.Fatalf("timed out waiting for a %s", kind)
		}
	}
}

// end waits for the feed to end and returns why.
func (fc *feedCollector) end(t *testing.T) error {
	t.Helper()
	select {
	case err := <-fc.errs:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("feed never ended")
		return nil
	}
}

func TestServeFeedSnapshotAndDeltas(t *testing.T) {
	_, m, sess := openView(t, Options{Heartbeat: 20 * time.Millisecond})
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")
	quiesce(t, m)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := collectFeed(t, m, ctx, "flat", 0, 0, false)

	snap := fc.next(t, wire.ChangeSnapshot)
	if len(snap.Rows) != 1 || snap.Rows[0] != "(tweety)" {
		t.Fatalf("SNAP rows = %q, want [(tweety)]", snap.Rows)
	}

	mustExec(t, sess, "ASSERT flies (rex);")
	d := fc.next(t, wire.ChangeDelta)
	if len(d.Added) != 1 || d.Added[0] != "(rex)" || len(d.Removed) != 0 {
		t.Fatalf("DELTA = %+v, want +(rex)", d)
	}

	// Resume from the delta's position: nothing to replay, heartbeats only.
	ctx2, cancel2 := context.WithCancel(context.Background())
	fc2 := collectFeed(t, m, ctx2, "flat", d.Epoch, d.Offset, true)
	hb := fc2.next(t, wire.ChangeHeartbeat)
	if hb.Epoch < d.Epoch {
		t.Fatalf("HB position %d/%d behind resume point %d/%d", hb.Epoch, hb.Offset, d.Epoch, d.Offset)
	}
	mustExec(t, sess, "RETRACT flies (rex);")
	d2 := fc2.next(t, wire.ChangeDelta)
	if len(d2.Removed) != 1 || d2.Removed[0] != "(rex)" {
		t.Fatalf("resumed DELTA = %+v, want -(rex)", d2)
	}
	cancel2()
	if err := fc2.end(t); err != nil {
		t.Fatalf("resumed feed: %v", err)
	}

	// The first feed sees the same retraction.
	d3 := fc.next(t, wire.ChangeDelta)
	if len(d3.Removed) != 1 || d3.Removed[0] != "(rex)" {
		t.Fatalf("first feed DELTA = %+v, want -(rex)", d3)
	}

	// Dropping the view ends the feed.
	mustExec(t, sess, "DROP VIEW flat;")
	if err := fc.end(t); !errors.Is(err, wire.ErrFeedDropped) {
		t.Fatalf("feed after drop ended %v, want ErrFeedDropped", err)
	}
}

func TestServeFeedErrors(t *testing.T) {
	_, m, sess := openView(t, Options{MaxJournalEntries: 2})
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")
	quiesce(t, m)

	ctx := context.Background()
	fc := collectFeed(t, m, ctx, "nosuch", 0, 0, false)
	if err := fc.end(t); !errors.Is(err, wire.ErrFeedNotFound) {
		t.Fatalf("feed of an unknown name ended %v, want ErrFeedNotFound", err)
	}

	// Capture a live position via a snapshot frame, overflow the journal
	// past it (each assert adds a distinct row, so each commits one
	// entry regardless of maintenance timing), then resume from it.
	mustExec(t, sess, `
		INSTANCE i1 UNDER mammal; INSTANCE i2 UNDER mammal;
		INSTANCE i3 UNDER mammal; INSTANCE i4 UNDER mammal;
	`)
	quiesce(t, m)
	cctx, cancel := context.WithCancel(ctx)
	fc = collectFeed(t, m, cctx, "flat", 0, 0, false)
	snap := fc.next(t, wire.ChangeSnapshot)
	cancel()
	fc.end(t)
	for _, who := range []string{"i1", "i2", "i3", "i4"} {
		mustExec(t, sess, "ASSERT flies ("+who+");")
	}
	quiesce(t, m)
	fc = collectFeed(t, m, ctx, "flat", snap.Epoch, snap.Offset, true)
	if err := fc.end(t); !errors.Is(err, wire.ErrFeedStale) {
		t.Fatalf("resume below the journal ended %v, want ErrFeedStale", err)
	}

	// Closing the manager ends a live feed.
	fc = collectFeed(t, m, ctx, "flat", 0, 0, false)
	fc.next(t, wire.ChangeSnapshot)
	m.Close()
	if err := fc.end(t); !errors.Is(err, wire.ErrFeedClosed) {
		t.Fatalf("feed across Close ended %v, want ErrFeedClosed", err)
	}
}

// TestRelationMirrorFeed covers SUBSCRIBE <relation>: a feed over a base
// relation's stored tuples, created lazily, maintained by the same loop.
func TestRelationMirrorFeed(t *testing.T) {
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL)
	quiesce(t, m)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := collectFeed(t, m, ctx, "flies", 0, 0, false)
	snap := fc.next(t, wire.ChangeSnapshot)
	if len(snap.Rows) != 1 || snap.Rows[0] != "+ (bird)" {
		t.Fatalf("mirror SNAP rows = %q, want [+ (bird)]", snap.Rows)
	}

	mustExec(t, sess, "DENY flies (rex);")
	d := fc.next(t, wire.ChangeDelta)
	if len(d.Added) != 1 || d.Added[0] != "- (rex)" {
		t.Fatalf("mirror DELTA = %+v, want +\"- (rex)\"", d)
	}
	// Flipping the sign inside a transaction replaces the row.
	mustExec(t, sess, "BEGIN; ASSERT flies (rex); COMMIT;")
	d = fc.next(t, wire.ChangeDelta)
	if len(d.Added) != 1 || d.Added[0] != "+ (rex)" || len(d.Removed) != 1 || d.Removed[0] != "- (rex)" {
		t.Fatalf("mirror DELTA = %+v, want sign flip", d)
	}
}

func TestViewMetrics(t *testing.T) {
	d0 := metricDeltas.Value()
	r0 := metricRecomputes.Value()
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")
	mustExec(t, sess, "ASSERT flies (rex);")
	mustExec(t, sess, "INSTANCE polly UNDER bird;")
	quiesce(t, m)
	if got := metricDeltas.Value(); got <= d0 {
		t.Errorf("hrdb_view_deltas_applied = %d, want > %d", got, d0)
	}
	if got := metricRecomputes.Value(); got <= r0 {
		t.Errorf("hrdb_view_recomputes = %d, want > %d", got, r0)
	}
	rows, _ := m.Rows("flat")
	if got := metricRows.Value(); got != int64(len(rows)) {
		t.Errorf("hrdb_view_rows = %d, want %d", got, len(rows))
	}
}

// TestSnapshotOncePerVersion: readers of one version of a view share one
// relation, a fold publishes a new one, and the one already handed out never
// changes under its reader.
func TestSnapshotOncePerVersion(t *testing.T) {
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL)
	quiesce(t, m)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")
	first, err := m.Snapshot("flat")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := m.Snapshot("flat"); again != first {
		t.Fatal("two reads of one version got two copies")
	}
	mustExec(t, sess, "ASSERT flies (rex);")
	quiesce(t, m)
	second, _ := m.Snapshot("flat")
	if second == first {
		t.Fatal("a fold did not publish a new relation")
	}
	if _, held := first.Lookup([]string{"rex"}); held || first.Len() != 1 {
		t.Fatalf("the published relation changed under its reader: %v", first.Tuples())
	}
	if _, held := second.Lookup([]string{"rex"}); !held {
		t.Fatalf("the new version lacks the folded row: %v", second.Tuples())
	}
}

// TestDeltaAtomsAndSkipped: hrdb_view_delta_atoms observes, per folded batch,
// the leaves under what was written — three under a class, one under an
// instance — and a write outside a select view's region is counted as
// skipped on SHOW VIEW, not as a delta or a recompute.
func TestDeltaAtomsAndSkipped(t *testing.T) {
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "INSTANCE a UNDER mammal; INSTANCE b UNDER mammal;")
	quiesce(t, m)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")
	mustExec(t, sess, "CREATE MATERIALIZED VIEW birds AS SELECT FROM flies WHERE who UNDER bird;")

	before := metricDeltaAtoms.Snapshot()
	mustExec(t, sess, "ASSERT flies (mammal);") // rex, a, b; outside birds
	mustExec(t, sess, "DENY flies (tweety);")   // one atom; one tuple of birds
	quiesce(t, m)
	after := metricDeltaAtoms.Snapshot()
	if n, sum := after.Count-before.Count, after.Sum-before.Sum; n != 3 || sum < 3+1+1 {
		t.Errorf("hrdb_view_delta_atoms moved by %d observations summing %d, want 3 summing at least 5", n, sum)
	}
	if status := mustExec(t, sess, "SHOW VIEW birds;"); !strings.Contains(status, "deltas=1 skipped=1 recomputes=0") {
		t.Errorf("SHOW VIEW birds = %q, want one delta, one skipped batch and no recompute", status)
	}
	if rows, _ := m.Rows("birds"); strings.Join(rows, ",") != "+ (bird),- (tweety)" {
		t.Errorf("birds rows = %q", rows)
	}
}

// TestWaitReachesLogEnd: Wait returns once maintenance has reached the
// store's end even when no change with ops lies there — a refused bracket
// that a replication snapshot made durable, and a checkpoint's rotation.
func TestWaitReachesLogEnd(t *testing.T) {
	st, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL)
	mustExec(t, sess, "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")
	quiesce(t, m)
	wait := func(what string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := m.Wait(ctx); err != nil {
			t.Fatalf("Wait after %s: %v", what, err)
		}
	}

	if _, err := sess.Exec("BEGIN; ASSERT flies (rex); ASSERT flies (nope); COMMIT;"); err == nil {
		t.Fatal("a bracket naming an unknown node committed")
	}
	if _, _, _, err := st.ReplicationSnapshot(); err != nil {
		t.Fatal(err)
	}
	wait("a refused bracket")

	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wait("a checkpoint")
	if rows, _ := m.Rows("flat"); strings.Join(rows, ",") != "(tweety)" {
		t.Fatalf("rows = %v, want only (tweety)", rows)
	}
}
