package view

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
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

	// Name collisions are rejected in both directions; an `… AS` result
	// creates its relation, so it cannot take a view's name either.
	for _, stmt := range []string{
		"CREATE RELATION flat (x: Animal);",
		"SELECT FROM flies WHERE who UNDER mammal AS flat;",
	} {
		if _, err := sess.Exec(stmt); err == nil {
			t.Errorf("%s over a view name succeeded, want error", stmt)
		}
	}
	if out := mustExec(t, sess, "EXTENSION flat;"); !strings.Contains(out, "3 atomic items") {
		t.Errorf("EXTENSION flat after the refusals = %q, want the view's 3 rows", out)
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
	if err := readView(m, "sel"); err != nil {
		t.Errorf("select view has no relation form: %v", err)
	}
	if err := readView(m, "tally"); err == nil {
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

// TestViewsJSONWithRowsLoads: a views.json in the older format, which
// stored each view's rendered rows beside its relation form, still loads at
// the store's position. Its rows are ignored: the extension view is adopted
// from its items without a recompute, the count view, whose counters were
// never saved, recomputes once, and both read as a fresh evaluation.
func TestViewsJSONWithRowsLoads(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustExec(t, hql.NewSession(st), seedDDL)
	epoch, off := st.Position()
	old := fmt.Sprintf(`[
  {
    "name": "flat",
    "query": "EXTENSION flies",
    "epoch": %[1]d,
    "offset": %[2]d,
    "rows": [
      "(tweety)"
    ],
    "items": [
      [
        "tweety"
      ]
    ],
    "signs": [
      true
    ]
  },
  {
    "name": "tally",
    "query": "COUNT flies",
    "epoch": %[1]d,
    "offset": %[2]d,
    "rows": [
      "count = 1"
    ]
  }
]
`, epoch, off)
	if err := os.WriteFile(filepath.Join(dir, "views.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(st, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, c := range []struct {
		name, query string
		recomputes  uint64
	}{{"flat", "EXTENSION flies", 0}, {"tally", "COUNT flies", 1}} {
		if _, rec, err := m.Stats(c.name); err != nil || rec != c.recomputes {
			t.Errorf("%s: recomputes = %d (%v), want %d", c.name, rec, err, c.recomputes)
		}
		got, err := m.Rows(c.name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := compile(c.query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eval(context.Background(), st.Database(), c.name, d)
		if err != nil {
			t.Fatal(err)
		}
		want := (&view{def: d, rel: res.rel, counts: res.counts}).render()
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s rows = %q, want %q", c.name, got, want)
		}
	}
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

// TestMirrorDeltaIsNet: a bracket that flips a stored tuple's sign and back
// leaves it as it was, so the mirror's delta names only what the bracket
// changed in the end, and no row is both added and removed.
func TestMirrorDeltaIsNet(t *testing.T) {
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL+"ASSERT flies (rex);")
	quiesce(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := collectFeed(t, m, ctx, "flies", 0, 0, false)
	fc.next(t, wire.ChangeSnapshot)

	mustExec(t, sess, "BEGIN; DENY flies (rex); ASSERT flies (rex); DENY flies (tweety); COMMIT;")
	if d := fc.next(t, wire.ChangeDelta); strings.Join(d.Added, ",") != "- (tweety)" || len(d.Removed) != 0 {
		t.Fatalf("mirror DELTA added %q removed %q, want only +\"- (tweety)\"", d.Added, d.Removed)
	}
}

// TestDroppedRelationEndsItsMirror: dropping a subscribed relation ends its
// feed as dropped and unregisters the mirror, so a later SUBSCRIBE of the name
// answers not-found, as for a name never subscribed, and no batch is folded
// into a mirror of nothing.
func TestDroppedRelationEndsItsMirror(t *testing.T) {
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL)
	quiesce(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := collectFeed(t, m, ctx, "flies", 0, 0, false)
	fc.next(t, wire.ChangeSnapshot)

	mustExec(t, sess, "DROP RELATION flies;")
	if err := fc.end(t); !errors.Is(err, wire.ErrFeedDropped) {
		t.Fatalf("feed of a dropped relation ended %v, want ErrFeedDropped", err)
	}
	quiesce(t, m)
	fc = collectFeed(t, m, ctx, "flies", 0, 0, false)
	if err := fc.end(t); !errors.Is(err, wire.ErrFeedNotFound) {
		t.Fatalf("SUBSCRIBE of a dropped relation ended %v, want ErrFeedNotFound", err)
	}
	m.mu.Lock()
	mirrors := len(m.mirrors)
	m.mu.Unlock()
	if mirrors != 0 {
		t.Fatalf("%d mirrors registered after the drop, want none", mirrors)
	}
}

// TestMirrorEndsWithItsLastFeed: a relation mirror lives while a feed
// serves it. Once the only feed is canceled, writes fold into no mirror and
// the journal stops growing; a resume from the old feed's position is stale,
// and a new SUBSCRIBE opens with a snapshot of the stored tuples.
func TestMirrorEndsWithItsLastFeed(t *testing.T) {
	_, m, sess := openView(t, Options{Heartbeat: 20 * time.Millisecond})
	mustExec(t, sess, seedDDL)
	quiesce(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	fc := collectFeed(t, m, ctx, "flies", 0, 0, false)
	snap := fc.next(t, wire.ChangeSnapshot)
	m.mu.Lock()
	mirror := m.mirrors["flies"]
	m.mu.Unlock()
	cancel()
	if err := fc.end(t); err != nil {
		t.Fatalf("canceled feed ended %v, want nil", err)
	}

	for i := 0; i < 5; i++ {
		mustExec(t, sess, "ASSERT flies (rex); RETRACT flies (rex);")
	}
	quiesce(t, m)
	m.mu.Lock()
	mirrors, deltas, journal := len(m.mirrors), mirror.deltas, len(mirror.journal)
	m.mu.Unlock()
	if mirrors != 0 || deltas != 0 || journal != 0 {
		t.Fatalf("after the last feed ended: %d mirrors, %d batches folded, %d journal entries; want none",
			mirrors, deltas, journal)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	fc = collectFeed(t, m, ctx, "flies", snap.Epoch, snap.Offset, true)
	if err := fc.end(t); !errors.Is(err, wire.ErrFeedStale) {
		t.Fatalf("resume past a released mirror ended %v, want ErrFeedStale", err)
	}
	mustExec(t, sess, "DENY flies (rex);")
	fc = collectFeed(t, m, ctx, "flies", 0, 0, false)
	if snap := fc.next(t, wire.ChangeSnapshot); strings.Join(snap.Rows, ",") != "+ (bird),- (rex)" {
		t.Fatalf("re-SUBSCRIBE SNAP rows = %q, want the stored tuples [+ (bird) - (rex)]", snap.Rows)
	}
}

// TestNewMirrorRefusesResume: a mirror is made from the store's live state,
// which the tail may not have reached. A resume from the position a
// caught-up client held, taken while a write waits for the tail, must
// answer stale: the new mirror holds the write, so it would never send its
// delta. The client's snapshot then shows it.
func TestNewMirrorRefusesResume(t *testing.T) {
	st, m, sess := openView(t, Options{Heartbeat: 20 * time.Millisecond})
	mustExec(t, sess, seedDDL)
	quiesce(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := collectFeed(t, m, ctx, "flies", 0, 0, false)
	snap := fc.next(t, wire.ChangeSnapshot)
	cancel()
	if err := fc.end(t); err != nil {
		t.Fatalf("canceled feed ended %v, want nil", err)
	}

	m.cancel() // stop the tail: the store runs ahead of the manager from here
	<-m.done
	if _, err := hql.NewSession(st).Exec("DENY flies (rex);"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	fc = collectFeed(t, m, ctx, "flies", snap.Epoch, snap.Offset, true)
	if err := fc.end(t); !errors.Is(err, wire.ErrFeedStale) {
		t.Fatalf("resume on a new mirror ended %v, want ErrFeedStale", err)
	}
	fc = collectFeed(t, m, ctx, "flies", 0, 0, false)
	if snap := fc.next(t, wire.ChangeSnapshot); strings.Join(snap.Rows, ",") != "+ (bird),- (rex)" {
		t.Fatalf("re-SUBSCRIBE SNAP rows = %q, want the stored tuples [+ (bird) - (rex)]", snap.Rows)
	}
}

// TestFailedFoldKeepsFeedsExact: the tail lags the store, so a batch it
// folds can name a node that a later batch dropped. The mirror's fold then
// fails after patching part of the relation, and the view recomputes; the
// recompute's delta must start from the rows the feeds hold, not from the
// half-folded answer, so each feed still replays to the current rows.
func TestFailedFoldKeepsFeedsExact(t *testing.T) {
	st, m, sess := openView(t, Options{Heartbeat: 20 * time.Millisecond})
	mustExec(t, sess, seedDDL+"INSTANCE x UNDER bird; CREATE MATERIALIZED VIEW flat AS EXTENSION flies;")
	quiesce(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feeds := map[string]*feedCollector{}
	rows := map[string]map[string]bool{}
	for _, name := range []string{"flies", "flat"} {
		feeds[name] = collectFeed(t, m, ctx, name, 0, 0, false)
		rows[name] = map[string]bool{}
		for _, r := range feeds[name].next(t, wire.ChangeSnapshot).Rows {
			rows[name][r] = true
		}
	}

	// Hold maintenance still while the store runs ahead of it.
	m.mu.Lock()
	_, err := hql.NewSession(st).Exec("BEGIN; DENY flies (tweety); ASSERT flies (x); COMMIT; " +
		"RETRACT flies (x); DROP NODE x IN Animal;")
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, m)

	src, err := st.Database().Relation("flies")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := m.Rows("flat")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"flies": (&view{def: &def{kind: kindMirror}, rel: src}).render(),
		"flat":  flat,
	}
	epoch, off := st.Position()
	end := storage.Position{Epoch: epoch, Offset: off}
	for name, fc := range feeds {
		deadline := time.After(10 * time.Second)
		for at := (storage.Position{}); at.Before(end); {
			select {
			case c := <-fc.changes:
				for _, r := range c.Removed {
					delete(rows[name], r)
				}
				for _, r := range c.Added {
					rows[name][r] = true
				}
				at = storage.Position{Epoch: c.Epoch, Offset: c.Offset}
			case err := <-fc.errs:
				t.Fatalf("%s feed ended: %v", name, err)
			case <-deadline:
				t.Fatalf("%s feed never reached the store's position", name)
			}
		}
		var got []string
		for r := range rows[name] {
			got = append(got, r)
		}
		sort.Strings(got)
		if strings.Join(got, "|") != strings.Join(want[name], "|") {
			t.Errorf("%s feed replays to %q, rows are %q", name, got, want[name])
		}
	}
}

// TestViewAndFeedOverDerivedRelation: an `… AS` result is a logged
// relation, so a view over it folds the writes to it and a feed of it
// delivers them.
func TestViewAndFeedOverDerivedRelation(t *testing.T) {
	_, m, sess := openView(t, Options{})
	mustExec(t, sess, seedDDL+"SELECT FROM flies WHERE who UNDER bird AS B;")
	mustExec(t, sess, "CREATE MATERIALIZED VIEW VB AS EXTENSION B;")
	quiesce(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := collectFeed(t, m, ctx, "B", 0, 0, false)
	if snap := fc.next(t, wire.ChangeSnapshot); strings.Join(snap.Rows, " ") != "+ (bird)" {
		t.Fatalf("B SNAP rows = %q, want [+ (bird)]", snap.Rows)
	}

	mustExec(t, sess, "ASSERT B (rex);")
	quiesce(t, m)
	rows, err := m.Rows("VB")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rows, " "); got != "(rex) (tweety)" {
		t.Errorf("VB rows = %q, want (rex) (tweety)", got)
	}
	if d := fc.next(t, wire.ChangeDelta); strings.Join(d.Added, " ") != "+ (rex)" || len(d.Removed) != 0 {
		t.Fatalf("B DELTA = %+v, want +\"+ (rex)\"", d)
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

// readView reports whether a view reads as a relation.
func readView(m *Manager, name string) error {
	return m.Read(name, func(*core.Relation) error { return nil })
}

// TestViewReadsUnderConcurrentFolds: 4 sessions read an extension and a
// select view in place — HOLDS and a SELECT over each — while a writer
// toggles one row of their source. The folds patch the relations the
// readers evaluate, so every answer must be the one of the view before a
// toggle or after it, never a half-folded one; the race detector checks
// that no read overlaps a fold.
func TestViewReadsUnderConcurrentFolds(t *testing.T) {
	_, m, setup := openView(t, Options{})
	mustExec(t, setup, `
		CREATE HIERARCHY A;
		CLASS c IN A; CLASS d IN A;
		INSTANCE x1 UNDER c; INSTANCE x2 UNDER c; INSTANCE x3 UNDER c;
		INSTANCE y UNDER d;
		CREATE RELATION R (K: A);
		ASSERT R (c); ASSERT R (y); DENY R (x1);
		CREATE MATERIALIZED VIEW v AS EXTENSION R;
		CREATE MATERIALIZED VIEW w AS SELECT FROM R WHERE K UNDER c;
	`)
	queries := []string{
		"HOLDS v (x2);",
		"SELECT FROM v WHERE K UNDER c;",
		"HOLDS w (x2);",
		"SELECT FROM w WHERE K UNDER c;",
	}
	toggles := []string{"DENY R (x2);", "RETRACT R (x2);"}
	// answers[q][s] is query q's answer once the views have folded toggles[s].
	answers := make([][2]string, len(queries))
	for s, toggle := range toggles {
		mustExec(t, setup, toggle)
		quiesce(t, m)
		for i, q := range queries {
			answers[i][s] = mustExec(t, setup, q)
		}
	}
	for i, q := range queries {
		if answers[i][0] == answers[i][1] {
			t.Fatalf("the toggle does not change %s: %q", q, answers[i][0])
		}
	}

	// The writer toggles 40 times; the readers read until it is done.
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for n := 0; n < 40; n++ {
			if _, err := setup.Exec(toggles[n%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			sess := hql.NewSession(NewTarget(m.store, m))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (g + n) % len(queries)
				got, err := sess.Exec(queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != answers[i][0] && got != answers[i][1] {
					t.Errorf("%s answered %q, want %q or %q", queries[i], got, answers[i][0], answers[i][1])
					return
				}
			}
		}()
	}
	readers.Wait()
}

// TestWarmViewHoldsAllocsIndependentOfSize: a HOLDS on a view whose verdict
// is cached allocates the same over 100 rows as over 4,000 — a view is read
// where it lives, not copied per read.
func TestWarmViewHoldsAllocsIndependentOfSize(t *testing.T) {
	var allocs []float64
	for _, n := range []int{100, 4000} {
		st, m, sess := openView(t, Options{})
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(st.CreateHierarchy("D"))
		must(st.AddClass("D", "C"))
		for i := 0; i < n; i++ {
			must(st.AddInstance("D", fmt.Sprintf("i%04d", i), "C"))
		}
		must(st.CreateRelation("R", catalog.AttrSpec{Name: "X", Domain: "D"}))
		must(st.Assert("R", "C"))
		must(m.Create("v", "EXTENSION R"))
		quiesce(t, m)
		if rows, _ := m.Rows("v"); len(rows) != n {
			t.Fatalf("v has %d rows, want %d", len(rows), n)
		}
		if out := mustExec(t, sess, "HOLDS v (i0001);"); !strings.Contains(out, "true") {
			t.Fatalf("HOLDS v (i0001) = %q, want true", out)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			if _, err := sess.Exec("HOLDS v (i0001);"); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] > allocs[1]+allocSlack || allocs[1] > allocs[0]+allocSlack {
		t.Errorf("a warm HOLDS on a view allocates %v at 100 rows and %v at 4,000, want the same", allocs[0], allocs[1])
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

// TestDeltaCostIndependentOfSize: one assert and one retract of an instance
// no class tuple covers fold into an EXTENSION, a SELECT and a COUNT view by
// re-evaluating the same items whether the source's extension is 1,000 rows
// or 10,000, and recompute nothing: a fold costs the changed region, not the
// relation (docs/THEORY.md §4, view corollary).
func TestDeltaCostIndependentOfSize(t *testing.T) {
	type cost struct{ observations, atoms uint64 } // hrdb_view_delta_atoms
	queries := []string{"EXTENSION R", "SELECT FROM R", "COUNT R"}
	costs := map[string][]cost{}
	for _, fanout := range []int{100, 1000} {
		st, m, _ := openView(t, Options{})
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(st.CreateHierarchy("D"))
		must(st.AddClass("D", "Z"))
		must(st.AddInstance("D", "z0", "Z"))
		for c := 0; c < 10; c++ {
			must(st.AddClass("D", fmt.Sprintf("C%d", c)))
			for i := 0; i < fanout; i++ {
				must(st.AddInstance("D", fmt.Sprintf("c%d_i%04d", c, i), fmt.Sprintf("C%d", c)))
			}
		}
		must(st.CreateRelation("R", catalog.AttrSpec{Name: "X", Domain: "D"}))
		for c := 0; c < 10; c++ {
			must(st.Assert("R", fmt.Sprintf("C%d", c)))
		}
		for _, q := range queries {
			quiesce(t, m)
			must(m.Create("v", q))
			before := metricDeltaAtoms.Snapshot()
			must(st.Assert("R", "z0"))
			quiesce(t, m)
			must(st.Retract("R", "z0"))
			quiesce(t, m)
			after := metricDeltaAtoms.Snapshot()
			costs[q] = append(costs[q], cost{after.Count - before.Count, after.Sum - before.Sum})
			deltas, recomputes, err := m.Stats("v")
			must(err)
			if deltas != 2 || recomputes != 0 {
				t.Errorf("%s over %d rows: deltas=%d recomputes=%d, want 2 and 0", q, 10*fanout, deltas, recomputes)
			}
			must(m.Drop("v"))
		}
	}
	for _, q := range queries {
		if small, large := costs[q][0], costs[q][1]; small.observations != 2 || small != large {
			t.Errorf("%s: the two folds re-evaluated %+v at 1,000 rows and %+v at 10,000, want 2 observations and the same atoms",
				q, small, large)
		}
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
