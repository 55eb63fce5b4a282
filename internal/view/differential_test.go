package view

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hrdb/internal/hql"
	"hrdb/internal/storage"
)

// TestDifferentialMaintenance is the property test behind the whole
// subsystem: under a randomized interleaving of tuple writes, transactions
// and hierarchy edits, every view's incrementally maintained contents must
// stay byte-identical to a from-scratch recomputation of its defining
// query. The oracle is eval itself — the same code that computes a view
// once at CREATE time — run against the live database after quiescing, so
// any divergence is the maintenance fold's fault.
func TestDifferentialMaintenance(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range withChaosSeeds(t, seeds) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferential(t, seed)
		})
	}
}

func runDifferential(t *testing.T, seed int64) {
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess := hql.NewSession(NewTarget(st, m))

	mustExec(t, sess, `
		CREATE HIERARCHY D;
		CLASS c0 IN D; CLASS c1 IN D; CLASS c2 UNDER c0 IN D; CLASS c3 UNDER c1 IN D;
		INSTANCE i0 UNDER c2; INSTANCE i1 UNDER c2; INSTANCE i2 UNDER c3;
		INSTANCE i3 UNDER c3; INSTANCE i4 UNDER c0; INSTANCE i5 UNDER c1;
		CREATE RELATION r1 (x: D);
		CREATE RELATION r2 (x: D, y: D);
	`)

	views := map[string]string{
		"flat1": "EXTENSION r1",
		"flat2": "EXTENSION r2",
		"sel1":  "SELECT FROM r1 WHERE x UNDER c0",
		"tally": "COUNT r2 BY (x)",
	}
	for name, query := range views {
		if err := m.Create(name, query); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	d := newDiffer(t, m, views, seed)

	rng := rand.New(rand.NewSource(seed))
	nodes := []string{"c0", "c1", "c2", "c3", "i0", "i1", "i2", "i3", "i4", "i5"}
	nextInst := 6
	pick := func() string { return nodes[rng.Intn(len(nodes))] }

	const steps = 200
	for step := 0; step < steps; step++ {
		switch k := rng.Intn(20); {
		case k < 8: // single tuple write on r1
			stmt := [...]string{"ASSERT", "DENY", "RETRACT"}[rng.Intn(3)]
			sess.Exec(fmt.Sprintf("%s r1 (%s);", stmt, pick()))
		case k < 14: // single tuple write on r2
			stmt := [...]string{"ASSERT", "DENY", "RETRACT"}[rng.Intn(3)]
			sess.Exec(fmt.Sprintf("%s r2 (%s, %s);", stmt, pick(), pick()))
		case k < 16: // transaction: replacement semantics, one WAL bracket
			sess.Exec(fmt.Sprintf("BEGIN; ASSERT r1 (%s); DENY r2 (%s, %s); COMMIT;",
				pick(), pick(), pick()))
		case k < 18: // hierarchy edit: new instance, or a new edge
			if rng.Intn(2) == 0 {
				name := fmt.Sprintf("i%d", nextInst)
				nextInst++
				if _, err := sess.Exec(fmt.Sprintf("INSTANCE %s UNDER %s IN D;", name, pick())); err == nil {
					nodes = append(nodes, name)
				}
			} else {
				sess.Exec(fmt.Sprintf("EDGE D: %s -> %s;", pick(), pick()))
			}
		case k < 19: // whole-relation rewrite
			sess.Exec([...]string{"CONSOLIDATE r1;", "EXPLICATE r1;"}[rng.Intn(2)])
		default: // preference edit
			sess.Exec(fmt.Sprintf("PREFER %s OVER %s IN D;", pick(), pick()))
		}
		// Most writes above may legitimately fail (contradictions,
		// duplicate edges, cyclic preferences): errors are ignored, the
		// WAL only carries what committed.

		d.check(step)
	}
}

// withChaosSeeds returns seeds followed by CHAOS_ROUNDS more (the nightly
// soak), numbered on from the largest.
func withChaosSeeds(t *testing.T, seeds []int64) []int64 {
	s := os.Getenv("CHAOS_ROUNDS")
	if s == "" {
		return seeds
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("bad CHAOS_ROUNDS %q", s)
	}
	next := slices.Max(seeds) + 1
	for i := 0; i < n; i++ {
		seeds = append(seeds, next+int64(i))
	}
	return seeds
}

// differ checks maintained views after every step of a random stream: each
// view against a from-scratch eval, rendered by the views' one renderer; a
// mirror of r1 against r1's stored tuples; and, for each of them, the
// journal entries since the last check, applied to the rows of that check,
// against the rows now.
type differ struct {
	t     *testing.T
	m     *Manager
	views map[string]string
	seed  int64
	prev  map[string]map[string]bool  // each feed's rows at the last check…
	at    map[string]storage.Position // …and the position they reflect
}

// newDiffer opens the r1 mirror, as SUBSCRIBE r1 would, and takes the
// first check.
func newDiffer(t *testing.T, m *Manager, views map[string]string, seed int64) *differ {
	t.Helper()
	m.mu.Lock()
	_, err := m.feedViewLocked("r1")
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	d := &differ{t: t, m: m, views: views, seed: seed, prev: map[string]map[string]bool{}, at: map[string]storage.Position{}}
	d.check(-1)
	return d
}

// check quiesces maintenance and diffs every view and the mirror against
// their oracles and journals.
func (d *differ) check(step int) {
	t, m, seed := d.t, d.m, d.seed
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := m.Wait(ctx); err != nil {
		t.Fatalf("seed %d step %d: wait: %v", seed, step, err)
	}
	for name, query := range d.views {
		got, err := m.Rows(name)
		if err != nil {
			t.Fatalf("seed %d step %d: rows %s: %v", seed, step, name, err)
		}
		def, err := compile(query)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := eval(ctx, m.store.Database(), name, def)
		if err != nil {
			// The defining query itself fails on the current state (for
			// example an ambiguity the random walk created): the view must
			// be parked empty with the error recorded.
			status, serr := m.Status(name)
			if serr != nil {
				t.Fatal(serr)
			}
			if len(got) != 0 || !strings.Contains(status, "error") {
				t.Fatalf("seed %d step %d: oracle %s fails (%v) but view holds %q, status %q",
					seed, step, name, err, got, status)
			}
			continue
		}
		want := (&view{def: def, rel: oracle.rel, counts: oracle.counts}).render()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			deltas, recomputes, _ := m.Stats(name)
			t.Fatalf("seed %d step %d: view %s diverged (deltas=%d recomputes=%d)\n got: %q\nwant: %q",
				seed, step, name, deltas, recomputes, got, want)
		}
	}

	src, err := m.store.Database().Relation("r1")
	if err != nil {
		t.Fatal(err)
	}
	stored := (&view{def: &def{kind: kindMirror}, rel: src}).render()
	m.mu.Lock()
	defer m.mu.Unlock()
	mirror := m.mirrors["r1"]
	if mirror == nil {
		t.Fatalf("seed %d step %d: the r1 mirror is gone", seed, step)
	}
	if got := mirror.render(); strings.Join(got, "\n") != strings.Join(stored, "\n") {
		t.Fatalf("seed %d step %d: r1 mirror diverged\n got: %q\nwant: %q", seed, step, got, stored)
	}

	feeds := map[string]*view{"r1 mirror": mirror}
	for name := range d.views {
		feeds[name] = m.views[name]
	}
	for name, v := range feeds {
		rows := v.render()
		if prev, ok := d.prev[name]; ok {
			if d.at[name].Before(v.floor) {
				t.Fatalf("seed %d step %d: %s journal trimmed past the last check", seed, step, name)
			}
			for _, e := range v.journal {
				if !d.at[name].Before(e.pos) {
					continue
				}
				for _, r := range e.removed {
					if !prev[r] {
						t.Fatalf("seed %d step %d: %s journal removes %q, which it does not hold", seed, step, name, r)
					}
					delete(prev, r)
				}
				for _, r := range e.added {
					if prev[r] {
						t.Fatalf("seed %d step %d: %s journal adds %q, which it holds", seed, step, name, r)
					}
					prev[r] = true
				}
			}
			replayed := make([]string, 0, len(prev))
			for r := range prev {
				replayed = append(replayed, r)
			}
			sort.Strings(replayed)
			if strings.Join(replayed, "\n") != strings.Join(rows, "\n") {
				t.Fatalf("seed %d step %d: %s journal replays to %q, rows are %q", seed, step, name, replayed, rows)
			}
		}
		d.prev[name] = map[string]bool{}
		for _, r := range rows {
			d.prev[name][r] = true
		}
		d.at[name] = v.pos
	}
}

// TestDifferentialFolds is the property test of the folds themselves. The
// stream is only what they handle — tuple writes on a fixed hierarchy, which
// has two-parent instances and, in half the runs each, preference edges and
// redundant is-a edges — so
// after SET MODE every batch is folded, and after every batch EXTENSION,
// SELECT … WHERE and COUNT BY views over the one source must equal a
// from-scratch eval row for row. Writes land on classes as well as
// instances; brackets flip stored signs in place and ship a conflict with
// its resolution in four ops; retractions expose the tuple the retracted one
// shadowed. Without preference edges no view may fall back to a recompute.
func TestDifferentialFolds(t *testing.T) {
	for _, mode := range []string{"off_path", "on_path", "none"} {
		for _, prefs := range []bool{false, true} {
			for _, seed := range withChaosSeeds(t, []int64{1, 2, 3}) {
				mode, prefs, seed := mode, prefs, seed
				t.Run(fmt.Sprintf("%s/prefs=%v/seed=%d", mode, prefs, seed), func(t *testing.T) {
					runFolds(t, mode, prefs, seed)
				})
			}
		}
	}
}

func runFolds(t *testing.T, mode string, prefs bool, seed int64) {
	_, m, sess := openView(t, Options{})
	// k0 and k1 are the two-parent instances: each sits under two leaf
	// classes of different subtrees, which is where class tuples conflict.
	mustExec(t, sess, `
		CREATE HIERARCHY D;
		CLASS a IN D; CLASS b IN D;
		CLASS a0 UNDER a IN D; CLASS a1 UNDER a IN D; CLASS b0 UNDER b IN D; CLASS b1 UNDER b IN D;
		INSTANCE x0 UNDER a0; INSTANCE x1 UNDER a0; INSTANCE x2 UNDER a1; INSTANCE x3 UNDER a;
		INSTANCE y0 UNDER b0; INSTANCE y1 UNDER b1; INSTANCE y2 UNDER b;
		INSTANCE k0 UNDER a0, b0 IN D; INSTANCE k1 UNDER a1, b1 IN D;
		CREATE HIERARCHY E;
		CLASS e IN E; INSTANCE p UNDER e; INSTANCE q UNDER e; INSTANCE r IN E;
		CREATE RELATION r1 (x: D);
		CREATE RELATION r2 (x: D, y: E);
	`)
	if prefs {
		mustExec(t, sess, "PREFER a0 OVER b0 IN D; PREFER b1 OVER a1 IN D;")
	}
	if seed%2 == 0 {
		// Redundant edges: evaluation leaves the minimal-tuple fast path and
		// the checker enumerates shared regions, composite items included.
		mustExec(t, sess, "EDGE D: a -> x0; EDGE D: b -> k1;")
	}
	mustExec(t, sess, fmt.Sprintf("SET MODE r1 %s; SET MODE r2 %s;", mode, mode))
	quiesce(t, m)
	views := map[string]string{
		"flat1":  "EXTENSION r1",
		"sel1":   "SELECT FROM r1 WHERE x UNDER a",
		"sel1lo": "SELECT FROM r1 WHERE x UNDER b0",
		"tally1": "COUNT r1",
		"flat2":  "EXTENSION r2",
		"sel2":   "SELECT FROM r2 WHERE x UNDER a0 AND y UNDER e",
		"tally2": "COUNT r2 BY (y)",
	}
	for name, query := range views {
		if err := m.Create(name, query); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	d := newDiffer(t, m, views, seed)
	recomputes := func() (n uint64) {
		for name := range views {
			_, rec, err := m.Stats(name)
			if err != nil {
				t.Fatal(err)
			}
			n += rec
		}
		return n
	}
	rec0 := recomputes()

	rng := rand.New(rand.NewSource(seed))
	xs := []string{"a", "b", "a0", "a1", "b0", "b1", "x0", "x1", "x2", "x3", "y0", "y1", "y2", "k0", "k1"}
	ys := []string{"e", "p", "q", "r"}
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	verb := func() string { return [...]string{"ASSERT", "DENY", "RETRACT"}[rng.Intn(3)] }
	pairs := [][3]string{{"a0", "b0", "k0"}, {"a1", "b1", "k1"}}
	for step := 0; step < 150; step++ {
		// Many of these are refused (contradictions, conflicts — most
		// class-level ones without preemption); the WAL carries what committed.
		switch k := rng.Intn(10); {
		case k < 4:
			sess.Exec(fmt.Sprintf("%s r1 (%s);", verb(), pick(xs)))
		case k < 7:
			sess.Exec(fmt.Sprintf("%s r2 (%s, %s);", verb(), pick(xs), pick(ys)))
		case k < 8: // a bracket re-signs whatever is stored on its items
			sess.Exec(fmt.Sprintf("BEGIN; %s r1 (%s); %s r2 (%s, %s); COMMIT;",
				verb(), pick(xs), verb(), pick(xs), pick(ys)))
		case k < 9: // a conflict at the shared instance with its resolution, and an r2 tuple
			c := pairs[rng.Intn(len(pairs))]
			sess.Exec(fmt.Sprintf("BEGIN; ASSERT r1 (%s); DENY r1 (%s); %s r1 (%s); ASSERT r2 (%s, %s); COMMIT;",
				c[rng.Intn(2)], c[1-rng.Intn(2)], verb(), c[2], c[2], pick(ys)))
		default: // take the bracket apart again
			c := pairs[rng.Intn(len(pairs))]
			sess.Exec(fmt.Sprintf("BEGIN; RETRACT r1 (%s); RETRACT r1 (%s); RETRACT r1 (%s); COMMIT;", c[0], c[1], c[2]))
		}
		d.check(step)
	}
	if rec := recomputes(); !prefs && rec != rec0 {
		for name := range views {
			status, _ := m.Status(name)
			t.Log(status)
		}
		t.Fatalf("seed %d: %d recomputes on a tuple-only stream without preference edges", seed, rec-rec0)
	}
}
