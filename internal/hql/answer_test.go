package hql

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"hrdb/internal/algebra"
	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/obs"
)

// answerTrials is the number of write sequences of the answer-table
// property test: CHAOS_ROUNDS when set (the nightly soak), 40 by default,
// 8 under -short.
func answerTrials(t *testing.T) int {
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_ROUNDS %q", s)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return 40
}

// answerStats reads the answer table's counters of the named relation.
func answerStats(t *testing.T, db *catalog.Database, name string) (hits, misses uint64, kept int) {
	t.Helper()
	if err := db.Read(name, func(r *core.Relation) error {
		h, m, k := r.CacheStats()
		hits, misses, kept = h[core.Answers], m[core.Answers], k[core.Answers]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return hits, misses, kept
}

// TestPropertyAnswersMatchCacheOff: two databases run the same random
// write sequences — tuple writes, brackets, EDGE, PREFER, INSTANCE, DROP
// NODE and SET MODE — and the second has its relation's cache off, so it
// derives every answer afresh. After each step, SELECT under every node of
// every domain, COUNT by every ordered choice of attributes and EXTENSION
// answer byte for byte alike on both, read twice on the first so the second
// read is served from its answer table; and a step that moved the first
// relation's epoch left its table empty.
func TestPropertyAnswersMatchCacheOff(t *testing.T) {
	rng := rand.New(rand.NewSource(4040))
	for trial, n := 0, answerTrials(t); trial < n; trial++ {
		on, off := catalog.New(), catalog.New()
		a, b := NewSession(MemTarget{DB: on}), NewSession(MemTarget{DB: off})
		var log []string
		at := func() string { return fmt.Sprintf("trial %d\nsteps:\n%s", trial, strings.Join(log, "\n")) }
		both := func(q string) {
			t.Helper()
			log = append(log, q)
			got, gotErr := a.Exec(q)
			want, wantErr := b.Exec(q)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s\n%s: %q (%v), cache off %q (%v)", at(), q, got, gotErr, want, wantErr)
			}
		}
		domains := []string{"D"}
		if rng.Intn(2) == 0 {
			domains = append(domains, "E")
		}
		var attrs []string
		for _, d := range domains {
			both("CREATE HIERARCHY " + d + ";")
			nodes := []string{d}
			for i := 0; i < 2+rng.Intn(6); i++ {
				var parents []string
				for k := 1 + rng.Intn(2); k > 0; k-- {
					if p := nodes[rng.Intn(len(nodes))]; !strings.Contains(strings.Join(parents, ","), p) {
						parents = append(parents, p)
					}
				}
				name := fmt.Sprintf("%s%d", d, i)
				both(fmt.Sprintf("CLASS %s UNDER %s IN %s;", name, strings.Join(parents, ", "), d))
				nodes = append(nodes, name)
			}
			attrs = append(attrs, d+": "+d)
		}
		both("CREATE RELATION R (" + strings.Join(attrs, ", ") + ");")
		if err := off.Read("R", func(r *core.Relation) error { r.SetCache(false); return nil }); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 16; step++ {
			r, err := on.Relation("R")
			if err != nil {
				t.Fatal(err)
			}
			epoch := r.Epoch()
			both(answerStep(t, rng, on, domains))
			if a.InTx() {
				both("ROLLBACK;")
			}
			if _, _, kept := answerStats(t, on, "R"); r.Epoch() != epoch && kept != 0 {
				t.Fatalf("%s\nthe write moved the epoch but %d answers are kept", at(), kept)
			}
			checkAnswers(t, a, b, on, domains, at)
		}
	}
}

// answerStep returns one random write to R or to a domain of it.
func answerStep(t *testing.T, rng *rand.Rand, db *catalog.Database, domains []string) string {
	nodesOf := func(d string) []string {
		h, err := db.Hierarchy(d)
		if err != nil {
			t.Fatal(err)
		}
		return h.Nodes()
	}
	d := domains[rng.Intn(len(domains))]
	nodes := nodesOf(d)
	pick := func() string { return nodes[rng.Intn(len(nodes))] }
	item := func() string {
		vs := make([]string, len(domains))
		for i, d := range domains {
			ns := nodesOf(d)
			vs[i] = ns[rng.Intn(len(ns))]
		}
		return "R (" + strings.Join(vs, ", ") + ");"
	}
	write := func() string { return []string{"ASSERT ", "DENY "}[rng.Intn(2)] + item() }
	switch op := rng.Intn(12); {
	case op < 4:
		return write()
	case op == 4:
		r, err := db.Relation("R")
		if err != nil {
			t.Fatal(err)
		}
		if ts := r.Tuples(); len(ts) > 0 {
			return "RETRACT R (" + strings.Join(ts[rng.Intn(len(ts))].Item, ", ") + ");"
		}
		return "RETRACT " + item()
	case op == 5:
		return "BEGIN; " + write() + " " + write() + " COMMIT;"
	case op == 6:
		return fmt.Sprintf("EDGE %s: %s -> %s;", d, pick(), pick())
	case op == 7:
		return fmt.Sprintf("PREFER %s OVER %s IN %s;", pick(), pick(), d)
	case op == 8:
		return fmt.Sprintf("INSTANCE i%d UNDER %s IN %s;", rng.Intn(1000), pick(), d)
	case op == 9:
		return fmt.Sprintf("DROP NODE %s IN %s;", pick(), d)
	default:
		return "SET MODE R " + []string{"off_path", "on_path", "none"}[rng.Intn(3)] + ";"
	}
}

// checkAnswers compares every whole-relation read of R, twice on a, once on
// b, whose relation keeps no answers.
func checkAnswers(t *testing.T, a, b *Session, db *catalog.Database, domains []string, at func() string) {
	t.Helper()
	var qs []string
	for _, d := range domains {
		h, err := db.Hierarchy(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range h.Nodes() {
			qs = append(qs, fmt.Sprintf("SELECT FROM R WHERE %s UNDER %s;", d, n))
		}
	}
	qs = append(qs, "COUNT R;", "EXTENSION R;")
	for _, by := range [][]string{{"D"}, {"E"}, {"D", "E"}, {"E", "D"}} {
		if len(by) <= len(domains) && (len(domains) == 2 || by[0] == "D") {
			qs = append(qs, "COUNT R BY ("+strings.Join(by, ", ")+");")
		}
	}
	for _, q := range qs {
		want, wantErr := b.Exec(q)
		for pass := 0; pass < 2; pass++ {
			if got, err := a.Exec(q); got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s\npass %d: %s\n%s(%v)\ncache off:\n%s(%v)", at(), pass, q, got, err, want, wantErr)
			}
		}
	}
}

// answerDB returns a session over a relation R whose selections under c
// and under d differ.
func answerDB(t *testing.T) (*catalog.Database, *Session) {
	t.Helper()
	db := catalog.New()
	sess := NewSession(MemTarget{DB: db})
	if _, err := sess.Exec(`
		CREATE HIERARCHY A;
		CLASS c IN A; CLASS d IN A;
		INSTANCE x1 UNDER c; INSTANCE x2 UNDER c; INSTANCE y UNDER d;
		CREATE RELATION R (K: A);
		ASSERT R (c); DENY R (x1); ASSERT R (y);
	`); err != nil {
		t.Fatal(err)
	}
	return db, sess
}

// TestAnswerTableServesRepeatsAndRederivesAfterWrites: a repeated SELECT,
// COUNT or EXTENSION is served from the table; two WHERE lists with one
// region share an answer; the first SELECT after a write derives afresh.
func TestAnswerTableServesRepeatsAndRederivesAfterWrites(t *testing.T) {
	db, sess := answerDB(t)
	exec := func(q string) string {
		t.Helper()
		out, err := sess.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, q := range []string{"SELECT FROM R WHERE K UNDER c;", "COUNT R BY (K);", "EXTENSION R;"} {
		h0, m0, _ := answerStats(t, db, "R")
		first, second := exec(q), exec(q)
		if h, m, _ := answerStats(t, db, "R"); first != second || h != h0+1 || m != m0+1 {
			t.Fatalf("%s twice: %d hits, %d misses (want 1, 1); answers equal: %v", q, h-h0, m-m0, first == second)
		}
	}
	h0, _, kept := answerStats(t, db, "R")
	under := exec("SELECT FROM R WHERE K UNDER c AND K UNDER A;")
	if h, _, k := answerStats(t, db, "R"); h != h0+1 || k != kept {
		t.Fatalf("a WHERE list with the same region: %d hits, %d answers kept (was %d)", h-h0, k, kept)
	}
	exec("DENY R (x2);")
	_, m0, _ := answerStats(t, db, "R")
	after := exec("SELECT FROM R WHERE K UNDER c;")
	if _, m, _ := answerStats(t, db, "R"); m != m0+1 || after == under || !strings.Contains(after, "x2") {
		t.Fatalf("the SELECT after a write: %d misses (want 1)\nbefore:\n%s\nafter:\n%s", m-m0, under, after)
	}
}

// TestAnswerTableBypasses: `SELECT … AS`, a WithForceScan reference run, a
// relation with its cache off and a canceled statement neither read nor
// fill the answer table, and each still answers.
func TestAnswerTableBypasses(t *testing.T) {
	db, sess := answerDB(t)
	const q = "SELECT FROM R WHERE K UNDER c;"
	want, err := sess.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cacheOff := func() {
		if err := db.Read("R", func(r *core.Relation) error { r.SetCache(false); return nil }); err != nil {
			t.Fatal(err)
		}
		if _, _, kept := answerStats(t, db, "R"); kept != 0 {
			t.Fatalf("SetCache(false) left %d answers", kept)
		}
	}
	for _, c := range []struct {
		name string
		run  func() (string, error)
	}{
		{"SELECT … AS", func() (string, error) { return sess.Exec("SELECT FROM R WHERE K UNDER c AS S;") }},
		{"WithForceScan", func() (string, error) {
			return sess.ExecContext(algebra.WithForceScan(context.Background()), q)
		}},
		{"canceled", func() (string, error) { return sess.ExecContext(canceled, q) }},
		{"cache off", func() (string, error) { return sess.Exec(q) }},
	} {
		if c.name == "cache off" {
			cacheOff()
		}
		h0, m0, k0 := answerStats(t, db, "R")
		out, err := c.run()
		if h, m, k := answerStats(t, db, "R"); h != h0 || m != m0 || k != k0 {
			t.Fatalf("%s: the table moved: %d hits, %d misses, %d → %d answers", c.name, h-h0, m-m0, k0, k)
		}
		switch {
		case c.name == "canceled":
			if err == nil {
				t.Fatalf("a canceled SELECT answered %q", out)
			}
		case err != nil:
			t.Fatalf("%s: %v", c.name, err)
		case c.name == "SELECT … AS":
			if _, rows, _ := strings.Cut(out, "\n"); !strings.HasSuffix(want, rows) {
				t.Fatalf("%s answered\n%s\nwant the rows of\n%s", c.name, out, want)
			}
		case out != want:
			t.Fatalf("%s answered\n%s\nwant\n%s", c.name, out, want)
		}
	}
}

// TestAnswerTableRenewsOnlyOnAMiss: SELECT renews a stale consistency stamp
// before it derives, but a relation that fails the check keeps no stamp, so
// the renewal must come with the derive: a SELECT served from the table
// runs no sweep.
func TestAnswerTableRenewsOnlyOnAMiss(t *testing.T) {
	sess := NewSession(MemTarget{DB: catalog.New()})
	if _, err := sess.Exec(`
		CREATE HIERARCHY D; CLASS A IN D; CLASS B UNDER A;
		INSTANCE x UNDER B; INSTANCE y UNDER A;
		CREATE RELATION R (K: D);
		ASSERT R (A); DENY R (B);
		SET MODE R none;
	`); err != nil {
		t.Fatal(err)
	}
	full := obs.Default().Counter("hrdb_core_consistency_checks_total", obs.Label{Key: "scope", Value: "full"})
	for i := 0; i < 3; i++ {
		before := full.Value()
		if _, err := sess.Exec("SELECT FROM R WHERE K UNDER A;"); err != nil {
			t.Fatal(err)
		}
		if d := full.Value() - before; (i == 0) != (d > 0) {
			t.Fatalf("SELECT %d ran %d full consistency sweeps; want some on the first alone", i+1, d)
		}
	}
}
