package hql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/storage"
)

// buildRichDB constructs a database exercising every dumpable feature:
// multiple hierarchies, multiple inheritance, a deliberately redundant
// edge, preferences, policy, and relations with mixed-sign tuples.
func buildRichDB(t *testing.T) *catalog.Database {
	t.Helper()
	db := catalog.New()
	db.SetPolicy(catalog.WarnExceptions)

	h, err := db.CreateHierarchy("Animal")
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		h.AddClass("Bird"),
		h.AddClass("Penguin", "Bird"),
		h.AddClass("GP", "Penguin"),
		h.AddClass("AFP", "Penguin"),
		h.AddInstance("Patricia", "GP", "AFP"),
		h.AddInstance("Pamela", "AFP"),
		h.AddEdge("Penguin", "Pamela"), // deliberate redundancy
		h.Prefer("AFP", "GP"),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	h2, err := db.CreateHierarchy("Color")
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.AddInstance("Red Wine"); err != nil { // needs quoting
		t.Fatal(err)
	}

	if _, err := db.CreateRelation("Flies", catalog.AttrSpec{Name: "Creature", Domain: "Animal"}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tx.Assert("Flies", "Bird")
	tx.Deny("Flies", "Penguin")
	tx.Assert("Flies", "AFP")
	tx.Assert("Flies", "Pamela") // resolves the redundant-edge conflict at Pamela
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("Likes",
		catalog.AttrSpec{Name: "Creature", Domain: "Animal"},
		catalog.AttrSpec{Name: "Hue", Domain: "Color"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Assert("Likes", "Bird", "Red Wine"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDumpRoundTrip: dump → exec into a fresh database → identical specs.
func TestDumpRoundTrip(t *testing.T) {
	db := buildRichDB(t)
	script, err := Dump(db, db.Snapshot)
	if err != nil {
		t.Fatal(err)
	}

	fresh := catalog.New()
	sess := NewSession(MemTarget{DB: fresh})
	if _, err := sess.Exec(script); err != nil {
		t.Fatalf("replaying dump: %v\nscript:\n%s", err, script)
	}

	want := storage.SnapshotDatabase(db)
	got := storage.SnapshotDatabase(fresh)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip differs\nwant %+v\ngot  %+v\nscript:\n%s", want, got, script)
	}
}

// TestDumpDeterministic.
func TestDumpDeterministic(t *testing.T) {
	db := buildRichDB(t)
	a, err := Dump(db, db.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dump(db, db.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dump not deterministic")
	}
}

// TestDumpQuoting: names with spaces survive.
func TestDumpQuoting(t *testing.T) {
	db := buildRichDB(t)
	script, err := Dump(db, db.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "'Red Wine'") {
		t.Fatalf("quoting missing:\n%s", script)
	}
}

// TestDumpPreservesMode: non-default preemption modes survive the round
// trip.
func TestDumpPreservesMode(t *testing.T) {
	db := buildRichDB(t)
	if err := db.SetMode("Likes", 1); err != nil { // OnPath
		t.Fatal(err)
	}
	script, err := Dump(db, db.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "SET MODE Likes on_path;") {
		t.Fatalf("mode missing:\n%s", script)
	}
	fresh := catalog.New()
	if _, err := NewSession(MemTarget{DB: fresh}).Exec(script); err != nil {
		t.Fatal(err)
	}
	r, err := fresh.Relation("Likes")
	if err != nil {
		t.Fatal(err)
	}
	if int(r.Mode()) != 1 {
		t.Fatalf("mode = %v", r.Mode())
	}
}

// TestDumpSemantics: the replayed database answers like the original.
func TestDumpSemantics(t *testing.T) {
	db := buildRichDB(t)
	script, err := Dump(db, db.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	fresh := catalog.New()
	sess := NewSession(MemTarget{DB: fresh})
	if _, err := sess.Exec(script); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		who  string
		want bool
	}{{"Patricia", true}, {"Pamela", true}} {
		got, err := fresh.Holds("Flies", q.who)
		if err != nil {
			t.Fatalf("%s: %v", q.who, err)
		}
		if got != q.want {
			t.Errorf("replayed Holds(%s) = %v", q.who, got)
		}
	}
}

// TestSnapshotAndDumpUnderConcurrentInstanceOps takes snapshots and DUMPs
// while another goroutine adds instances through Apply, as a replica's
// apply loop does. Run under -race, neither read meets a hierarchy being
// edited, and each snapshot is one cut: it lists every node after its
// parents, and never fewer instances than the one before.
func TestSnapshotAndDumpUnderConcurrentInstanceOps(t *testing.T) {
	db := catalog.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.ApplyOps([]catalog.TxOp{
		{Kind: catalog.KindCreateHierarchy, Relation: "A"},
		{Kind: catalog.KindAddClass, Relation: "A", Values: []string{"C"}},
		{Kind: catalog.KindCreateRelation, Relation: "R", Values: []string{"X", "A"}},
		{Kind: catalog.KindAssert, Relation: "R", Values: []string{"C"}, Bare: true},
	}))
	const adds = 200
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < adds; i++ {
			if err := db.ApplyOps([]catalog.TxOp{{Kind: catalog.KindAddInstance, Relation: "A", Values: []string{fmt.Sprintf("i%03d", i), "C"}}}); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	seen := 0
	for done := false; !done; {
		select {
		case err := <-errs:
			must(err)
			done = true
		default:
		}
		spec := storage.SnapshotDatabase(db)
		nodes := spec.Hierarchies[0].Nodes
		listed := map[string]bool{"A": true}
		for _, n := range nodes {
			for _, p := range n.Parents {
				if !listed[p] {
					t.Fatalf("snapshot lists %s before its parent %s", n.Name, p)
				}
			}
			listed[n.Name] = true
		}
		if len(nodes) < seen {
			t.Fatalf("snapshot lists %d nodes after one listed %d", len(nodes), seen)
		}
		seen = len(nodes)
		_, err := Dump(db, db.Snapshot)
		must(err)
	}
	if seen != adds+1 {
		t.Fatalf("the last snapshot lists %d nodes, want %d", seen, adds+1)
	}
}

// TestDumpAfterDropAndReAdd: a node dropped and added again, under a class
// created after it first was, is listed once by SHOW HIERARCHY and Nodes,
// reads as a tuple's value again, and DUMP lists it after its new parent,
// so the script rebuilds a database with an equal Fingerprint.
func TestDumpAfterDropAndReAdd(t *testing.T) {
	s := setup(t)
	if _, err := s.Exec(`RETRACT Flies (Peter); DROP NODE Peter IN Animal;
CLASS Late UNDER Bird;
INSTANCE Peter UNDER Late;
DENY Flies (Late);
ASSERT Flies (Peter);`); err != nil {
		t.Fatal(err)
	}
	db := s.target.Database()
	out, err := s.Exec("SHOW HIERARCHY Animal;")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out, "Peter"); n != 1 {
		t.Fatalf("SHOW HIERARCHY lists Peter %d times:\n%s", n, out)
	}
	h, err := db.Hierarchy("Animal")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.Join(h.Nodes(), " ")+" ", "Peter "); n != 1 {
		t.Fatalf("Nodes lists Peter %d times: %v", n, h.Nodes())
	}
	if out, err := s.Exec("HOLDS Flies (Peter);"); err != nil || !strings.Contains(out, "true") {
		t.Fatalf("HOLDS Flies (Peter) = %q, %v", out, err)
	}
	script, err := Dump(db, db.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Index(script, "CLASS Late ") > strings.Index(script, "INSTANCE Peter ") {
		t.Fatalf("DUMP lists Peter before its parent Late:\n%s", script)
	}
	fresh := catalog.New()
	if _, err := NewSession(MemTarget{DB: fresh}).Exec(script); err != nil {
		t.Fatalf("replaying dump: %v\nscript:\n%s", err, script)
	}
	if got, want := storage.Fingerprint(fresh), storage.Fingerprint(db); got != want {
		t.Fatalf("rebuilt fingerprint\n%s\nwant\n%s\nscript:\n%s", got, want, script)
	}
}
