package hql

import (
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
