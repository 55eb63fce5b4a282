package hrdb_test

import (
	"fmt"
	"testing"

	"hrdb"
)

// TestScenarioProductCatalog drives a realistically sized workload — the
// kind of back-end usage the paper's introduction motivates (a front end
// for a knowledge-representation or object system): a product taxonomy
// with hundreds of SKUs, category-level defaults, exceptions at
// subcategories and items, queries, algebra and durability.
func TestScenarioProductCatalog(t *testing.T) {
	db := hrdb.NewDatabase()

	// Taxonomy: 3 departments × 5 categories × 20 SKUs.
	products, err := db.CreateHierarchy("Product")
	must(t, err)
	var skus []string
	for d := 0; d < 3; d++ {
		dept := fmt.Sprintf("dept%d", d)
		must(t, products.AddClass(dept))
		for c := 0; c < 5; c++ {
			cat := fmt.Sprintf("%s_cat%d", dept, c)
			must(t, products.AddClass(cat, dept))
			for i := 0; i < 20; i++ {
				sku := fmt.Sprintf("%s_sku%02d", cat, i)
				must(t, products.AddInstance(sku, cat))
				skus = append(skus, sku)
			}
		}
	}

	status, err := db.CreateHierarchy("Status")
	must(t, err)
	must(t, status.AddInstance("available"))

	_, err = db.CreateRelation("Shippable",
		hrdb.AttrSpec{Name: "Product", Domain: "Product"},
		hrdb.AttrSpec{Name: "Status", Domain: "Status"},
	)
	must(t, err)

	// Department-level default: everything ships. Category exception:
	// dept1_cat2 is hazardous. SKU exception: one hazardous item has a
	// special permit.
	for d := 0; d < 3; d++ {
		must(t, db.Assert("Shippable", fmt.Sprintf("dept%d", d), "available"))
	}
	must(t, db.Deny("Shippable", "dept1_cat2", "available"))
	must(t, db.Assert("Shippable", "dept1_cat2_sku07", "available"))

	// 300 SKUs decided by 5 stored tuples.
	r, err := db.Relation("Shippable")
	must(t, err)
	if r.Len() != 5 {
		t.Fatalf("stored tuples = %d", r.Len())
	}
	n, err := r.ExtensionSize()
	must(t, err)
	if n != 300-20+1 {
		t.Fatalf("extension = %d, want 281", n)
	}

	// Point queries across the exception structure.
	cases := []struct {
		sku  string
		want bool
	}{
		{"dept0_cat0_sku00", true},
		{"dept1_cat2_sku00", false},
		{"dept1_cat2_sku07", true},
		{"dept2_cat4_sku19", true},
	}
	for _, c := range cases {
		got, err := db.Holds("Shippable", c.sku, "available")
		must(t, err)
		if got != c.want {
			t.Errorf("Holds(%s) = %v, want %v", c.sku, got, c.want)
		}
	}

	// Selection: the hazardous category, compactly.
	snap, err := db.Snapshot("Shippable")
	must(t, err)
	sel, err := hrdb.Select("hazard", snap, hrdb.Condition{Attr: "Product", Class: "dept1_cat2"})
	must(t, err)
	selN, err := sel.ExtensionSize()
	must(t, err)
	if selN != 1 {
		t.Fatalf("hazardous shippables = %d, want 1 (the permit)", selN)
	}

	// Consistency holds and checking is fast enough to run inline.
	if err := snap.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// Consolidation keeps the exception structure intact.
	c := snap.Consolidate()
	if c.Len() != 5 {
		t.Fatalf("consolidated = %d (nothing was redundant)", c.Len())
	}

	// Bulk evaluation over every SKU: spot-check performance shape (no
	// assertion on time, just that it completes and counts match).
	countTrue := 0
	for _, sku := range skus {
		got, err := db.Holds("Shippable", sku, "available")
		must(t, err)
		if got {
			countTrue++
		}
	}
	if countTrue != 281 {
		t.Fatalf("bulk count = %d", countTrue)
	}
}

// TestScenarioDurableEvolution: a database evolving over three sessions
// with checkpoints between them.
func TestScenarioDurableEvolution(t *testing.T) {
	dir := t.TempDir()

	// Session 1: schema + base facts.
	s1, err := hrdb.OpenStore(dir)
	must(t, err)
	must(t, s1.CreateHierarchy("Device"))
	must(t, s1.AddClass("Device", "Sensor"))
	must(t, s1.AddClass("Device", "TempSensor", "Sensor"))
	must(t, s1.CreateRelation("Supported", hrdb.AttrSpec{Name: "Device", Domain: "Device"}))
	must(t, s1.Assert("Supported", "Sensor"))
	must(t, s1.Checkpoint())
	must(t, s1.Close())

	// Session 2: growth + an exception.
	s2, err := hrdb.OpenStore(dir)
	must(t, err)
	for i := 0; i < 50; i++ {
		must(t, s2.AddInstance("Device", fmt.Sprintf("t%02d", i), "TempSensor"))
	}
	must(t, s2.AddClass("Device", "LegacySensor", "Sensor"))
	must(t, s2.AddInstance("Device", "old1", "LegacySensor"))
	must(t, s2.Deny("Supported", "LegacySensor"))
	must(t, s2.Close())

	// Session 3: verify everything, then consolidate durably.
	s3, err := hrdb.OpenStore(dir)
	must(t, err)
	defer s3.Close()
	ok, err := s3.Database().Holds("Supported", "t42")
	must(t, err)
	if !ok {
		t.Fatal("t42 lost")
	}
	ok, err = s3.Database().Holds("Supported", "old1")
	must(t, err)
	if ok {
		t.Fatal("legacy exception lost")
	}
	r, err := s3.Database().Relation("Supported")
	must(t, err)
	n, err := r.ExtensionSize()
	must(t, err)
	if n != 50 {
		t.Fatalf("extension = %d, want 50", n)
	}
}

// TestDerivedRelationDropSurvivesReopen: `… AS name` attaches its result to
// the catalog without a WAL record, so a drop of it or a write to it must
// not be logged either — the next open would replay an op on a relation the
// log never created and refuse to start. After a checkpoint has snapshotted
// such a relation its drop is logged like any other.
func TestDerivedRelationDropSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	store, err := hrdb.OpenStore(dir)
	must(t, err)
	sess := hrdb.NewStoreSession(store)
	exec := func(script string) {
		t.Helper()
		if _, err := sess.Exec(script); err != nil {
			t.Fatalf("%s: %v", script, err)
		}
	}
	exec(`
		CREATE HIERARCHY Animal;
		CLASS Bird IN Animal;
		INSTANCE Tweety UNDER Bird IN Animal;
		CREATE HIERARCHY Zone;
		INSTANCE Aviary IN Zone;
		CREATE RELATION Flies (Creature: Animal);
		CREATE RELATION Lives (Creature: Animal, Place: Zone);
		ASSERT Flies (Bird);
		ASSERT Lives (Bird, Aviary);
	`)
	for _, derive := range []string{
		"JOIN Flies Lives AS J;",
		"SELECT FROM Flies WHERE Creature UNDER Bird AS J;",
		"PROJECT Lives ON (Creature) AS J;",
		"JOIN Flies Lives AS J;", // the name is free again after each drop
	} {
		exec(derive)
		exec("DROP RELATION J;")
	}
	// A write to such a relation is applied and not logged either — alone,
	// or in a bracket, whose durable writes alone are logged.
	exec("JOIN Flies Lives AS J;")
	for _, write := range []string{
		"ASSERT J (Tweety, Aviary);",
		"RETRACT J (Tweety, Aviary);",
		"DENY J (Tweety, Aviary);",
		"CONSOLIDATE J;",
		"EXPLICATE J;",
		"SET MODE J on_path;",
		"BEGIN; ASSERT J (Bird, Aviary); DENY J (Tweety, Aviary); COMMIT;",
		// The one durable write of this bracket flips a stored sign, which
		// only a transaction may do: it is logged as a bracket, not bare.
		"DENY Flies (Tweety);",
		"BEGIN; RETRACT J (Tweety, Aviary); ASSERT Flies (Tweety); COMMIT;",
	} {
		exec(write)
	}
	must(t, store.Close())

	store, err = hrdb.OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen after dropping derived relations: %v", err)
	}
	if got := store.Database().Relations(); len(got) != 2 {
		t.Fatalf("relations after reopen = %v, want Flies and Lives", got)
	}
	if ok, err := store.Database().Holds("Flies", "Tweety"); err != nil || !ok {
		t.Fatalf("Flies(Tweety) after reopen = %v, %v", ok, err)
	}

	// Snapshotted by a checkpoint, J is durable, and so is its drop.
	sess = hrdb.NewStoreSession(store)
	exec("JOIN Flies Lives AS J;")
	must(t, store.Checkpoint())
	exec("DROP RELATION J;")
	must(t, store.Close())
	store, err = hrdb.OpenStore(dir)
	must(t, err)
	defer store.Close()
	if _, err := store.Database().Relation("J"); err == nil {
		t.Fatal("J came back: its drop after the checkpoint was not logged")
	}
}
