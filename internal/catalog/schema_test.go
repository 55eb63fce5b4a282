package catalog

import (
	"errors"
	"fmt"
	"testing"

	"hrdb/internal/core"
	"hrdb/internal/hierarchy"
)

// TestDropNode: the referential-integrity rules.
func TestDropNode(t *testing.T) {
	db := setupFlies(t)
	// Referenced by the AFP tuple: refuse.
	if err := db.DropNode("Animal", "AmazingFlyingPenguin"); !errors.Is(err, ErrInUse) {
		t.Fatalf("got %v", err)
	}
	// Unreferenced leaf: drops.
	must(t, db.DropNode("Animal", "Paul"))
	h, _ := db.Hierarchy("Animal")
	if h.Has("Paul") {
		t.Fatal("Paul survived")
	}
	// Non-leaf (Canary has Tweety, and no tuple of its own): hierarchy
	// refuses.
	if err := db.DropNode("Animal", "Canary"); !errors.Is(err, hierarchy.ErrHasChildren) {
		t.Fatalf("got %v", err)
	}
	// Root refuses.
	if err := db.DropNode("Animal", "Animal"); !errors.Is(err, hierarchy.ErrIsRoot) {
		t.Fatalf("got %v", err)
	}
	// Unknown hierarchy and node.
	if err := db.DropNode("Nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if err := db.DropNode("Animal", "Ghost"); !errors.Is(err, hierarchy.ErrUnknown) {
		t.Fatalf("got %v", err)
	}
}

// TestDropNodeRemovesPreferences: preference edges touching the node go too.
func TestDropNodeRemovesPreferences(t *testing.T) {
	db := setupFlies(t)
	h, _ := db.Hierarchy("Animal")
	must(t, h.Prefer("AmazingFlyingPenguin", "GalapagosPenguin"))
	// Tweety is unreferenced; prefer edges don't involve it: drop fine.
	must(t, db.DropNode("Animal", "Tweety"))
	if len(h.Preferences()) != 1 {
		t.Fatal("unrelated preference lost")
	}
	// Retract the AFP tuple so the node is unreferenced, then empty it.
	_, err := db.Retract("Flies", "AmazingFlyingPenguin")
	must(t, err)
	for _, inst := range []string{"Patricia", "Pamela", "Peter"} {
		must(t, db.DropNode("Animal", inst))
	}
	must(t, db.DropNode("Animal", "AmazingFlyingPenguin"))
	if len(h.Preferences()) != 0 {
		t.Fatalf("preference touching dropped node survived: %v", h.Preferences())
	}
}

// TestSetModeCatalog.
func TestSetModeCatalog(t *testing.T) {
	db := setupFlies(t)
	must(t, db.SetMode("Flies", core.OnPath))
	r, _ := db.Relation("Flies")
	if r.Mode() != core.OnPath {
		t.Fatalf("mode = %v", r.Mode())
	}
	if err := db.SetMode("Nope", core.OffPath); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

// TestDropNodeUnderExplicatedResult: a relation held outside the catalog —
// an Explicate result naming the leaf Paul — reads as it did before DROP
// NODE removed that leaf: its rows keep Paul's dead id, which no id-level
// query matches, as no name-level query matched Paul's name once it was
// gone. A row whose first coordinate is dead is above no row, so the
// table keeps (Paul, Island) before (Paul, Place).
func TestDropNodeUnderExplicatedResult(t *testing.T) {
	db := setupFlies(t)
	places, err := db.CreateHierarchy("Place")
	must(t, err)
	must(t, places.AddClass("Island"))
	must(t, places.AddInstance("Galapagos", "Island"))
	must(t, places.AddInstance("Paris"))
	_, err = db.CreateRelation("Lives", AttrSpec{Name: "Creature", Domain: "Animal"}, AttrSpec{Name: "Where", Domain: "Place"})
	must(t, err)
	must(t, db.Assert("Lives", "Bird", "Place"))
	must(t, db.Deny("Lives", "Penguin", "Island"))
	lives, _ := db.Relation("Lives")
	res, err := lives.Explicate("Creature")
	must(t, err)
	must(t, db.DropNode("Animal", "Paul"))
	ext, err := res.Extension()
	got := fmt.Sprintf("%v\n%s%v %v\n", res.Tuples(), res.Table(), ext, err)
	want := `[- (Pamela, Island) + (Pamela, Place) - (Patricia, Island) + (Patricia, Place) - (Paul, Island) + (Paul, Place) - (Peter, Island) + (Peter, Place) + (Tweety, Place)]
Lives
   Creature  Where
--------------------
+  Pamela    ∀Place
-  Pamela    ∀Island
+  Patricia  ∀Place
-  Patricia  ∀Island
-  ∀Paul     ∀Island
+  ∀Paul     ∀Place
+  Peter     ∀Place
-  Peter     ∀Island
+  Tweety    ∀Place
[(Pamela, Paris) (Patricia, Paris) (Peter, Paris) (Tweety, Galapagos) (Tweety, Paris)] <nil>
`
	if got != want {
		t.Fatalf("after DROP NODE Paul:\n%s\nwant\n%s", got, want)
	}
}

// TestDropNodeEitherColumn: over a relation with two columns on one domain,
// DROP NODE refuses a node named in either.
func TestDropNodeEitherColumn(t *testing.T) {
	db := setupFlies(t)
	_, err := db.CreateRelation("Eats", AttrSpec{Name: "Eater", Domain: "Animal"}, AttrSpec{Name: "Food", Domain: "Animal"})
	must(t, err)
	must(t, db.Assert("Eats", "Penguin", "Paul"))
	must(t, db.Assert("Eats", "Pamela", "Bird"))
	for _, name := range []string{"Paul", "Pamela"} {
		if err := db.DropNode("Animal", name); !errors.Is(err, ErrInUse) {
			t.Fatalf("DropNode(%s) = %v, want ErrInUse", name, err)
		}
	}
	_, err = db.Retract("Eats", "Penguin", "Paul")
	must(t, err)
	_, err = db.Retract("Eats", "Pamela", "Bird")
	must(t, err)
	for _, name := range []string{"Paul", "Pamela"} {
		must(t, db.DropNode("Animal", name))
	}
}
