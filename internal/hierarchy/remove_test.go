package hierarchy

import (
	"errors"
	"slices"
	"testing"
)

func TestRemoveLeafDirect(t *testing.T) {
	h := animals(t)
	tweety := h.IDOf("Tweety")
	if err := h.RemoveLeaf("Tweety"); err != nil {
		t.Fatal(err)
	}
	if h.Has("Tweety") || h.IDOf("Tweety") != -1 || h.IsInstance("Tweety") || slices.Contains(h.Nodes(), "Tweety") {
		t.Fatal("Tweety survived")
	}
	if h.KeptID("Tweety") != tweety || h.KeptID("Ghost") != -1 {
		t.Fatalf("KeptID(Tweety) = %d, want %d; KeptID(Ghost) = %d", h.KeptID("Tweety"), tweety, h.KeptID("Ghost"))
	}
	if err := h.AddEdge("Bird", "Tweety"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("an edge to a removed name: %v", err)
	}
	// Canary is now childless: removable as well.
	if err := h.RemoveLeaf("Canary"); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveLeaf("Bird"); !errors.Is(err, ErrHasChildren) {
		t.Fatalf("got %v", err)
	}
	if err := h.RemoveLeaf("Animal"); !errors.Is(err, ErrIsRoot) {
		t.Fatalf("got %v", err)
	}
	if err := h.RemoveLeaf("Ghost"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("got %v", err)
	}
	// Membership and binding still coherent after removals.
	if !h.Subsumes("Penguin", "Patricia") {
		t.Fatal("membership broken")
	}
	if !h.BindingIrredundant() {
		t.Fatal("binding graph broken")
	}
	// A removed name comes back with its id, as whatever kind it is now.
	if err := h.AddClass("Tweety", "Penguin"); err != nil {
		t.Fatal(err)
	}
	if h.IDOf("Tweety") != tweety || h.IsInstance("Tweety") || !h.Subsumes("Penguin", "Tweety") {
		t.Fatalf("re-added Tweety: id %d (was %d), parents %v", h.IDOf("Tweety"), tweety, h.Parents("Tweety"))
	}
	if err := h.AddInstance("Tweety"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("adding a live name again: %v", err)
	}
}

func TestRemoveLeafDropsPreference(t *testing.T) {
	h := animals(t)
	if err := h.Prefer("AmazingFlyingPenguin", "GalapagosPenguin"); err != nil {
		t.Fatal(err)
	}
	// Remove every AFP instance, then AFP itself: the preference must go.
	for _, n := range []string{"Pamela", "Peter"} {
		if err := h.RemoveLeaf(n); err != nil {
			t.Fatal(err)
		}
	}
	// Patricia has two parents; removing her leaves AFP childless.
	if err := h.RemoveLeaf("Patricia"); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveLeaf("AmazingFlyingPenguin"); err != nil {
		t.Fatal(err)
	}
	if len(h.Preferences()) != 0 {
		t.Fatalf("preferences = %v", h.Preferences())
	}
}
