package hierarchy

import (
	"reflect"
	"testing"
)

func TestIsInstanceAndIsLeaf(t *testing.T) {
	h := animals(t)
	if !h.IsInstance("Tweety") || h.IsInstance("Bird") || h.IsInstance("nope") {
		t.Fatal("IsInstance wrong")
	}
	if !h.IsLeaf("Tweety") || h.IsLeaf("Bird") || h.IsLeaf("nope") {
		t.Fatal("IsLeaf wrong")
	}
	// A childless class is a leaf but not an instance.
	if err := h.AddClass("EmptyClass"); err != nil {
		t.Fatal(err)
	}
	if !h.IsLeaf("EmptyClass") || h.IsInstance("EmptyClass") {
		t.Fatal("childless class should be a non-instance leaf")
	}
}

func TestChildren(t *testing.T) {
	h := animals(t)
	want := []string{"AmazingFlyingPenguin", "GalapagosPenguin"}
	if got := h.Children("Penguin"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Children(Penguin) = %v", got)
	}
	if got := h.Children("Tweety"); len(got) != 0 {
		t.Fatalf("Children(Tweety) = %v", got)
	}
	if got := h.Children("nope"); got != nil {
		t.Fatalf("Children(nope) = %v", got)
	}
}

// bindChildren is BindChildIDs by name, sorted; nil for a name of no node.
func bindChildren(h *Hierarchy, name string) []string {
	id := h.IDOf(name)
	if id < 0 {
		return nil
	}
	return h.namesOf(h.BindChildIDs(id))
}

// bindParents is the binding graph's direct predecessors of name, sorted;
// nil for a name of no node.
func bindParents(h *Hierarchy, name string) []string {
	id := h.IDOf(name)
	if id < 0 {
		return nil
	}
	return h.namesOf(h.bindGraph().Pred(id))
}

func TestBindChildrenAndParents(t *testing.T) {
	h := animals(t)
	// Without preferences the binding graph equals the is-a graph.
	if got := bindChildren(h, "Penguin"); !reflect.DeepEqual(got, h.Children("Penguin")) {
		t.Fatalf("BindChildren = %v", got)
	}
	if got := bindParents(h, "Patricia"); !reflect.DeepEqual(got, h.Parents("Patricia")) {
		t.Fatalf("BindParents = %v", got)
	}
	// A preference edge appears in the binding adjacency only.
	if err := h.Prefer("AmazingFlyingPenguin", "GalapagosPenguin"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range bindChildren(h, "GalapagosPenguin") {
		if c == "AmazingFlyingPenguin" {
			found = true
		}
	}
	if !found {
		t.Fatalf("preference edge missing from BindChildren: %v", bindChildren(h, "GalapagosPenguin"))
	}
	for _, c := range h.Children("GalapagosPenguin") {
		if c == "AmazingFlyingPenguin" {
			t.Fatal("preference edge leaked into is-a Children")
		}
	}
	if got := bindChildren(h, "nope"); got != nil {
		t.Fatalf("BindChildren(nope) = %v", got)
	}
	if got := bindParents(h, "nope"); got != nil {
		t.Fatalf("BindParents(nope) = %v", got)
	}
}

func TestBindReachSet(t *testing.T) {
	h := animals(t)
	set, err := h.bindGraph().Reach(h.IDOf("Penguin"))
	if err != nil {
		t.Fatal(err)
	}
	if !set.Has(h.IDOf("Patricia")) {
		t.Fatal("Patricia not reachable from Penguin")
	}
	if set.Has(h.IDOf("Canary")) {
		t.Fatal("Canary reachable from Penguin")
	}
	if _, err := h.bindGraph().Reach(h.IDOf("nope")); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestBindingIrredundantCache(t *testing.T) {
	h := animals(t)
	if !h.BindingIrredundant() {
		t.Fatal("fresh animals should be binding-irredundant")
	}
	// cached second call
	if !h.BindingIrredundant() {
		t.Fatal("cache flipped")
	}
	if err := h.AddEdge("Penguin", "Pamela"); err != nil {
		t.Fatal(err)
	}
	if h.BindingIrredundant() {
		t.Fatal("redundant edge not detected after mutation")
	}
	if err := h.StripRedundant(); err != nil {
		t.Fatal(err)
	}
	if !h.BindingIrredundant() {
		t.Fatal("strip did not restore irredundancy")
	}
}

func TestGraphAndBindingGraphClone(t *testing.T) {
	h := animals(t)
	if err := h.Prefer("AmazingFlyingPenguin", "GalapagosPenguin"); err != nil {
		t.Fatal(err)
	}
	g, label := h.Graph()
	bg, blabel := h.bindGraph().Clone(), h.NameOf
	// The binding graph has the preference edge; the is-a graph does not.
	gp, afp := h.IDOf("GalapagosPenguin"), h.IDOf("AmazingFlyingPenguin")
	if g.HasEdge(gp, afp) {
		t.Fatal("preference edge in is-a clone")
	}
	if !bg.HasEdge(gp, afp) {
		t.Fatal("preference edge missing from binding clone")
	}
	if label(gp) != "GalapagosPenguin" || blabel(afp) != "AmazingFlyingPenguin" {
		t.Fatal("labels wrong")
	}
	// Clones are independent.
	g.RemoveNode(gp)
	if !h.Has("GalapagosPenguin") {
		t.Fatal("clone mutation leaked")
	}
}

// TestPreferenceReductionKeepsDeliberateRedundancy: an is-a edge that was
// already redundant before any preference must survive the preference-
// induced reduction (the appendix treats it as meaningful).
func TestPreferenceReductionKeepsDeliberateRedundancy(t *testing.T) {
	h := animals(t)
	if err := h.AddEdge("Penguin", "Pamela"); err != nil { // deliberate
		t.Fatal(err)
	}
	if err := h.Prefer("Canary", "Penguin"); err != nil {
		t.Fatal(err)
	}
	// The deliberate redundant edge is still in the binding graph.
	found := false
	for _, c := range bindChildren(h, "Penguin") {
		if c == "Pamela" {
			found = true
		}
	}
	if !found {
		t.Fatal("deliberate redundant edge stripped by preference reduction")
	}
}
