package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hrdb/internal/hierarchy"
)

// This file holds the string-keyed implementations the id-level code
// replaced — the binding-order Kahn over BindSubsumes, Explicate into a
// relation through Insert, Consolidate and the redundancy rule on names —
// and holds the id-level code to them: same tuples, same order, same errors.

// refSortGeneralFirst is Kahn's algorithm over BindSubsumes on names, the
// frontier kept sorted by item key.
func refSortGeneralFirst(r *Relation, ts []Tuple) []Tuple {
	n := len(ts)
	adj := make([][]int, n)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !ts[i].Item.Equal(ts[j].Item) && r.BindSubsumes(ts[i].Item, ts[j].Item) {
				adj[i] = append(adj[i], j)
				indeg[j]++
			}
		}
	}
	var frontier []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	byKey := func() {
		sort.Slice(frontier, func(x, y int) bool { return ts[frontier[x]].Item.Key() < ts[frontier[y]].Item.Key() })
	}
	byKey()
	out := make([]Tuple, 0, n)
	for len(frontier) > 0 {
		i := frontier[0]
		frontier = frontier[1:]
		out = append(out, ts[i])
		for _, j := range adj[i] {
			if indeg[j]--; indeg[j] == 0 {
				frontier = append(frontier, j)
			}
		}
		byKey()
	}
	return out
}

// refExplicate walks the tuples most specific first, enumerates each one's
// leaves by name and inserts every item no earlier tuple has decided.
func refExplicate(ctx context.Context, r *Relation, attrs ...string) (*Relation, error) {
	explicated := make([]bool, r.schema.Arity())
	for _, a := range attrs {
		i, ok := r.schema.Index(a)
		if !ok {
			return nil, fmt.Errorf("%w: no attribute %q in %q", ErrUnknownAttribute, a, r.name)
		}
		explicated[i] = true
	}
	out := NewRelation(r.name, r.schema)
	out.mode = r.mode
	ordered := refSortGeneralFirst(r, r.Tuples())
	inserted := 0
	for o := len(ordered) - 1; o >= 0; o-- {
		t := ordered[o]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		perAttr := make([][]string, r.schema.Arity())
		for i, v := range t.Item {
			if len(attrs) == 0 || explicated[i] {
				perAttr[i] = r.schema.attrs[i].Domain.Leaves(v)
			} else {
				perAttr[i] = []string{v}
			}
		}
		for _, item := range Product(perAttr) {
			if _, present := out.Lookup(item); present {
				continue
			}
			if inserted >= maxProductNodes {
				return nil, fmt.Errorf("%w: explication of %q exceeds %d tuples", ErrTooLarge, r.name, maxProductNodes)
			}
			inserted++
			if err := out.Insert(item, t.Sign); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// refExtension is the positive tuples of refExplicate, sorted by key.
func refExtension(r *Relation) ([]Item, error) {
	flat, err := refExplicate(context.Background(), r)
	if err != nil {
		return nil, err
	}
	var out []Item
	for _, t := range flat.Tuples() {
		if t.Sign {
			out = append(out, t.Item)
		}
	}
	return out, nil
}

// refRedundant is the redundancy rule on names: t has the sign of all the
// minimal tuples strictly above it, of the universal negated tuple if none.
func refRedundant(r *Relation, t Tuple, tuples []Tuple) bool {
	var above []Tuple
	for _, u := range tuples {
		if !u.Item.Equal(t.Item) && r.BindSubsumes(u.Item, t.Item) {
			above = append(above, u)
		}
	}
	if len(above) == 0 {
		return !t.Sign
	}
	for _, u := range r.minimalTuples(above) {
		if u.Sign != t.Sign {
			return false
		}
	}
	return true
}

// refConsolidate deletes, general first, every tuple redundant among the
// survivors.
func refConsolidate(r *Relation) *Relation {
	out := r.Clone()
	for _, t := range refSortGeneralFirst(r, r.Tuples()) {
		if refRedundant(r, t, out.Tuples()) {
			out.Retract(t.Item)
		}
	}
	return out
}

// refTable renders the relation as Table does, in refSortGeneralFirst order.
func refTable(r *Relation) string {
	var rows [][]string
	for _, t := range refSortGeneralFirst(r, r.Tuples()) {
		row := []string{map[bool]string{true: "+", false: "-"}[t.Sign]}
		for i, v := range t.Item {
			row = append(row, r.DisplayValue(i, v))
		}
		rows = append(rows, row)
	}
	return renderTable(r.name, append([]string{""}, r.schema.Names()...), rows)
}

// refBindingEdges is TupleBindingGraph's tuple-to-tuple edges on names: a→b
// when a strictly bind-subsumes b with no tuple strictly between.
func refBindingEdges(r *Relation, ts []Tuple) [][2]int {
	strict := func(a, b Tuple) bool { return !a.Item.Equal(b.Item) && r.BindSubsumes(a.Item, b.Item) }
	var out [][2]int
	for i, a := range ts {
	pairs:
		for j, b := range ts {
			if !strict(a, b) {
				continue
			}
			for _, c := range ts {
				if strict(a, c) && strict(c, b) {
					continue pairs
				}
			}
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// kernelCorpus calls check on random relations of arity 1–3 over hierarchies
// with two-parent nodes and, in some, preference edges, in every preemption
// mode; half are consistent, half are whatever random signed tuples make.
func kernelCorpus(t *testing.T, check func(trial int, r *Relation)) {
	t.Helper()
	rng := rand.New(rand.NewSource(2389))
	modes := []Preemption{OffPath, OnPath, NoPreemption}
	for trial := 0; trial < 120; trial++ {
		attrs := make([]Attribute, 1+rng.Intn(3))
		for i := range attrs {
			h := randomHierarchy(rng, fmt.Sprintf("D%d", i), 4+rng.Intn(7))
			if rng.Intn(3) == 0 {
				nodes := h.Nodes()
				for p := 0; p < 2; p++ {
					a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
					if a != b && !h.Subsumes(a, b) && !h.Subsumes(b, a) {
						_ = h.Prefer(a, b) // a cycle through earlier preferences is refused
					}
				}
			}
			attrs[i] = Attribute{Name: fmt.Sprintf("A%d", i), Domain: h}
		}
		s := MustSchema(attrs...)
		var r *Relation
		if trial%2 == 0 {
			r = randomConsistentRelation(rng, "R", s, 2+rng.Intn(10))
		} else {
			r = NewRelation("R", s)
			for n := 2 + rng.Intn(10); n > 0; n-- {
				item := make(Item, s.Arity())
				for i := range item {
					nodes := s.Attr(i).Domain.Nodes()
					item[i] = nodes[rng.Intn(len(nodes))]
				}
				_ = r.Insert(item, rng.Intn(2) == 0) // a repeated item keeps its first sign
			}
		}
		r.SetMode(modes[rng.Intn(len(modes))])
		check(trial, r)
	}
}

// sameResult fails unless two (value, error) results agree exactly.
func sameResult(t *testing.T, what string, got, want any, gerr, werr error) {
	t.Helper()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %v (%v)\nwant %v (%v)", what, got, gerr, want, werr)
	}
}

// tuplesOf is a relation's tuples, nil for a nil relation.
func tuplesOf(r *Relation) []Tuple {
	if r == nil {
		return nil
	}
	return r.Tuples()
}

// compareWithReferences holds every id-level routine on r to its string
// reference.
func compareWithReferences(t *testing.T, label string, r *Relation, partial []string) {
	t.Helper()
	ctx := context.Background()
	ts := r.Tuples()
	if got, want := r.sortGeneralFirst(ts), refSortGeneralFirst(r, ts); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: binding order\n got %v\nwant %v", label, got, want)
	}
	got, gerr := r.Explicate()
	want, werr := refExplicate(ctx, r)
	sameResult(t, label+": Explicate", tuplesOf(got), tuplesOf(want), gerr, werr)
	got, gerr = r.Explicate(partial...)
	want, werr = refExplicate(ctx, r, partial...)
	sameResult(t, fmt.Sprintf("%s: Explicate(%v)", label, partial), tuplesOf(got), tuplesOf(want), gerr, werr)
	ext, gerr := r.Extension()
	wext, werr := refExtension(r)
	sameResult(t, label+": Extension", ext, wext, gerr, werr)
	if n, err := r.ExtensionSize(); err == nil && n != len(wext) || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s: ExtensionSize = %d, %v; want %d, %v", label, n, err, len(wext), werr)
	}
	if got, want := r.Table(), refTable(r); got != want {
		t.Fatalf("%s: Table\n%s\nwant\n%s", label, got, want)
	}
	if got, want := r.Consolidate().Tuples(), refConsolidate(r).Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Consolidate\n got %v\nwant %v", label, got, want)
	}
	var wantRed []Tuple
	for _, u := range ts {
		if refRedundant(r, u, ts) {
			wantRed = append(wantRed, u)
		}
	}
	if got := r.RedundantTuples(); !reflect.DeepEqual(got, wantRed) {
		t.Fatalf("%s: RedundantTuples\n got %v\nwant %v", label, got, wantRed)
	}
	if got, want := r.Conflicts(), conflictsAllPairs(r, ts); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Conflicts\n got %v\nwant %v", label, got, want)
	}
	for _, u := range ts {
		bg, err := r.TupleBindingGraph(u.Item)
		if err != nil {
			continue // the item's own binders conflict: no graph to compare
		}
		want := refBindingEdges(r, bg.Nodes)
		for _, b := range bg.Binders {
			want = append(want, [2]int{b, -1})
		}
		if !reflect.DeepEqual(bg.Edges, want) {
			t.Fatalf("%s: TupleBindingGraph(%v) edges\n got %v\nwant %v", label, u.Item, bg.Edges, want)
		}
	}
}

// TestKernelMatchesReferences: on the random corpus, Explicate (full and on
// a random attribute subset), Extension, ExtensionSize, the binding order,
// Table, Consolidate, RedundantTuples, Conflicts and the binding-graph edges
// are what the string-keyed references give.
func TestKernelMatchesReferences(t *testing.T) {
	conflicted, preferred := 0, 0
	kernelCorpus(t, func(trial int, r *Relation) {
		var partial []string
		for i, name := range r.Schema().Names() {
			if trial>>i&1 == 1 {
				partial = append(partial, name)
			}
		}
		if len(partial) == 0 {
			partial = r.Schema().Names()[:1]
		}
		compareWithReferences(t, fmt.Sprintf("trial %d", trial), r, partial)
		if len(r.Conflicts()) > 0 {
			conflicted++
		}
		for i := 0; i < r.Schema().Arity(); i++ {
			if len(r.Schema().Attr(i).Domain.Preferences()) > 0 {
				preferred++
				break
			}
		}
	})
	if conflicted == 0 || preferred == 0 {
		t.Fatalf("corpus has %d conflicted relations and %d with preference edges", conflicted, preferred)
	}
}

// TestKernelRemovedNode: a tuple naming a node that hierarchy surgery has
// since removed never subsumes, overlaps or expands to anything, as in the
// string API: nothing panics, and every routine agrees with its reference —
// including the error of a partial Explicate that keeps the removed name.
func TestKernelRemovedNode(t *testing.T) {
	animals := animalHierarchy(t)
	for i := 0; i < 64; i++ { // node 63 sits under Bird: a stray read of id -1 would find it
		must(t, animals.AddInstance(fmt.Sprintf("canary%02d", i), "Canary"))
	}
	must(t, animals.AddClass("Dodo", "Bird"))
	colors := colorHierarchy(t)
	s := MustSchema(Attribute{Name: "Animal", Domain: animals}, Attribute{Name: "Color", Domain: colors})
	r := NewRelation("R", s)
	must(t, r.Assert("Bird", "Grey"))
	must(t, r.Deny("Penguin", "Grey"))
	must(t, r.Assert("Dodo", "Grey"))
	must(t, r.Deny("Dodo", "White"))
	must(t, r.Assert("Tweety", "White"))
	must(t, animals.RemoveLeaf("Dodo"))
	for _, mode := range []Preemption{OffPath, OnPath, NoPreemption} {
		r.SetMode(mode)
		compareWithReferences(t, mode.String(), r, []string{"Color"})
	}
	if _, err := r.Explicate("Color"); !errors.Is(err, ErrUnknownValue) {
		t.Fatalf("Explicate(Color) kept a removed name: %v", err)
	}
}

// TestKernelTooLargeAtTheCap: explication decides exactly maxProductNodes
// atoms without complaint and fails on the next one, with the reference's
// error.
func TestKernelTooLargeAtTheCap(t *testing.T) {
	wide, narrow := hierarchy.New("W"), hierarchy.New("N")
	must(t, wide.AddClass("C"))
	must(t, narrow.AddClass("C"))
	for i := 0; i < 512; i++ {
		must(t, wide.AddInstance(fmt.Sprintf("w%03d", i), "C"))
	}
	for i := 0; i < 256; i++ {
		must(t, narrow.AddInstance(fmt.Sprintf("n%03d", i), "C"))
	}
	must(t, narrow.AddInstance("extra"))
	s := MustSchema(Attribute{Name: "X", Domain: wide}, Attribute{Name: "Y", Domain: narrow})
	r := NewRelation("R", s)
	must(t, r.Assert("C", "C")) // 512 × 256 = maxProductNodes atoms
	must(t, r.Deny("w000", "n000"))
	n, err := r.ExtensionSize()
	if err != nil || n != maxProductNodes-1 {
		t.Fatalf("at the cap: %d atoms, %v", n, err)
	}
	must(t, r.Assert("w000", "extra"))
	_, gerr := r.Extension()
	_, werr := refExtension(r)
	if !errors.Is(gerr, ErrTooLarge) || gerr.Error() != werr.Error() {
		t.Fatalf("past the cap: %v, reference %v", gerr, werr)
	}
}

// TestKernelWideKeys: a schema whose id ranges overflow a packed 64-bit atom
// key still explicates exactly.
func TestKernelWideKeys(t *testing.T) {
	h := hierarchy.New("D")
	must(t, h.AddClass("C"))
	for i := 0; i < 300; i++ {
		parent := "D"
		if i < 3 {
			parent = "C"
		}
		must(t, h.AddInstance(fmt.Sprintf("i%03d", i), parent))
	}
	attrs := make([]Attribute, 8) // 302 ids per column: 302^8 > 2^64
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("A%d", i), Domain: h}
	}
	r := NewRelation("R", MustSchema(attrs...))
	must(t, r.Assert("C", "C", "C", "C", "C", "C", "C", "C"))
	must(t, r.Deny("i000", "C", "C", "C", "C", "C", "C", "i001"))
	must(t, r.Assert("i000", "C", "C", "C", "C", "C", "C", "i299"))
	if newAtomSet(r.Schema()).words != nil {
		t.Fatal("fixture packs into 64 bits; it exercises nothing")
	}
	ext, err := r.Extension()
	want, werr := refExtension(r)
	sameResult(t, "Extension", ext, want, err, werr)
	if len(ext) != 6561 { // 3^8 under C, less 3^6 denied, plus 3^6 outside C
		t.Fatalf("extension has %d atoms", len(ext))
	}
}

// TestKernelCancelled: explication checks ctx before each tuple.
func TestKernelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := fliesRelation(t)
	if _, err := r.ExtensionContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExtensionContext: %v", err)
	}
	if _, err := r.ExplicateContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExplicateContext: %v", err)
	}
}
