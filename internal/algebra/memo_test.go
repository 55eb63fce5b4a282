package algebra

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hrdb/internal/core"
	"hrdb/internal/hierarchy"
	"hrdb/internal/workload"
)

// TestPropertyMemoMatchesCacheOff: a relation that keeps its extension and
// binding order per state answers every read as one with the cache off,
// which derives each afresh, across random write sequences that also add
// is-a and preference edges, drop and add nodes and switch the preemption
// mode. Each read on the memoizing relation runs twice, so the second is
// served from the memo; the order Consolidate hands its result is checked
// against the result's own order derived afresh. It runs 100 write
// sequences, 15 under -short, and CHAOS_ROUNDS×5 when that is set.
func TestPropertyMemoMatchesCacheOff(t *testing.T) {
	rng := rand.New(rand.NewSource(3909))
	for trial, n := 0, selectTrials(t)/20; trial < n; trial++ {
		hs := []*hierarchy.Hierarchy{denseHierarchy(rng, "D", 3+rng.Intn(10), rng.Intn(2) == 0)}
		if rng.Intn(2) == 0 {
			hs = append(hs, denseHierarchy(rng, "E", 2+rng.Intn(4), true))
		}
		attrs := make([]core.Attribute, len(hs))
		for i, h := range hs {
			attrs[i] = core.Attribute{Name: h.Domain(), Domain: h}
		}
		s := core.MustSchema(attrs...)
		on, off := core.NewRelation("R", s), core.NewRelation("R", s)
		off.SetCache(false)
		var log []string
		for step := 0; step < 24; step++ {
			log = append(log, memoStep(t, rng, hs, on, off))
			checkMemo(t, on, off, func() string { return fmt.Sprintf("trial %d step %d\nsteps: %q", trial, step, log) })
		}
	}
}

// memoStep applies one random write to both relations and describes it.
func memoStep(t *testing.T, rng *rand.Rand, hs []*hierarchy.Hierarchy, on, off *core.Relation) string {
	modes := []core.Preemption{core.OffPath, core.OnPath, core.NoPreemption}
	h := hs[rng.Intn(len(hs))]
	nodes := h.Nodes()
	pick := func() string { return nodes[rng.Intn(len(nodes))] }
	switch op := rng.Intn(10); {
	case op < 4:
		item := make(core.Item, len(hs))
		for a, h := range hs {
			ns := h.Nodes()
			item[a] = ns[rng.Intn(len(ns))]
		}
		sign := rng.Intn(2) == 0
		if on.Insert(item, sign) == nil {
			must(t, off.Insert(item, sign))
			if on.CheckConsistency() != nil {
				on.Retract(item)
				off.Retract(item)
			}
		}
		return fmt.Sprintf("insert %v %v", sign, item)
	case op == 4:
		ts := on.Tuples()
		if len(ts) == 0 {
			return "retract nothing"
		}
		item := ts[rng.Intn(len(ts))].Item
		on.Retract(item)
		off.Retract(item)
		return fmt.Sprintf("retract %v", item)
	case op == 5:
		p, c := pick(), pick()
		return fmt.Sprintf("edge %s %s: %v", p, c, h.AddEdge(p, c))
	case op == 6:
		a, b := pick(), pick()
		return fmt.Sprintf("prefer %s %s: %v", a, b, h.Prefer(a, b))
	case op == 7:
		// Named to sort before every class, so a node's key can be smaller
		// than its ancestors'.
		name, parent := fmt.Sprintf("%d%s", h.IDLimit(), h.Domain()), pick()
		return fmt.Sprintf("instance %s under %s: %v", name, parent, h.AddInstance(name, parent))
	case op == 8:
		// DROP NODE: a leaf no stored tuple names, as the catalog allows.
		leaf := pick()
		for _, t := range on.Tuples() {
			if slices.Contains(t.Item, leaf) {
				return "drop node " + leaf + ": in use"
			}
		}
		return fmt.Sprintf("drop node %s: %v", leaf, h.RemoveLeaf(leaf))
	default:
		m := modes[rng.Intn(len(modes))]
		on.SetMode(m)
		off.SetMode(m)
		return fmt.Sprintf("mode %v", m)
	}
}

// checkMemo compares every read the memos serve, twice on the memoizing
// relation, against the relation with the cache off.
func checkMemo(t *testing.T, on, off *core.Relation, at func() string) {
	t.Helper()
	ctx := context.Background()
	ext, extErr := off.Extension()
	size, _ := off.ExtensionSize()
	order, table := off.TuplesGeneralFirst(), off.Table()
	c := off.Consolidate()
	for pass := 0; pass < 2; pass++ {
		if got, err := on.Extension(); !reflect.DeepEqual(got, ext) || (err == nil) != (extErr == nil) {
			t.Fatalf("%s: pass %d: Extension = %v (%v), cache off %v (%v)", at(), pass, got, err, ext, extErr)
		}
		if got, _ := on.ExtensionSize(); got != size {
			t.Fatalf("%s: pass %d: ExtensionSize = %d, cache off %d", at(), pass, got, size)
		}
		for _, cols := range orderedChoices(on.Schema().Arity()) {
			by := make([]string, len(cols))
			for i, col := range cols {
				by[i] = on.Schema().Attr(col).Name
			}
			got, err := CountContext(ctx, on, by...)
			want, wantErr := CountContext(ctx, off, by...)
			if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: pass %d: COUNT BY %v = %v (%v), cache off %v (%v)", at(), pass, by, got, err, want, wantErr)
			}
		}
		got := on.TuplesGeneralFirst()
		if !reflect.DeepEqual(got, order) {
			t.Fatalf("%s: pass %d: TuplesGeneralFirst = %v, cache off %v", at(), pass, got, order)
		}
		if len(got) > 0 {
			got[0] = core.Tuple{} // the caller's copy: the memo must not see this
		}
		if got := on.Table(); got != table {
			t.Fatalf("%s: pass %d: Table\n%s\ncache off\n%s", at(), pass, got, table)
		}
		oc := on.Consolidate()
		if !reflect.DeepEqual(oc.Tuples(), c.Tuples()) || oc.Table() != c.Table() {
			t.Fatalf("%s: pass %d: Consolidate\n%s\ncache off\n%s", at(), pass, oc.Table(), c.Table())
		}
		fresh := oc.Clone()
		fresh.SetCache(false)
		if got, want := oc.TuplesGeneralFirst(), fresh.TuplesGeneralFirst(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pass %d: Consolidate handed its result the order %v, derived afresh %v", at(), pass, got, want)
		}
	}
}

// e4Relation is hrbench E4's relation: a classes×fanout taxonomy, each class
// paired with one of four hue classes of four hues.
func e4Relation(t *testing.T, classes, fanout int) *core.Relation {
	creatures, err := workload.Taxonomy("D", classes, fanout)
	must(t, err)
	hues, err := workload.Taxonomy("Hue", 4, 4)
	must(t, err)
	r := core.NewRelation("R", core.MustSchema(
		core.Attribute{Name: "X", Domain: creatures}, core.Attribute{Name: "Hue", Domain: hues}))
	for c := 0; c < classes; c++ {
		must(t, r.Assert(fmt.Sprintf("class%04d", c), fmt.Sprintf("class%04d", c%4)))
	}
	return r
}

// TestWarmExtensionReadsAllocateNothingPerAtom: once a relation's extension
// is memoized, visiting it and counting it by one column allocate the same
// at 400 atoms as at 40,000.
func TestWarmExtensionReadsAllocateNothingPerAtom(t *testing.T) {
	ctx := context.Background()
	var visit, count [2]float64
	for i, r := range []*core.Relation{e4Relation(t, 10, 10), e4Relation(t, 10, 1000)} {
		n, err := r.ExtensionSize()
		must(t, err)
		if want := []int{400, 40000}[i]; n != want {
			t.Fatalf("extension of %d atoms, want %d", n, want)
		}
		visit[i] = testing.AllocsPerRun(10, func() { must(t, r.VisitExtension(ctx, func([]int) {})) })
		count[i] = testing.AllocsPerRun(10, func() {
			_, err := CountContext(ctx, r, "Hue")
			must(t, err)
		})
	}
	t.Logf("warm VisitExtension allocates %.0f / %.0f times, warm COUNT BY (Hue) %.0f / %.0f, at 400 / 40,000 atoms",
		visit[0], visit[1], count[0], count[1])
	if visit[0] != visit[1] || count[0] != count[1] {
		t.Fatalf("warm reads allocate with the atoms: VisitExtension %.0f vs %.0f, COUNT %.0f vs %.0f",
			visit[0], visit[1], count[0], count[1])
	}
}
