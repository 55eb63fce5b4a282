package algebra

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"hrdb/internal/core"
	"hrdb/internal/flat"
	"hrdb/internal/hierarchy"
	"hrdb/internal/obs"
)

// referenceSelect is selection as the generic candidates-and-repair scheme
// builds it, kept as the reference SelectContext is checked against: the
// region, each overlapping tuple's own item and its meets with the region,
// signed pointwise, then the whole-result repair loop, always.
func referenceSelect(ctx context.Context, name string, r *core.Relation, conds ...Condition) (*core.Relation, error) {
	region, err := SelectRegion(r, conds...)
	if err != nil {
		return nil, err
	}
	cand := []core.Item{region}
	for _, t := range r.Tuples() {
		if r.Overlapping(t.Item, region) {
			cand = append(append(cand, t.Item), r.MinimalResolutionSet(t.Item, region)...)
		}
	}
	return combine(ctx, name, r.Schema(), cand, selectEval(r, region))
}

// denseHierarchy builds a random DAG of n classes, each under one to three
// parents. When irredundant is false a class may take two comparable
// parents, which leaves a redundant edge.
func denseHierarchy(rng *rand.Rand, domain string, n int, irredundant bool) *hierarchy.Hierarchy {
	h := hierarchy.New(domain)
	names := []string{domain}
	for i := 0; i < n; i++ {
		var parents []string
	pick:
		for k := 1 + rng.Intn(3); k > 0; k-- {
			p := names[rng.Intn(len(names))]
			for _, q := range parents {
				if p == q || irredundant && (h.Subsumes(p, q) || h.Subsumes(q, p)) {
					continue pick
				}
			}
			parents = append(parents, p)
		}
		name := fmt.Sprintf("%s%d", domain, i)
		if err := h.AddClass(name, parents...); err != nil {
			panic(err)
		}
		names = append(names, name)
	}
	return h
}

// fullChecks counts whole-relation consistency sweeps, the result repair's
// included.
var fullChecks = obs.Default().Counter("hrdb_core_consistency_checks_total", obs.Label{Key: "scope", Value: "full"})

// selectTrials is the trial count of the randomized selection test:
// CHAOS_ROUNDS×100 when set (the nightly soak), fewer under -short.
func selectTrials(t *testing.T) int {
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_ROUNDS %q", s)
		}
		return 100 * n
	}
	if testing.Short() {
		return 300
	}
	return 2000
}

// TestPropertySelectMatchesRepairReference: on random consistent relations
// over dense DAGs — redundant edges, PREFER edges, every preemption mode,
// one or two attributes and conditions — SelectContext's unconsolidated
// result is consistent and has the flat oracle's extension, and its
// consolidated table is byte-identical to the always-repairing reference's.
// Both the repair-free path and the repairing one must be taken.
func TestPropertySelectMatchesRepairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3203))
	modes := []core.Preemption{core.OffPath, core.OnPath, core.NoPreemption}
	ctx := context.Background()
	var skipped, repaired int
	for trial, n := 0, selectTrials(t); trial < n; trial++ {
		irredundant := rng.Intn(3) > 0
		hs := []*hierarchy.Hierarchy{denseHierarchy(rng, "D", 4+rng.Intn(7), irredundant)}
		if rng.Intn(2) == 0 {
			hs = append(hs, denseHierarchy(rng, "E", 2+rng.Intn(4), irredundant))
		}
		if rng.Intn(4) == 0 {
			nodes := hs[0].Nodes()
			_ = hs[0].Prefer(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))])
		}
		attrs := make([]core.Attribute, len(hs))
		for i, h := range hs {
			attrs[i] = core.Attribute{Name: h.Domain(), Domain: h}
		}
		r := core.NewRelation("R", core.MustSchema(attrs...))
		r.SetMode(modes[rng.Intn(len(modes))])
		for i := 0; i < 3+rng.Intn(6); i++ {
			item := make(core.Item, len(hs))
			for a, h := range hs {
				nodes := h.Nodes()
				item[a] = nodes[rng.Intn(len(nodes))]
			}
			if r.Insert(item, rng.Intn(2) == 0) == nil && r.CheckConsistency() != nil {
				r.Retract(item)
			}
		}
		must(t, r.CheckConsistency())
		var conds []Condition
		for c := 0; c < 1+rng.Intn(2); c++ {
			h := hs[rng.Intn(len(hs))]
			nodes := h.Nodes()
			conds = append(conds, Condition{Attr: h.Domain(), Class: nodes[rng.Intn(len(nodes))]})
		}
		region, err := SelectRegion(r, conds...)
		if err != nil {
			continue // two conditions on one attribute without a unique meet
		}
		sweeps := fullChecks.Value()
		got, err := SelectContext(ctx, "S", r, conds...)
		if err != nil {
			t.Fatalf("trial %d: %v\nR=%v conds=%v", trial, err, r.Tuples(), conds)
		}
		if fullChecks.Value() == sweeps {
			skipped++
		} else {
			repaired++
		}
		if err := got.CheckConsistency(); err != nil {
			t.Fatalf("trial %d: inconsistent selection: %v\nR=%v conds=%v\nresult=%v", trial, err, r.Tuples(), conds, got.Tuples())
		}
		want := flatExtension(t, r).Select(func(row flat.Row) bool {
			return r.Subsumes(region, core.Item(row))
		})
		if g := flatExtension(t, got); !equalRows(g, want) {
			t.Fatalf("trial %d: extension mismatch\n got %v\nwant %v\nR=%v conds=%v", trial, g.Rows(), want.Rows(), r.Tuples(), conds)
		}
		ref, err := referenceSelect(ctx, "S", r, conds...)
		must(t, err)
		if g, w := got.Consolidate().Table(), ref.Consolidate().Table(); g != w {
			t.Fatalf("trial %d: consolidated tables differ\n got:\n%s\nwant:\n%s\nR=%v conds=%v", trial, g, w, r.Tuples(), conds)
		}
	}
	t.Logf("%d selections skipped the repair, %d ran it", skipped, repaired)
	if skipped == 0 || repaired == 0 {
		t.Fatalf("one path never ran: %d skipped the repair, %d ran it", skipped, repaired)
	}
}

// TestSelectOverlappingMeetsNeedRepair pins the smallest selection whose
// premise fails only on disjointness: C and P share two maximal subclasses
// A and B that overlap at y, and R = {+C, −A} signs them apart. Selecting
// under P places +B and −A with nothing at y, so without the repair y
// conflicts; SelectContext sees the overlapping meets and repairs it.
func TestSelectOverlappingMeetsNeedRepair(t *testing.T) {
	h := hierarchy.New("D")
	must(t, h.AddClass("C"))
	must(t, h.AddClass("P"))
	must(t, h.AddClass("A", "C", "P"))
	must(t, h.AddClass("B", "C", "P"))
	must(t, h.AddInstance("y", "A", "B"))
	r := core.NewRelation("R", core.MustSchema(core.Attribute{Name: "X", Domain: h}))
	must(t, r.Assert("C"))
	must(t, r.Deny("A"))
	must(t, r.CheckConsistency())
	region := core.Item{"P"}

	cand, disjoint := selectCandidates(r, region, r.Tuples())
	if disjoint || !r.VerifiedConsistent() || !isaBinding(r) {
		t.Fatalf("want only the disjointness premise to fail: disjoint=%v verified=%v isaBinding=%v", disjoint, r.VerifiedConsistent(), isaBinding(r))
	}
	unrepaired := core.NewRelation("S", r.Schema())
	_, err := fill(context.Background(), unrepaired, cand, selectEval(r, region), func() []*core.ConflictError { return nil })
	must(t, err)
	cs := unrepaired.Conflicts()
	if len(cs) != 1 || !cs[0].Item.Equal(core.Item{"y"}) {
		t.Fatalf("unrepaired result: conflicts %v, want one at y\nresult=%v", cs, unrepaired.Tuples())
	}

	got, err := Select("S", r, Condition{Attr: "X", Class: "P"})
	must(t, err)
	must(t, got.CheckConsistency())
	if v, err := got.Evaluate(core.Item{"y"}); err != nil || v.Value {
		t.Fatalf("S(y) = %v, %v; want false", v.Value, err)
	}
	if tu, ok := got.Lookup(core.Item{"y"}); !ok || tu.Sign {
		t.Fatalf("no negated repair tuple at y: %v", got.Tuples())
	}
	if _, ok := got.Lookup(core.Item{"C"}); ok {
		t.Fatalf("the out-of-region tuple C is a candidate: %v", got.Tuples())
	}
}

// TestSelectPreferOverRedundantEdges pins a selection whose repair tuple,
// signed pointwise at the conflict it resolves, outranks by preference a
// tuple it does not subsume and flips an atom no conflict names. D carries
// the redundant edges D ⊐ D2 and D ⊐ D4 and prefers D2 over D1. Selecting
// under E3 places +(D2, E3) to resolve (D2, E3); at the atom (D5, E3) it
// then binds stronger than −(D1, E3), whose region the atom is in, and the
// result held there although R does not. The selection must return
// (D4, E3) alone, as the flat oracle does.
func TestSelectPreferOverRedundantEdges(t *testing.T) {
	d := hierarchy.New("D")
	must(t, d.AddClass("D0", "D"))
	must(t, d.AddClass("D1", "D0"))
	must(t, d.AddClass("D2", "D0", "D"))
	must(t, d.AddClass("D3", "D1"))
	must(t, d.AddClass("D4", "D0", "D", "D2"))
	must(t, d.AddClass("D5", "D2", "D3"))
	must(t, d.Prefer("D2", "D1"))
	e := hierarchy.New("E")
	must(t, e.AddClass("E0", "E"))
	must(t, e.AddClass("E1", "E"))
	must(t, e.AddClass("E2", "E0"))
	must(t, e.AddClass("E3", "E0"))
	must(t, e.AddClass("E4", "E1"))
	r := core.NewRelation("R", core.MustSchema(core.Attribute{Name: "D", Domain: d}, core.Attribute{Name: "E", Domain: e}))
	must(t, r.Assert("D0", "E"))
	must(t, r.Deny("D1", "E3"))
	must(t, r.Deny("D2", "E1"))
	must(t, r.Assert("D2", "E2"))
	must(t, r.CheckConsistency())
	conds := []Condition{{Attr: "E", Class: "E3"}}
	want := []flat.Row{{"D4", "E3"}}
	for _, sel := range []func(context.Context, string, *core.Relation, ...Condition) (*core.Relation, error){SelectContext, referenceSelect} {
		got, err := sel(context.Background(), "S", r, conds...)
		must(t, err)
		must(t, got.CheckConsistency())
		if rows := flatExtension(t, got).Rows(); !reflect.DeepEqual(rows, want) {
			t.Fatalf("selection under E3 = %v, want %v\nresult=%v", rows, want, got.Tuples())
		}
	}
}
