package core

import (
	"context"
	"testing"
)

// TestHoldsBatchReducesVerdicts: HoldsBatch is EvaluateBatch collapsed to
// closed-world booleans, item for item.
func TestHoldsBatchReducesVerdicts(t *testing.T) {
	r := fliesRelation(t)
	atoms := allAtoms(t, r)
	vs, err := r.EvaluateBatch(context.Background(), atoms)
	must(t, err)
	got, err := r.HoldsBatch(context.Background(), atoms)
	must(t, err)
	if len(got) != len(vs) {
		t.Fatalf("len %d vs %d", len(got), len(vs))
	}
	for i := range vs {
		if got[i] != vs[i].Value {
			t.Errorf("item %v: HoldsBatch %v, verdict %v", atoms[i], got[i], vs[i].Value)
		}
	}
	// The error path reduces too.
	if _, err := r.HoldsBatch(context.Background(), []Item{{"no-such-node"}}); err == nil {
		t.Fatal("unknown item must fail")
	}
}

// TestEpochAndCacheToggles pins the cache-coherence observables: the epoch
// counter moves on every mutation, and SetCache flips what the relation
// keeps per state.
func TestEpochAndCacheToggles(t *testing.T) {
	r := fliesRelation(t)
	if r.cacheOff {
		t.Fatal("cache must default on")
	}
	e0 := r.Epoch()
	r.SetMode(OnPath)
	if r.Epoch() == e0 {
		t.Fatal("SetMode must advance the epoch")
	}
	r.SetCache(false)
	if !r.cacheOff {
		t.Fatal("SetCache(false) must report disabled")
	}
	r.SetCache(true)
	if r.cacheOff {
		t.Fatal("SetCache(true) must report enabled")
	}
}

// TestHoldsBatchAllocatesOnlyResults: a warm batch allocates its verdict
// slice and its bool slice and no per-item or per-call machinery, so the
// count is the same at every batch size.
func TestHoldsBatchAllocatesOnlyResults(t *testing.T) {
	r := fliesRelation(t)
	atoms := allAtoms(t, r)
	many := make([]Item, 0, 8*len(atoms))
	for i := 0; i < 8; i++ {
		many = append(many, atoms...)
	}
	ctx := context.Background()
	counts := map[int]float64{}
	for _, items := range [][]Item{atoms[:1], atoms[:2], atoms, many} {
		if _, err := r.HoldsBatch(ctx, items); err != nil { // warm the table
			t.Fatal(err)
		}
		counts[len(items)] = testing.AllocsPerRun(50, func() {
			if _, err := r.HoldsBatch(ctx, items); err != nil {
				t.Fatal(err)
			}
		})
	}
	for n, allocs := range counts {
		if allocs > 2 || allocs != counts[1] {
			t.Fatalf("allocations by batch size = %v; want one count, at most 2 (size %d)", counts, n)
		}
	}
}
