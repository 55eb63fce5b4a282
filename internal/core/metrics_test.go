package core

import (
	"context"
	"testing"
)

// Engine metrics are process-wide, so these tests assert on deltas, never
// absolutes — other tests in the package move the same counters.

func TestCacheMetricsFlush(t *testing.T) {
	r := fliesRelation(t)
	h0 := metricCacheHits.Value()
	m0 := metricCacheMisses.Value()

	// 1 miss + well over 2×cacheFlushBlock hits, so at least one amortized
	// flush fires mid-run regardless of the counters' starting phase.
	const hits = 3 * cacheFlushBlock
	for i := 0; i <= hits; i++ {
		if _, err := r.Holds("Tweety"); err != nil {
			t.Fatal(err)
		}
	}
	if d := metricCacheHits.Value() - h0; d < cacheFlushBlock {
		t.Errorf("global hit counter moved by %d, want ≥ %d", d, cacheFlushBlock)
	}

	// CacheStats flushes the remainder exactly.
	h, m, _ := r.CacheStats()
	cHits, cMisses := h[Verdicts], m[Verdicts]
	if d := metricCacheHits.Value() - h0; d < cHits {
		t.Errorf("after CacheStats: global hits delta %d < relation hits %d", d, cHits)
	}
	if d := metricCacheMisses.Value() - m0; d < cMisses || cMisses == 0 {
		t.Errorf("after CacheStats: global misses delta %d, relation misses %d", d, cMisses)
	}
}

func TestCacheEvictionMetric(t *testing.T) {
	r := fliesRelation(t)
	r.cache.budget = 4 * entryBytes // rotation every two or three inserts
	e0 := metricCacheEvictions.Value()
	// Distinct uncached items: force inserts until generations rotate twice.
	for _, who := range []string{"Tweety", "Paul", "Patricia", "Pamela", "Peter", "Bird", "Penguin", "Canary", "GalapagosPenguin", "AmazingFlyingPenguin"} {
		r.Holds(who)
	}
	if metricCacheEvictions.Value() == e0 {
		t.Error("eviction counter did not move despite generation rotations")
	}
}

func TestConflictMetric(t *testing.T) {
	h := animalHierarchy(t)
	s := MustSchema(Attribute{Name: "Creature", Domain: h})
	r := NewRelation("Conflicted", s)
	must(t, r.Assert("GalapagosPenguin"))
	must(t, r.Deny("AmazingFlyingPenguin"))
	c0 := metricConflicts.Value()
	if _, err := r.Evaluate(Item{"Patricia"}); err == nil {
		t.Fatal("expected a conflict for Patricia")
	}
	if metricConflicts.Value() != c0+1 {
		t.Errorf("conflict counter delta = %d, want 1", metricConflicts.Value()-c0)
	}
	// A cache hit replays the conflict without re-counting it.
	if _, err := r.Evaluate(Item{"Patricia"}); err == nil {
		t.Fatal("expected the cached conflict")
	}
	if metricConflicts.Value() != c0+1 {
		t.Errorf("cached conflict re-counted: delta = %d", metricConflicts.Value()-c0)
	}
}

func TestEvalCounterPerMode(t *testing.T) {
	r := fliesRelation(t)
	r.SetCache(false)
	r.SetMode(OnPath)
	e0 := metricEvals[modeIndex(OnPath)].Value()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := r.Evaluate(Item{"Paul"}); err != nil {
			t.Fatal(err)
		}
	}
	if d := metricEvals[modeIndex(OnPath)].Value() - e0; d != n {
		t.Errorf("on-path eval counter delta = %d, want %d", d, n)
	}
}

func TestBatchMetrics(t *testing.T) {
	r := fliesRelation(t)
	items := []Item{{"Tweety"}, {"Paul"}, {"Peter"}}
	b0 := metricBatches.Value()
	s0 := metricBatchSize.Snapshot()

	if _, err := r.EvaluateBatch(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	if metricBatches.Value() != b0+1 {
		t.Errorf("batch counter delta = %d, want 1", metricBatches.Value()-b0)
	}
	s1 := metricBatchSize.Snapshot()
	if s1.Count != s0.Count+1 || s1.Sum != s0.Sum+uint64(len(items)) {
		t.Errorf("batch-size histogram: count %d→%d sum %d→%d", s0.Count, s1.Count, s0.Sum, s1.Sum)
	}
}

func TestEvalLatencySampled(t *testing.T) {
	r := fliesRelation(t)
	r.SetCache(false)
	h0 := metricEvalNS[modeIndex(OffPath)].Snapshot()
	// 4×(mask+1) uncached evaluations guarantee ≥4 samples whatever the
	// counter's starting phase.
	const n = 4 * (evalSampleMask + 1)
	for i := 0; i < n; i++ {
		if _, err := r.Evaluate(Item{"Tweety"}); err != nil {
			t.Fatal(err)
		}
	}
	h1 := metricEvalNS[modeIndex(OffPath)].Snapshot()
	if d := h1.Count - h0.Count; d < 4 || d > n {
		t.Errorf("sampled latency observations delta = %d, want within [4, %d]", d, n)
	}
}
