package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// allAtoms enumerates the atomic items of a relation's schema via the
// AtomicItems helper, failing the test on error.
func allAtoms(t *testing.T, r *Relation) []Item {
	t.Helper()
	atoms, err := r.AtomicItems()
	if err != nil {
		t.Fatal(err)
	}
	return atoms
}

// TestEvaluateBatchMatchesSequential: the batch evaluator agrees with
// per-item Evaluate on every atomic item, for every parallelism level.
func TestEvaluateBatchMatchesSequential(t *testing.T) {
	for _, build := range []func(*testing.T) *Relation{fliesRelation, colorRelation} {
		r := build(t)
		atoms := allAtoms(t, r)
		want := make([]Verdict, len(atoms))
		for i, it := range atoms {
			v, err := r.Evaluate(it)
			must(t, err)
			want[i] = v
		}
		for _, par := range []int{1, 2, 8} {
			got, err := r.EvaluateBatch(context.Background(), atoms, WithParallelism(par))
			must(t, err)
			for i := range atoms {
				if got[i].Value != want[i].Value || got[i].Default != want[i].Default || got[i].Exact != want[i].Exact {
					t.Errorf("%s p=%d: batch verdict for %v = %+v, want %+v",
						r.Name(), par, atoms[i], got[i], want[i])
				}
			}
		}
	}
}

// TestEvaluateBatchDeterministicError: with several failing items the batch
// always reports the lowest-index failure, at any parallelism.
func TestEvaluateBatchDeterministicError(t *testing.T) {
	r := fliesRelation(t)
	r.SetCache(false)
	items := []Item{{"Tweety"}, {"Paul"}, {"bogus1"}, {"Peter"}, {"bogus2"}, {"Tweety"}}
	for trial := 0; trial < 20; trial++ {
		_, err := r.EvaluateBatch(context.Background(), items, WithParallelism(8))
		if !errors.Is(err, ErrUnknownValue) {
			t.Fatalf("trial %d: err = %v, want ErrUnknownValue", trial, err)
		}
		// The lowest-index failure names bogus1, never bogus2.
		if got := err.Error(); !strings.Contains(got, "bogus1") {
			t.Fatalf("trial %d: err %q does not name the lowest-index failure", trial, got)
		}
	}
}

// TestEvaluateBatchCancellation: a cancelled context aborts the batch with
// the context's error.
func TestEvaluateBatchCancellation(t *testing.T) {
	r := fliesRelation(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.EvaluateBatch(ctx, allAtoms(t, r)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, _, err := r.EvaluateEach(ctx, allAtoms(t, r)); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateEach err = %v, want context.Canceled", err)
	}
}

// TestEvaluateEachCollectsConflicts: per-item errors are positional data,
// not batch failures.
func TestEvaluateEachCollectsConflicts(t *testing.T) {
	h := elephantHierarchy(t)
	s := MustSchema(Attribute{Name: "Animal", Domain: h})
	r := NewRelation("Likes", s)
	must(t, r.Assert("RoyalElephant"))
	must(t, r.Deny("IndianElephant"))
	// Appu is both royal and Indian: a conflict. Clyde is fine.
	items := []Item{{"Clyde"}, {"Appu"}}
	verdicts, errs, err := r.EvaluateEach(context.Background(), items)
	must(t, err)
	if errs[0] != nil || !verdicts[0].Value {
		t.Fatalf("Clyde: verdict %+v err %v, want true/nil", verdicts[0], errs[0])
	}
	var ce *ConflictError
	if !errors.As(errs[1], &ce) {
		t.Fatalf("Appu: err = %v, want *ConflictError", errs[1])
	}
}

// TestWithPreemptionOverride: the option must match SetMode's semantics
// without mutating the relation, and cached verdicts must not leak across
// modes.
func TestWithPreemptionOverride(t *testing.T) {
	r := colorRelation(t)
	atoms := allAtoms(t, r)
	for _, mode := range []Preemption{OffPath, OnPath} {
		byOption, optErrs, err := r.EvaluateEach(context.Background(), atoms, WithPreemption(mode))
		must(t, err)
		clone := r.Clone()
		clone.SetMode(mode)
		for i, it := range atoms {
			want, wantErr := clone.Evaluate(it)
			if (optErrs[i] == nil) != (wantErr == nil) {
				t.Fatalf("mode %v: %v err = %v, want %v", mode, it, optErrs[i], wantErr)
			}
			if wantErr == nil && byOption[i].Value != want.Value {
				t.Errorf("mode %v: %v = %v, want %v", mode, it, byOption[i].Value, want.Value)
			}
		}
	}
	if r.Mode() != OffPath {
		t.Fatalf("WithPreemption mutated the relation's mode to %v", r.Mode())
	}
}

// TestCacheInvalidation: after any mutation — tuple insert, retract, mode
// switch, or hierarchy growth — Evaluate never returns a stale verdict.
func TestCacheInvalidation(t *testing.T) {
	h := animalHierarchy(t)
	s := MustSchema(Attribute{Name: "Creature", Domain: h})
	r := NewRelation("Flies", s)
	must(t, r.Assert("Bird"))

	v, err := r.Evaluate(Item{"Paul"})
	must(t, err)
	if !v.Value {
		t.Fatal("Paul should fly while only Bird is asserted")
	}
	// Re-evaluate (a cache hit), then mutate and check freshness.
	v, err = r.Evaluate(Item{"Paul"})
	must(t, err)
	if !v.Value {
		t.Fatal("cached verdict flipped without mutation")
	}
	must(t, r.Deny("Penguin"))
	v, err = r.Evaluate(Item{"Paul"})
	must(t, err)
	if v.Value {
		t.Fatal("stale verdict after Deny: Paul must not fly")
	}
	// Retraction restores the old answer (no stale negative either).
	if !r.Retract(Item{"Penguin"}) {
		t.Fatal("retract failed")
	}
	v, err = r.Evaluate(Item{"Paul"})
	must(t, err)
	if !v.Value {
		t.Fatal("stale verdict after Retract")
	}

	// Hierarchy growth invalidates through the generation stamp: a new
	// penguin instance inherits the current tuples, and a later Deny is
	// seen immediately.
	must(t, r.Deny("Penguin"))
	must(t, h.AddInstance("Pablo", "Penguin"))
	v, err = r.Evaluate(Item{"Pablo"})
	must(t, err)
	if v.Value {
		t.Fatal("new instance evaluated stale")
	}

	// SetMode invalidates too: NoPreemption turns the Bird/Penguin overlap
	// into a conflict for penguins.
	r.SetMode(NoPreemption)
	if _, err := r.Evaluate(Item{"Paul"}); err == nil {
		t.Fatal("mode switch served a stale (conflict-free) verdict")
	}
}

// TestCacheStatsAndBounds: hits accumulate, and the table never keeps more
// than two generations' budget.
func TestCacheStatsAndBounds(t *testing.T) {
	r := fliesRelation(t)
	atoms := allAtoms(t, r)
	for i := 0; i < 3; i++ {
		for _, it := range atoms {
			if _, err := r.Evaluate(it); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hits, misses, _ := r.CacheStats(); hits[OffPath] == 0 || misses[OffPath] == 0 {
		t.Fatalf("stats hits=%d misses=%d, want both positive", hits[OffPath], misses[OffPath])
	}

	r.cache.budget = 32 * entryBytes
	for i := 0; i < 10_000; i++ {
		r.Answer(fmt.Sprintf("k%d", i), func() (string, error) { return "", nil })
	}
	if n := keptOf(r, Answers); n > 64 {
		t.Fatalf("the table keeps %d entries, at most 64 fit", n)
	}
}

// TestConflictErrorNotShared: cache hits must hand each caller its own
// ConflictError, since Conflicts() annotates Resolution in place.
func TestConflictErrorNotShared(t *testing.T) {
	h := elephantHierarchy(t)
	s := MustSchema(Attribute{Name: "Animal", Domain: h})
	r := NewRelation("Likes", s)
	must(t, r.Assert("RoyalElephant"))
	must(t, r.Deny("IndianElephant"))

	_, err1 := r.Evaluate(Item{"Appu"})
	_, err2 := r.Evaluate(Item{"Appu"}) // cache hit
	var ce1, ce2 *ConflictError
	if !errors.As(err1, &ce1) || !errors.As(err2, &ce2) {
		t.Fatalf("want conflicts, got %v / %v", err1, err2)
	}
	if ce1 == ce2 {
		t.Fatal("cache hit returned the same *ConflictError instance")
	}
	ce1.Resolution = []Item{{"Appu"}}
	if len(ce2.Resolution) != 0 {
		t.Fatal("mutating one conflict's Resolution leaked into the other")
	}
}

// propertySeeds is the number of seeds of TestCachePropertyEquivalence:
// CHAOS_ROUNDS when set (the nightly soak), 8 by default.
func propertySeeds(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_ROUNDS %q", s)
		}
		return int64(n)
	}
	return 8
}

// TestCachePropertyEquivalence: across randomized mutate/query
// interleavings, a cached relation and an uncached twin receiving the same
// operations always agree — verdicts and errors alike.
func TestCachePropertyEquivalence(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds(t); seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomHierarchy(rng, "D", 20)
		s := MustSchema(Attribute{Name: "X", Domain: h})
		cached := NewRelation("R", s)
		plain := NewRelation("R", s)
		plain.SetCache(false)
		nodes := h.Nodes()
		pick := func() Item { return Item{nodes[rng.Intn(len(nodes))]} }

		for step := 0; step < 400; step++ {
			switch rng.Intn(6) {
			case 0: // insert
				it, sign := pick(), rng.Intn(2) == 0
				e1 := cached.Insert(it, sign)
				e2 := plain.Insert(it, sign)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("seed %d step %d: insert divergence %v vs %v", seed, step, e1, e2)
				}
			case 1: // retract
				it := pick()
				if cached.Retract(it) != plain.Retract(it) {
					t.Fatalf("seed %d step %d: retract divergence", seed, step)
				}
			case 2: // mode flip
				mode := []Preemption{OffPath, OnPath, NoPreemption}[rng.Intn(3)]
				cached.SetMode(mode)
				plain.SetMode(mode)
			default: // query
				it := pick()
				v1, e1 := cached.Evaluate(it)
				v2, e2 := plain.Evaluate(it)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("seed %d step %d: Evaluate(%v) err divergence: %v vs %v",
						seed, step, it, e1, e2)
				}
				if e1 != nil {
					if e1.Error() != e2.Error() {
						t.Fatalf("seed %d step %d: error text divergence: %v vs %v",
							seed, step, e1, e2)
					}
					continue
				}
				if v1.Value != v2.Value || v1.Default != v2.Default || v1.Exact != v2.Exact {
					t.Fatalf("seed %d step %d: Evaluate(%v) = %+v cached vs %+v plain",
						seed, step, it, v1, v2)
				}
			}
		}
		if hits, _, _ := cached.CacheStats(); hits == [numKinds]uint64{} {
			t.Fatalf("seed %d: property run never hit the cache", seed)
		}
	}
}

// extensionByEvaluation computes the extension by bulk-evaluating every
// atomic item of the schema through EvaluateBatch instead of by the paper's
// explication rewrite: the reference the explication kernel is held to.
func extensionByEvaluation(ctx context.Context, r *Relation, opts ...BatchOption) ([]Item, error) {
	atoms, err := r.AtomicItems()
	if err != nil {
		return nil, err
	}
	verdicts, err := r.EvaluateBatch(ctx, atoms, opts...)
	if err != nil {
		return nil, err
	}
	var out []Item
	for i, v := range verdicts {
		if v.Value {
			out = append(out, atoms[i])
		}
	}
	return out, nil
}

// TestExtensionByEvaluationMatchesExplicate: the parallel evaluation path
// and the paper's explication rewrite compute the same extension.
func TestExtensionByEvaluationMatchesExplicate(t *testing.T) {
	for _, build := range []func(*testing.T) *Relation{fliesRelation, colorRelation, respectsRelation} {
		r := build(t)
		byExplicate, err := r.Extension()
		must(t, err)
		byEval, err := extensionByEvaluation(context.Background(), r)
		must(t, err)
		if len(byExplicate) != len(byEval) {
			t.Fatalf("%s: explicate %d items, evaluation %d", r.Name(), len(byExplicate), len(byEval))
		}
		for i := range byExplicate {
			if !byExplicate[i].Equal(byEval[i]) {
				t.Fatalf("%s: item %d: %v vs %v", r.Name(), i, byExplicate[i], byEval[i])
			}
		}
	}
}

// TestParallelEvaluateStress hammers one relation with concurrent cached
// evaluations; run under -race this proves the read path (including the
// verdict cache and the lazily built hierarchy memos) is thread-safe.
func TestParallelEvaluateStress(t *testing.T) {
	r := colorRelation(t)
	atoms := allAtoms(t, r)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				it := atoms[rng.Intn(len(atoms))]
				if _, err := r.Evaluate(it); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEvaluateBatchEmptyItems: the zero-item paths follow the same contract
// as n > 0 — a cancelled context yields (nil, err); otherwise a non-nil
// empty slice and no error, never both.
func TestEvaluateBatchEmptyItems(t *testing.T) {
	r := fliesRelation(t)

	vs, err := r.EvaluateBatch(context.Background(), nil)
	must(t, err)
	if vs == nil || len(vs) != 0 {
		t.Fatalf("EvaluateBatch(nil items) = %v, want empty non-nil slice", vs)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	vs, err = r.EvaluateBatch(cancelled, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if vs != nil {
		t.Fatalf("cancelled empty batch returned verdicts %v alongside error", vs)
	}

	evs, errs, err := r.EvaluateEach(context.Background(), nil)
	must(t, err)
	if evs == nil || errs == nil {
		t.Fatal("EvaluateEach(nil items) must return non-nil slices")
	}
	evs, errs, err = r.EvaluateEach(cancelled, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evs != nil || errs != nil {
		t.Fatal("cancelled empty EvaluateEach returned slices alongside error")
	}
}
