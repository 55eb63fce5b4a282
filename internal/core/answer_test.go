package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// answerOf calls r.Answer and reports whether derive ran.
func answerOf(t *testing.T, r *Relation, key, v string) (got string, derived bool) {
	t.Helper()
	got, err := r.Answer(key, func() (string, error) { derived = true; return v, nil })
	must(t, err)
	return got, derived
}

// TestAnswerKeptPerState: an answer is served until the state changes —
// a write, a mode switch or a hierarchy edit — and a write or a mode
// switch empties the table.
func TestAnswerKeptPerState(t *testing.T) {
	r := fliesRelation(t)
	if _, derived := answerOf(t, r, "k", "a"); !derived {
		t.Fatal("the first read did not derive")
	}
	if got, derived := answerOf(t, r, "k", "b"); derived || got != "a" {
		t.Fatalf("the repeat read derived (%v) or answered %q, want the kept %q", derived, got, "a")
	}
	h := r.Schema().Attr(0).Domain
	for _, change := range []func(){
		func() { must(t, h.AddInstance("Polly", "Bird")) },
		func() { r.SetMode(OnPath) },
		func() { must(t, r.Deny("Tweety")) },
		func() { r.Retract(Item{"Tweety"}) },
	} {
		answerOf(t, r, "k", "before")
		change()
		if got, derived := answerOf(t, r, "k", "after"); !derived || got != "after" {
			t.Fatalf("after a state change: derived %v, answered %q", derived, got)
		}
	}
	if kept := keptOf(r, Answers); kept != 1 {
		t.Fatalf("%d answers kept, want 1", kept)
	}
	r.SetMode(OffPath)
	if kept := keptOf(r, Answers); kept != 0 {
		t.Fatalf("SetMode left %d answers", kept)
	}
}

// TestAnswerKeepsNoError: a derive that fails — canceled, say — is returned
// and not kept, and the next read derives.
func TestAnswerKeepsNoError(t *testing.T) {
	r := fliesRelation(t)
	if _, err := r.Answer("k", func() (string, error) { return "partial", context.Canceled }); !errors.Is(err, context.Canceled) {
		t.Fatalf("the derive's error was not returned: %v", err)
	}
	if kept := keptOf(r, Answers); kept != 0 {
		t.Fatalf("a failed derive left %d answers", kept)
	}
	if got, derived := answerOf(t, r, "k", "whole"); !derived || got != "whole" {
		t.Fatalf("after a failed derive: derived %v, answered %q", derived, got)
	}
}

// keptOf returns how many entries of a kind r's table keeps.
func keptOf(r *Relation, kind int) int {
	_, _, kept := r.CacheStats()
	return kept[kind]
}

// tinyBudget holds a few entries per generation.
const tinyBudget = 4 * entryBytes

// tinyRelation returns the flies relation with its table cut to tinyBudget.
func tinyRelation(t *testing.T) *Relation {
	r := fliesRelation(t)
	r.cache.budget = tinyBudget
	return r
}

// TestTableMixesVerdictsAndAnswers: verdicts and answers share one table,
// here of a few entries per generation. An answer and a verdict under
// byte-equal keys are never served for each other; Evaluate and Answer
// interleaved across rotations and writes match a cache-off twin; and an
// answer read once per generation survives a flood of verdicts.
func TestTableMixesVerdictsAndAnswers(t *testing.T) {
	off := fliesRelation(t)
	off.SetCache(false)

	r := tinyRelation(t)
	r.Evaluate(Item{"Tweety"})
	if got, derived := answerOf(t, r, "Tweety", "an answer"); !derived || got != "an answer" {
		t.Fatalf("the answer under a verdict's key: derived %v, answered %q", derived, got)
	}
	answerOf(t, r, "Pamela", "an answer")
	for _, who := range []string{"Tweety", "Pamela"} {
		v, err := r.Evaluate(Item{who})
		wv, werr := off.Evaluate(Item{who})
		sameResult(t, "the verdict under an answer's key", v, wv, err, werr)
	}

	on, rng, evictions := tinyRelation(t), rand.New(rand.NewSource(41)), metricCacheEvictions.Value()
	off = fliesRelation(t)
	off.SetCache(false)
	nodes := on.Schema().Attr(0).Domain.Nodes()
	for step := 0; step < 2000; step++ {
		n := nodes[rng.Intn(len(nodes))]
		switch op := rng.Intn(16); {
		case op == 0:
			sign := rng.Intn(2) == 0
			if e1, e2 := on.Insert(Item{n}, sign), off.Insert(Item{n}, sign); fmt.Sprint(e1) != fmt.Sprint(e2) {
				t.Fatalf("step %d: insert %s: %v, cache off %v", step, n, e1, e2)
			}
		case op == 1:
			on.Retract(Item{n})
			off.Retract(Item{n})
		case op < 6:
			derive := func(r *Relation) func() (string, error) {
				return func() (string, error) { return n + r.Table(), nil }
			}
			got, err := on.Answer(n, derive(on))
			want, _ := off.Answer(n, derive(off))
			if got != want || err != nil {
				t.Fatalf("step %d: answer %s: %q (%v), cache off %q", step, n, got, err, want)
			}
		default:
			mode := Preemption(rng.Intn(3))
			v1, e1 := on.EvaluateMode(Item{n}, mode)
			v2, e2 := off.EvaluateMode(Item{n}, mode)
			sameResult(t, fmt.Sprintf("step %d: %s under %v", step, n, mode), v1, v2, e1, e2)
		}
	}
	if hits, _, _ := on.CacheStats(); hits[OffPath] == 0 || hits[Answers] == 0 || metricCacheEvictions.Value() == evictions {
		t.Fatalf("the interleaving hit %v and rotated %d entries out: want hits of both kinds and rotations",
			hits, metricCacheEvictions.Value()-evictions)
	}

	r, evictions = tinyRelation(t), metricCacheEvictions.Value()
	answerOf(t, r, "hot", "kept")
	for _, n := range nodes {
		for _, mode := range []Preemption{OffPath, OnPath, NoPreemption} {
			r.EvaluateMode(Item{n}, mode)
			if _, derived := answerOf(t, r, "hot", "derived"); derived {
				t.Fatalf("the answer read after every verdict was rotated out at %s under %v", n, mode)
			}
		}
	}
	if metricCacheEvictions.Value() == evictions {
		t.Fatal("the flood of verdicts never rotated the table")
	}
}

// halfAnswer reads answer i of r, which costs half of tinyBudget, and
// reports whether it was derived.
func halfAnswer(t *testing.T, r *Relation, i int) (derived bool) {
	k := fmt.Sprintf("k%02d", i)
	_, derived = answerOf(t, r, k, strings.Repeat("y", tinyBudget/2-entryBytes-len(k)))
	return derived
}

// TestAnswerBudget: an answer larger than the budget is served and not
// kept; many answers keep at most two generations' worth of bytes.
func TestAnswerBudget(t *testing.T) {
	r := tinyRelation(t)
	big := strings.Repeat("x", tinyBudget)
	for i := 0; i < 2; i++ {
		if got, derived := answerOf(t, r, "big", big); !derived || got != big {
			t.Fatalf("read %d of the oversized answer: derived %v, %d bytes", i, derived, len(got))
		}
	}
	if n := keptOf(r, Answers); n != 0 {
		t.Fatalf("the oversized answer was kept (%d answers)", n)
	}
	for i := 0; i < 9; i++ {
		halfAnswer(t, r, i)
	}
	if n := keptOf(r, Answers); n != 3 { // previous {k06, k07}, current {k08}
		t.Fatalf("%d answers kept, want 3", n)
	}
	if halfAnswer(t, r, 8) {
		t.Fatal("the newest answer was rotated out")
	}
	if !halfAnswer(t, r, 5) {
		t.Fatal("an answer outlived two generations")
	}
}

// TestCacheSizeCountsDistinctKeys: an entry promoted from the previous
// generation is resident in both; the kept count must count it once.
func TestCacheSizeCountsDistinctKeys(t *testing.T) {
	r := tinyRelation(t)
	for i := 0; i < 9; i++ {
		halfAnswer(t, r, i)
	}
	if halfAnswer(t, r, 6) {
		t.Fatal("an answer of the previous generation was not served")
	}
	if n := keptOf(r, Answers); n != 3 { // k06 is in both generations now
		t.Fatalf("%d answers kept after a promotion, want 3", n)
	}
}

// TestConflictErrorAlikeWithCacheOff: a consistency sweep annotates the
// conflicts it reports with their resolution, but not the verdict it kept,
// so a later read fails with the cache on as with it off.
func TestConflictErrorAlikeWithCacheOff(t *testing.T) {
	var errs []string
	for _, cache := range []bool{true, false} {
		r := fliesRelation(t)
		r.SetCache(cache)
		must(t, r.Deny("GalapagosPenguin")) // Patricia: +AFP vs −GP
		if r.CheckConsistency() == nil {
			t.Fatal("want a conflict at Patricia")
		}
		_, err := r.Evaluate(Item{"Patricia"})
		errs = append(errs, fmt.Sprint(err))
	}
	if errs[0] != errs[1] {
		t.Fatalf("cache on: %s\ncache off: %s", errs[0], errs[1])
	}
}
