package core

import (
	"context"
	"errors"
	"fmt"
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
	if _, _, kept := r.AnswerStats(); kept != 1 {
		t.Fatalf("%d answers kept, want 1", kept)
	}
	r.SetMode(OffPath)
	if _, _, kept := r.AnswerStats(); kept != 0 {
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
	if _, _, kept := r.AnswerStats(); kept != 0 {
		t.Fatalf("a failed derive left %d answers", kept)
	}
	if got, derived := answerOf(t, r, "k", "whole"); !derived || got != "whole" {
		t.Fatalf("after a failed derive: derived %v, answered %q", derived, got)
	}
}

// TestAnswerBudget: an answer larger than the budget is served and not
// kept; many answers keep at most two generations' worth of bytes.
func TestAnswerBudget(t *testing.T) {
	r := fliesRelation(t)
	big := strings.Repeat("x", answerBudget+1)
	for i := 0; i < 2; i++ {
		if got, derived := answerOf(t, r, "big", big); !derived || got != big {
			t.Fatalf("read %d of the oversized answer: derived %v, %d bytes", i, derived, len(got))
		}
	}
	if _, _, kept := r.AnswerStats(); kept != 0 {
		t.Fatalf("the oversized answer was kept (%d answers)", kept)
	}
	const size = 64 << 10
	for i := 0; i < 40; i++ {
		answerOf(t, r, fmt.Sprint(i), strings.Repeat("y", size))
	}
	if _, _, kept := r.AnswerStats(); kept == 0 || kept > 2*answerBudget/size {
		t.Fatalf("%d answers of %d bytes kept, want 1 to %d", kept, size, 2*answerBudget/size)
	}
	if _, derived := answerOf(t, r, "39", ""); derived {
		t.Fatal("the newest answer was rotated out")
	}
	if _, derived := answerOf(t, r, "0", ""); !derived {
		t.Fatal("the oldest answer outlived two generations")
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
