package catalog

import (
	"context"
	"errors"
	"testing"

	"hrdb/internal/core"
)

// TestDatabaseEvaluateBatch: a bulk read through Database.Read agrees with
// per-item Evaluate, and Read rejects unknown relations.
func TestDatabaseEvaluateBatch(t *testing.T) {
	db, names := setupFlock(t, 8)
	must(t, db.Deny("Flies", names[3]))
	items := make([]core.Item, len(names))
	for i, n := range names {
		items[i] = core.Item{n}
	}
	var vs []core.Verdict
	var holds []bool
	must(t, db.Read("Flies", func(r *core.Relation) (err error) {
		if vs, err = r.EvaluateBatch(context.Background(), items); err != nil {
			return err
		}
		holds, err = r.HoldsBatch(context.Background(), items)
		return err
	}))
	for i, it := range items {
		want, err := db.Evaluate("Flies", it...)
		must(t, err)
		if vs[i].Value != want.Value || holds[i] != want.Value {
			t.Fatalf("item %v: batch %v/%v, evaluate %v", it, vs[i].Value, holds[i], want.Value)
		}
	}
	if !holds[0] || holds[3] {
		t.Fatalf("verdicts %v: want flock true, denied instance false", holds)
	}
	if err := db.Read("NoSuch", func(*core.Relation) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown relation = %v, want ErrNotFound", err)
	}
}
