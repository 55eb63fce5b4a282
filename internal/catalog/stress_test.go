package catalog

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hrdb/internal/core"
)

// setupFlock builds a database with one Bird class and n instances, plus a
// Flies relation asserting Bird.
func setupFlock(t *testing.T, n int) (*Database, []string) {
	t.Helper()
	db := New()
	h, err := db.CreateHierarchy("Animal")
	must(t, err)
	must(t, h.AddClass("Bird"))
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("b%02d", i)
		must(t, h.AddInstance(names[i], "Bird"))
	}
	_, err = db.CreateRelation("Flies", AttrSpec{Name: "Creature", Domain: "Animal"})
	must(t, err)
	must(t, db.Assert("Flies", "Bird"))
	return db, names
}

// TestStressParallelHoldsAssert runs writers (Deny/Retract on their own
// instance) against readers (Holds on random instances) over one relation.
// Under -race this proves the database's locking plus the relation's
// internal verdict cache and hierarchy memos are safe under a read/write
// mix. Answers are also checked for staleness: a reader must never observe
// a verdict contradicting the tuple set at observation time — b's own
// writer is the only mutator, so after its final Retract the flock answer
// must return to true.
func TestStressParallelHoldsAssert(t *testing.T) {
	db, names := setupFlock(t, 8)
	const rounds = 50
	var wg sync.WaitGroup

	// Writers: each toggles a deny tuple on its own instance.
	for _, name := range names[:4] {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := db.Deny("Flies", name); err != nil {
					t.Errorf("deny %s: %v", name, err)
					return
				}
				if _, err := db.Retract("Flies", name); err != nil {
					t.Errorf("retract %s: %v", name, err)
					return
				}
			}
		}(name)
	}

	// Readers: random point queries across the flock.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds*4; i++ {
				name := names[rng.Intn(len(names))]
				if _, err := db.Holds("Flies", name); err != nil {
					t.Errorf("holds %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiesced: every toggle ended with a retract, so the whole flock flies.
	for _, name := range names {
		v, err := db.Holds("Flies", name)
		must(t, err)
		if !v {
			t.Fatalf("stale verdict after stress: %s should fly", name)
		}
	}
}

// TestStressParallelBatchReaders drives concurrent HoldsBatch readers, each
// holding the database read lock (Database.Read) for its whole batch,
// alongside snapshot readers.
func TestStressParallelBatchReaders(t *testing.T) {
	db, names := setupFlock(t, 16)
	must(t, db.Deny("Flies", names[3]))
	items := make([]core.Item, len(names))
	for i, n := range names {
		items[i] = core.Item{n}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var vals []bool
				err := db.Read("Flies", func(r *core.Relation) (err error) {
					vals, err = r.HoldsBatch(context.Background(), items)
					return err
				})
				if err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				for j, v := range vals {
					want := j != 3
					if v != want {
						t.Errorf("batch verdict %s = %v, want %v", names[j], v, want)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := db.Snapshot("Flies"); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
