package hql

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/storage"
)

// TestInPlaceReadsUnderConcurrentWrites runs single-relation reads on the
// live relation of a durable store while a writer toggles one tuple under
// the selected class. Every answer must be the answer of one of the two
// states, and the run must end: an `… AS` attached inside the read lock, or
// a nested read lock behind the queued writer, would hang it.
func TestInPlaceReadsUnderConcurrentWrites(t *testing.T) {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT FROM R WHERE K UNDER c;",
		"SELECT FROM R WHERE K UNDER c AS S;",
		"EXTENSION R;",
		"COUNT R BY (K);",
	}
	// answer runs query q, naming an `… AS` result S<id>; its table is
	// compared without the first line, the result's name.
	answer := func(sess *Session, q, id string) string {
		if strings.Contains(q, " AS S;") {
			q = strings.Replace(q, " AS S;", " AS S"+id+";", 1)
		}
		out, err := sess.Exec(q)
		if err != nil {
			t.Error(err)
		}
		if strings.Contains(q, " AS ") {
			_, out, _ = strings.Cut(out, "\n")
		}
		return out
	}
	toggles := []string{"DENY R (x2);", "RETRACT R (x2);"}

	done := make(chan struct{})
	go func() {
		defer close(done)
		setup := NewSession(store)
		if _, err := setup.Exec(`
			CREATE HIERARCHY A;
			CLASS c IN A; CLASS d IN A;
			INSTANCE x1 UNDER c; INSTANCE x2 UNDER c; INSTANCE x3 UNDER c;
			INSTANCE y UNDER d;
			CREATE RELATION R (K: A);
			ASSERT R (c); ASSERT R (y); DENY R (x1);
		`); err != nil {
			t.Error(err)
			return
		}
		// answers[q][s] is query q's answer in state s (after toggles[s]).
		answers := make([][2]string, len(queries))
		for s, toggle := range toggles {
			if _, err := setup.Exec(toggle); err != nil {
				t.Error(err)
				return
			}
			for i, q := range queries {
				answers[i][s] = answer(setup, q, fmt.Sprint("init", s))
			}
		}
		if answers[0][0] == answers[0][1] {
			t.Errorf("the toggle does not change the selection: %q", answers[0][0])
			return
		}

		stop := make(chan struct{})
		var writer, readers sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			w := NewSession(store)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Exec(toggles[n%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for g := 0; g < 4; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				sess := NewSession(store)
				for n := 0; n < 40; n++ {
					i := (g + n) % len(queries)
					got := answer(sess, queries[i], fmt.Sprintf("%d_%d", g, n))
					if got != answers[i][0] && got != answers[i][1] {
						t.Errorf("%s answered %q, want %q or %q", queries[i], got, answers[i][0], answers[i][1])
						return
					}
				}
			}()
		}
		readers.Wait()
		close(stop)
		writer.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// The store stays open: Close would wait on the same lock.
		t.Fatal("reads and writes did not finish: deadlock")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSelectsRenewStaleStamp: SELECTs that race on a relation a
// hierarchy statement has just left unverified each find the stamp stale,
// renew it under the shared read lock, and answer what a lone SELECT does.
func TestConcurrentSelectsRenewStaleStamp(t *testing.T) {
	db := catalog.New()
	setup := NewSession(MemTarget{DB: db})
	if _, err := setup.Exec(`
		CREATE HIERARCHY A;
		CLASS c IN A; CLASS d IN A; CLASS e UNDER c, d IN A;
		INSTANCE x1 UNDER c; INSTANCE x2 UNDER e; INSTANCE y UNDER d;
		CREATE RELATION R (K: A);
		ASSERT R (c); DENY R (e); ASSERT R (x2); ASSERT R (y);
	`); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT FROM R WHERE K UNDER c;"
	want, err := setup.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		if _, err := setup.Exec(fmt.Sprintf("INSTANCE z%d UNDER d IN A;", round)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := NewSession(MemTarget{DB: db}).Exec(q); err != nil || got != want {
					t.Errorf("round %d: %q, %v; want %q", round, got, err, want)
				}
			}()
		}
		wg.Wait()
	}
}
