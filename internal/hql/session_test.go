package hql

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hrdb/internal/catalog"
)

// slowTarget wraps a MemTarget and parks a bare assert on a gate so a
// statement can be held mid-execution from a test. Entering it is
// announced on entered, making "the session is busy right now" a
// deterministic observation instead of a spin.
type slowTarget struct {
	Target
	entered chan struct{}
	gate    chan struct{}
}

func (t slowTarget) ApplyTx(ops []TxOp) error {
	if len(ops) == 1 && ops[0].Bare && ops[0].Kind == catalog.KindAssert {
		t.entered <- struct{}{}
		<-t.gate
	}
	return t.Target.ApplyTx(ops)
}

func sessionFixture(t *testing.T) *catalog.Database {
	t.Helper()
	db := catalog.New()
	sess := NewSession(MemTarget{DB: db})
	if _, err := sess.Exec(`
		CREATE HIERARCHY Animal;
		CLASS Bird IN Animal;
		INSTANCE Tweety UNDER Bird;
		CREATE RELATION Flies (Creature: Animal);
	`); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return db
}

// TestSessionConcurrentMisuse pins the single-goroutine guard: a second
// ExecContext entered while a statement is executing fails loudly with
// ErrSessionBusy instead of interleaving with (and corrupting) the first.
func TestSessionConcurrentMisuse(t *testing.T) {
	db := sessionFixture(t)
	entered := make(chan struct{})
	gate := make(chan struct{})
	sess := NewSession(slowTarget{Target: MemTarget{DB: db}, entered: entered, gate: gate})

	firstErr := make(chan error, 1)
	go func() {
		_, err := sess.Exec("ASSERT Flies (Bird);")
		firstErr <- err
	}()
	<-entered // the first statement is parked inside Assert, busy held
	if _, err := sess.Exec("HOLDS Flies (Tweety);"); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("concurrent Exec = %v, want ErrSessionBusy", err)
	}
	close(gate)
	if err := <-firstErr; err != nil {
		t.Fatalf("first statement: %v", err)
	}
	// Guard released: the session works again.
	out, err := sess.Exec("HOLDS Flies (Tweety);")
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	if strings.TrimSpace(out) != "true" {
		t.Fatalf("HOLDS = %q, want true", out)
	}
}

// TestSessionConcurrentMisuseRace hammers one session from many goroutines
// under the race detector: every call either succeeds or returns
// ErrSessionBusy, and transaction state survives intact.
func TestSessionConcurrentMisuseRace(t *testing.T) {
	db := sessionFixture(t)
	sess := NewSession(MemTarget{DB: db})
	var wg sync.WaitGroup
	var busy, ok atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := sess.Exec("HOLDS Flies (Tweety);")
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrSessionBusy):
					busy.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no call succeeded")
	}
	if sess.InTx() {
		t.Fatal("stray transaction state after concurrent misuse")
	}
}

// TestSessionBusyDoesNotClobberTx: a rejected concurrent call must not
// disturb an open transaction.
func TestSessionBusyDoesNotClobberTx(t *testing.T) {
	db := sessionFixture(t)
	entered := make(chan struct{})
	gate := make(chan struct{})
	sess := NewSession(slowTarget{Target: MemTarget{DB: db}, entered: entered, gate: gate})
	if _, err := sess.Exec("BEGIN; ASSERT Flies (Bird);"); err != nil {
		t.Fatalf("begin: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		// slowTarget only parks a bare assert; COMMIT's ops are a transaction,
		// so the script commits the transaction, then parks on the direct
		// assert that follows it.
		_, err := sess.ExecContext(context.Background(), "COMMIT; ASSERT Flies (Tweety);")
		done <- err
	}()
	<-entered // COMMIT done, the direct assert is parked, busy held
	if _, err := sess.Exec("SHOW RELATIONS;"); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("concurrent Exec = %v, want ErrSessionBusy", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("commit script: %v", err)
	}
	v, err := db.Holds("Flies", "Tweety")
	if err != nil || !v {
		t.Fatalf("Holds(Tweety) = %v, %v; want true", v, err)
	}
}

// TestReadOnlyClassification is the table the network client's retry policy
// relies on: only statements classified read-only may be auto-retried.
func TestReadOnlyClassification(t *testing.T) {
	cases := []struct {
		input string
		want  bool
	}{
		{"HOLDS Flies (Tweety);", true},
		{"WHY Flies (Tweety);", true},
		{"EXTENSION Flies;", true},
		{"COUNT Flies;", true},
		{"DUMP;", true},
		{"SHOW RELATIONS;", true},
		{"SHOW HIERARCHY Animal;", true},
		{"INFER flies(?X);", true},
		{"SELECT FROM Flies WHERE Creature UNDER Bird;", true},
		{"HOLDS Flies (Tweety); SHOW RELATIONS;", true},

		{"SELECT FROM Flies WHERE Creature UNDER Bird AS F2;", false},
		{"ASSERT Flies (Bird);", false},
		{"DENY Flies (Penguin);", false},
		{"RETRACT Flies (Bird);", false},
		{"CREATE HIERARCHY X;", false},
		{"CREATE RELATION R (A: Animal);", false},
		{"DROP RELATION Flies;", false},
		{"CONSOLIDATE Flies;", false},
		{"EXPLICATE Flies;", false},
		{"UNION A B AS C;", false},
		{"JOIN A B AS C;", false},
		{"PROJECT Flies ON (Creature) AS P;", false},
		{"RULE f(?X) IF g(?X);", false},
		{"SET POLICY warn;", false},
		{"SET MODE Flies on_path;", false},
		{"BEGIN;", false},
		{"COMMIT;", false},
		{"ROLLBACK;", false},
		{"DROP NODE Tweety IN Animal;", false},
		{"HOLDS Flies (Tweety); ASSERT Flies (Bird);", false},
		{"not hql at all", false},
		{"", false},
	}
	for _, c := range cases {
		if got := ReadOnlyScript(c.input); got != c.want {
			t.Errorf("ReadOnlyScript(%q) = %v, want %v", c.input, got, c.want)
		}
	}
}

// Target is Database plus the one mutation method.
func TestTargetIsDatabaseAndApplyTx(t *testing.T) {
	typ := reflect.TypeOf((*Target)(nil)).Elem()
	if typ.NumMethod() != 2 || typ.Method(0).Name != "ApplyTx" || typ.Method(1).Name != "Database" {
		t.Fatalf("Target has %d methods, want exactly ApplyTx and Database", typ.NumMethod())
	}
}
