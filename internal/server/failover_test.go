package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hrdb/internal/hql"
	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// Server-side failover machinery tested with stubs: the Shutdown drain gate
// on replication verbs, and the Router's primary re-discovery. The
// full-stack versions (real stores, real elections) live in internal/repl.

// TestShutdownRefusesNewReplicationWork pins the drain gate: once Shutdown
// has begun, SNAP and REPL on already-open connections are answered with a
// retryable shutdown error instead of being admitted — a bootstrap started
// during the drain would race the store's close. The drain itself still
// completes cleanly (no goroutine wedged on the refused work).
func TestShutdownRefusesNewReplicationWork(t *testing.T) {
	gate := &gateTarget{Target: newMemTarget(t), gate: make(chan struct{})}
	srv := New(gate, Options{Repl: &stubRepl{snapshot: []byte("boot")}})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}

	// Park one mutation in flight so the drain has something to wait for
	// (Shutdown must not return before we've probed the gate).
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	execDone := make(chan error, 1)
	go func() {
		_, err := cli.Exec(context.Background(), "ASSERT Flies (Tweety);")
		execDone <- err
	}()
	waitFor(t, func() bool { return gate.waiting.Load() == 1 }, "statement never parked")

	// Connections whose HELLO completed before Shutdown: a connection still
	// in the listen backlog when the listener closes would be reset, not
	// served.
	snapConn := rawHello(t, srv.Addr())
	replConn := rawHello(t, srv.Addr())

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	waitFor(t, srv.drainingNow, "Shutdown never marked the server draining")

	snapConn.send(wire.Frame{Type: wire.TypeSnap, ID: 1})
	if code, _ := snapConn.recvErr(1); code != codeShutdown {
		t.Fatalf("SNAP during drain = ERR %s, want %s", code, codeShutdown)
	}
	replConn.send(replFrame(1, wire.StreamPos{Term: 1}))
	if code, _ := replConn.recvErr(1); code != codeShutdown {
		t.Fatalf("REPL during drain = ERR %s, want %s", code, codeShutdown)
	}

	// Release the parked statement: the drain finishes and the in-flight
	// write is answered, not abandoned.
	close(gate.gate)
	if err := <-execDone; err != nil {
		t.Fatalf("in-flight statement during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// deposedTarget answers every mutation with storage.ErrDeposed — a store
// fenced by a newer primary term.
type deposedTarget struct{ hql.Target }

func (d deposedTarget) Apply([]hql.TxOp) ([]string, error) { return nil, storage.ErrDeposed }

// TestRouterFailsOverOnStale: a write answered with the "stale" code makes
// the router probe its replicas for whoever reports itself promoted, adopt
// it as the new primary, and retry the write there — transparently to the
// caller. The deposed node stays in the pool as a replica.
func TestRouterFailsOverOnStale(t *testing.T) {
	old := startServer(t, deposedTarget{newMemTarget(t)}, Options{})
	promoted := startServer(t, newMemTarget(t), Options{
		LagProbe: lagConst(LagInfo{Staleness: 0, State: "promoted", Term: 3, ID: "r1"}),
	})

	router := dialRouterT(t, old, promoted)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	before := metricRouterFailovers.Value()
	if _, err := router.Exec(ctx, "ASSERT Flies (Tweety);"); err != nil {
		t.Fatalf("write during failover: %v", err)
	}
	if router.PrimaryAddr() != promoted.Addr() {
		t.Fatalf("router primary = %q, want the promoted node %q", router.PrimaryAddr(), promoted.Addr())
	}
	if got := metricRouterFailovers.Value(); got != before+1 {
		t.Fatalf("failover metric delta = %d, want 1", got-before)
	}

	// Subsequent writes go straight to the new primary (no second hop, no
	// stale error), and the write actually landed there.
	if _, err := router.Exec(ctx, "ASSERT Flies (Paul);"); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if got := metricRouterFailovers.Value(); got != before+1 {
		t.Fatalf("second write re-failed-over (metric %d)", got-before)
	}
	out, err := router.Exec(ctx, "HOLDS Flies (Tweety);")
	if err != nil || strings.TrimSpace(out) != "true" {
		t.Fatalf("read after failover = %q, %v", out, err)
	}
}

// TestRouterConcurrentFailoverRediscovery: many writers hit the deposed
// primary at once, so the stale answers race into discoverPrimary from
// several goroutines concurrently. Every writer must come out the other
// side successfully (re-routed and retried, never a surfaced stale error),
// the router must settle on the one promoted peer, and once settled no
// further Exec may flap the primary again.
func TestRouterConcurrentFailoverRediscovery(t *testing.T) {
	old := startServer(t, deposedTarget{newMemTarget(t)}, Options{})
	promoted := startServer(t, newMemTarget(t), Options{
		LagProbe: lagConst(LagInfo{Staleness: 0, State: "promoted", Term: 3, ID: "r1"}),
	})
	router := dialRouterT(t, old, promoted)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const writers = 8
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := router.Exec(ctx, "ASSERT Flies (Tweety);"); err != nil {
					errs[w] = fmt.Errorf("iteration %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if router.PrimaryAddr() != promoted.Addr() {
		t.Fatalf("router primary = %q, want the promoted node %q", router.PrimaryAddr(), promoted.Addr())
	}

	// Settled: a fresh write goes straight through without another failover.
	before := metricRouterFailovers.Value()
	if _, err := router.Exec(ctx, "ASSERT Flies (Paul);"); err != nil {
		t.Fatalf("write after concurrent failover: %v", err)
	}
	if got := metricRouterFailovers.Value(); got != before {
		t.Fatalf("settled router failed over again (metric delta %d)", got-before)
	}
	out, err := router.Exec(ctx, "HOLDS Flies (Tweety);")
	if err != nil || strings.TrimSpace(out) != "true" {
		t.Fatalf("read after concurrent failover = %q, %v", out, err)
	}
}

// TestRouterStaleWithNoPromotedPeerSurfaces: when no replica claims
// promotion the router cannot re-route; the stale error reaches the caller
// (who retries later) instead of being swallowed or looping.
func TestRouterStaleWithNoPromotedPeerSurfaces(t *testing.T) {
	old := startServer(t, deposedTarget{newMemTarget(t)}, Options{})
	replica := startServer(t, newMemTarget(t), Options{
		LagProbe: lagConst(LagInfo{Staleness: 0, State: "streaming"}),
	})
	router := dialRouterT(t, old, replica)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := router.Exec(ctx, "ASSERT Flies (Tweety);"); !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("write with no promoted peer = %v, want ErrStaleReplica", err)
	}
	if router.PrimaryAddr() != old.Addr() {
		t.Fatal("router swapped primary without a promoted peer")
	}
}
