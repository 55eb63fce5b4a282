package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/hql"
)

// In-package Router tests against stub replicas: plain servers with a
// LagProbe hook over in-memory targets. The targets are deliberately
// different — the "replica" denies what the primary asserts — so the
// answer to a routed read proves which server produced it. (The real
// replication stack keeps copies identical; see internal/repl's router
// tests for that end of the contract.)

// divergentTarget is the Bird fixture with Flies(Bird) denied instead of
// asserted, so HOLDS Flies (Tweety) answers false where the primary
// fixture answers true.
func divergentTarget(t *testing.T) hql.Target {
	t.Helper()
	db := catalog.New()
	sess := hql.NewSession(hql.MemTarget{DB: db})
	if _, err := sess.Exec(`
		CREATE HIERARCHY Animal;
		CLASS Bird IN Animal;
		INSTANCE Tweety UNDER Bird;
		CREATE RELATION Flies (Creature: Animal);
		DENY Flies (Bird);
	`); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return hql.MemTarget{DB: db}
}

func lagConst(li LagInfo) func() LagInfo {
	return func() LagInfo { return li }
}

func dialRouterT(t *testing.T, primary, replica *Server, opts ...Option) *Router {
	t.Helper()
	router, err := DialRouter(primary.Addr(), []string{replica.Addr()}, opts...)
	if err != nil {
		t.Fatalf("DialRouter: %v", err)
	}
	t.Cleanup(func() { router.Close() })
	return router
}

func TestRouterReadsHitFreshReplica(t *testing.T) {
	primary := startServer(t, newMemTarget(t), Options{})
	replica := startServer(t, divergentTarget(t), Options{
		LagProbe: lagConst(LagInfo{Staleness: 0, State: "streaming"}),
	})
	// A long probe TTL makes the second read exercise the cached-lag path.
	router := dialRouterT(t, primary, replica,
		WithMaxStaleness(time.Minute), WithLagProbeInterval(time.Hour))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	for i := 0; i < 2; i++ {
		out, err := router.Exec(ctx, "HOLDS Flies (Tweety);")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !strings.Contains(out, "false") {
			t.Fatalf("read %d answered %q — served by the primary, not the replica", i, out)
		}
	}

	// Writes go to the primary even with a fresh replica available.
	if _, err := router.Exec(ctx, "INSTANCE Robin UNDER Bird;"); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := router.primary.Exec(ctx, "HOLDS Flies (Robin);")
	if err != nil {
		t.Fatalf("primary read-back: %v", err)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("write did not land on the primary: %q", out)
	}

	// A replica that answers with a statement error is the script's real
	// result — the router must not mask it with a primary retry.
	if _, err := router.Exec(ctx, "HOLDS NoSuchRelation (Tweety);"); err == nil {
		t.Fatal("bad read succeeded")
	} else {
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("bad read error = %v, want ServerError", err)
		}
	}
}

func TestRouterSkipsUnknownAndStaleReplicas(t *testing.T) {
	primary := startServer(t, newMemTarget(t), Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	for _, li := range []LagInfo{
		{Staleness: -1, State: "connecting"},            // never synced
		{Staleness: 10 * time.Second, State: "catchup"}, // beyond the bound
	} {
		replica := startServer(t, divergentTarget(t), Options{LagProbe: lagConst(li)})
		router := dialRouterT(t, primary, replica,
			WithMaxStaleness(time.Second), WithLagProbeInterval(0))
		out, err := router.Exec(ctx, "HOLDS Flies (Tweety);")
		if err != nil {
			t.Fatalf("read (lag %+v): %v", li, err)
		}
		if !strings.Contains(out, "true") {
			t.Fatalf("lag %+v: answer %q came from the stale replica", li, out)
		}
	}
}

func TestRouterFallsBackWhenReplicaUnreachable(t *testing.T) {
	primary := startServer(t, newMemTarget(t), Options{})
	replica := startServer(t, divergentTarget(t), Options{
		LagProbe: lagConst(LagInfo{Staleness: 0, State: "streaming"}),
	})
	router := dialRouterT(t, primary, replica,
		WithMaxStaleness(time.Minute), WithLagProbeInterval(0))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	replica.Shutdown(shutCtx)
	shutCancel()

	out, err := router.Exec(ctx, "HOLDS Flies (Tweety);")
	if err != nil {
		t.Fatalf("read after replica death: %v", err)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("read after replica death = %q, want primary's answer", out)
	}
}

func TestDialRouterRejectsUnreachableReplica(t *testing.T) {
	primary := startServer(t, newMemTarget(t), Options{})
	if r, err := DialRouter(primary.Addr(), []string{"127.0.0.1:1"}); err == nil {
		r.Close()
		t.Fatal("DialRouter accepted an unreachable replica")
	}
	if _, err := DialRouter("127.0.0.1:1", nil); err == nil {
		t.Fatal("DialRouter accepted an unreachable primary")
	}
}
