package repl

import (
	"context"
	"strings"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/server"
)

// startReplicaServer serves HQL (read-only) plus LAG/PROMOTE and, once
// promoted, SNAP/REPL over a replica, the way hrserved -replica-of wires it.
func startReplicaServer(t *testing.T, rep *Replica) *server.Server {
	t.Helper()
	srv := server.New(ReplicaTarget{R: rep}, server.Options{
		Repl:     rep,
		LagProbe: rep.Status,
		Promote:  rep.Promote,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start replica server: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func TestRouterSplitsReadsAndWrites(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	must(t, p.store.AddClass("Animal", "Bird"))
	must(t, p.store.AddInstance("Animal", "Tweety", "Bird"))
	must(t, p.store.CreateRelation("Flies", catalog.AttrSpec{Name: "Creature", Domain: "Animal"}))
	must(t, p.store.Assert("Flies", "Bird"))

	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)
	repSrv := startReplicaServer(t, rep)

	router, err := server.DialRouter(p.srv.Addr(), []string{repSrv.Addr()},
		server.WithMaxStaleness(5*time.Second),
		server.WithLagProbeInterval(0))
	if err != nil {
		t.Fatalf("DialRouter: %v", err)
	}
	defer router.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// A read-only script is served by the replica: provable because the
	// replica rejects writes, so a write routed there would fail — and
	// because a write through the router must land on the primary and then
	// appear on the replica via the stream.
	out, err := router.Exec(ctx, "HOLDS Flies (Tweety);")
	if err != nil {
		t.Fatalf("routed read: %v", err)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("routed read = %q, want a positive HOLDS", out)
	}

	// A write goes to the primary (the replica would refuse it) and
	// replicates.
	if _, err := router.Exec(ctx, "INSTANCE Robin UNDER Bird; ASSERT Flies (Robin);"); err != nil {
		t.Fatalf("routed write: %v", err)
	}
	waitConverged(t, p.store, rep)
	out, err = router.Exec(ctx, "HOLDS Flies (Robin);")
	if err != nil {
		t.Fatalf("read after write: %v", err)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("replica missing replicated write: %q", out)
	}
}

func TestRouterFallsBackWhenReplicaTooStale(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	must(t, p.store.AddClass("Animal", "Bird"))
	must(t, p.store.AddInstance("Animal", "Tweety", "Bird"))
	must(t, p.store.CreateRelation("Flies", catalog.AttrSpec{Name: "Creature", Domain: "Animal"}))
	must(t, p.store.Assert("Flies", "Bird"))

	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)
	repSrv := startReplicaServer(t, rep)

	// An impossible staleness bound: every read must fall back to the
	// primary — and still succeed.
	router, err := server.DialRouter(p.srv.Addr(), []string{repSrv.Addr()},
		server.WithMaxStaleness(0),
		server.WithLagProbeInterval(0))
	if err != nil {
		t.Fatalf("DialRouter: %v", err)
	}
	defer router.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	out, err := router.Exec(ctx, "HOLDS Flies (Tweety);")
	if err != nil {
		t.Fatalf("fallback read: %v", err)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("fallback read = %q", out)
	}
}

func TestRouterFallsBackWhenReplicaDies(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	must(t, p.store.AddClass("Animal", "Bird"))
	must(t, p.store.AddInstance("Animal", "Tweety", "Bird"))
	must(t, p.store.CreateRelation("Flies", catalog.AttrSpec{Name: "Creature", Domain: "Animal"}))
	must(t, p.store.Assert("Flies", "Bird"))

	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)
	repSrv := startReplicaServer(t, rep)

	router, err := server.DialRouter(p.srv.Addr(), []string{repSrv.Addr()},
		server.WithMaxStaleness(5*time.Second),
		server.WithLagProbeInterval(0))
	if err != nil {
		t.Fatalf("DialRouter: %v", err)
	}
	defer router.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	// Kill the replica server mid-flight; reads must keep working via the
	// primary.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	repSrv.Shutdown(shutCtx)
	shutCancel()

	out, err := router.Exec(ctx, "HOLDS Flies (Tweety);")
	if err != nil {
		t.Fatalf("read after replica death: %v", err)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("read after replica death = %q", out)
	}
}
