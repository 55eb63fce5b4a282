package hrdb_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"hrdb"
)

// TestReplicationEndToEnd drives the replication subsystem through the
// public facade exactly as hrserved wires it: a durable primary serving
// clients on one listener and WAL shipping on another, an in-memory
// replica serving lag-bounded reads, a router splitting traffic, and a
// manual PROMOTE failover.
func TestReplicationEndToEnd(t *testing.T) {
	store, err := hrdb.OpenStore(t.TempDir())
	must(t, err)

	// Primary: one listener serving clients and replication alike.
	primarySrv := hrdb.NewServer(store, hrdb.ServerOptions{
		CloseTarget: true,
		Repl:        hrdb.NewPrimary(store, hrdb.PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond}),
	})
	must(t, primarySrv.Start("127.0.0.1:0"))
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		primarySrv.Shutdown(ctx)
	}()

	// Replica follows the primary's address and serves its own.
	replica := hrdb.NewReplica(primarySrv.Addr(), hrdb.ReplicaOptions{
		ReconnectBackoff: 10 * time.Millisecond,
	})
	defer replica.Close()
	replicaSrv := hrdb.NewServer(hrdb.ReplicaTarget{R: replica}, hrdb.ServerOptions{
		LagProbe: replica.Status,
		Promote:  replica.Promote,
	})
	must(t, replicaSrv.Start("127.0.0.1:0"))
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		replicaSrv.Shutdown(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Writes land on the primary through the router; reads route to the
	// replica once it is fresh.
	router, err := hrdb.DialRouter(primarySrv.Addr(), []string{replicaSrv.Addr()},
		hrdb.WithMaxStaleness(5*time.Second),
		hrdb.WithLagProbeInterval(0))
	must(t, err)
	defer router.Close()

	_, err = router.Exec(ctx, `
CREATE HIERARCHY Animal;
CLASS Bird UNDER Animal;
INSTANCE Tweety UNDER Bird;
CREATE RELATION Flies (Creature: Animal);
ASSERT Flies (Bird);
`)
	must(t, err)

	// Wait until the replica converges, then verify byte-identical state.
	deadline := time.Now().Add(10 * time.Second)
	for hrdb.Fingerprint(replica.Database()) != hrdb.Fingerprint(store.Database()) {
		if time.Now().After(deadline) {
			t.Fatal("replica never converged with the primary")
		}
		time.Sleep(5 * time.Millisecond)
	}

	out, err := router.Exec(ctx, "HOLDS Flies (Tweety);")
	must(t, err)
	if !strings.Contains(out, "true") {
		t.Fatalf("routed read = %q", out)
	}

	// Failover: kill the primary, promote the replica, keep writing.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	primarySrv.Shutdown(shutCtx)
	shutCancel()

	cli, err := hrdb.Dial(replicaSrv.Addr())
	must(t, err)
	defer cli.Close()
	must(t, cli.Promote(ctx))
	_, err = cli.Exec(ctx, "INSTANCE Robin UNDER Bird; ASSERT Flies (Robin);")
	must(t, err)
	out, err = cli.Exec(ctx, "HOLDS Flies (Robin);")
	must(t, err)
	if !strings.Contains(out, "true") {
		t.Fatalf("post-failover read = %q", out)
	}
}
