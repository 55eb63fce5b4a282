package hrdb_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"hrdb"
)

const shardTestDDL = `CREATE HIERARCHY Animal;
CLASS Bird UNDER Animal;
CLASS Penguin UNDER Bird;
INSTANCE Tweety UNDER Bird;
INSTANCE Paul UNDER Penguin;
INSTANCE Robin UNDER Bird;
CREATE HIERARCHY Alt;
CLASS high UNDER Alt;
CLASS low UNDER Alt;
INSTANCE h1 UNDER high;
INSTANCE l1 UNDER low;
CREATE RELATION Flies (Creature: Animal);
CREATE RELATION FliesAt (Creature: Animal, Alt: Alt);`

// startShardServer boots one in-memory shard server and returns its address.
func startShardServer(t *testing.T, id, count int) string {
	t.Helper()
	target := hrdb.NewMemTarget(hrdb.NewDatabase())
	srv := hrdb.NewServer(target, hrdb.ServerOptions{Shard: hrdb.NewShardNode(target, id, count)})
	must(t, srv.Start("127.0.0.1:0"))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv.Addr()
}

// shardReference runs the same script on a single-node database, the state
// the cluster must be indistinguishable from.
func shardReference(t *testing.T, scripts ...string) *hrdb.Database {
	t.Helper()
	db := hrdb.NewDatabase()
	sess := hrdb.NewSession(db)
	for _, s := range scripts {
		if _, err := sess.Exec(s); err != nil {
			t.Fatalf("reference script: %v", err)
		}
	}
	return db
}

// TestShardClusterEndToEnd drives a 3-shard cluster through the public
// facade over real TCP servers: broadcast DDL, keyed and global writes, a
// cross-shard transaction, scatter-gather reads, coordinator-side algebra,
// and a fingerprint comparison against a single-node reference.
func TestShardClusterEndToEnd(t *testing.T) {
	addrs := []string{
		startShardServer(t, 0, 3),
		startShardServer(t, 1, 3),
		startShardServer(t, 2, 3),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cluster, err := hrdb.DialCluster(ctx, addrs)
	must(t, err)
	defer cluster.Close()
	if cluster.ShardCount() != 3 {
		t.Fatalf("shard count %d", cluster.ShardCount())
	}

	writes := `ASSERT Flies (Bird);
DENY Flies (Penguin);
ASSERT FliesAt (Tweety, h1);
BEGIN;
ASSERT FliesAt (Robin, l1);
ASSERT FliesAt (Paul, l1);
ASSERT Flies (Robin);
COMMIT;`
	_, err = cluster.Exec(ctx, shardTestDDL)
	must(t, err)
	_, err = cluster.Exec(ctx, writes)
	must(t, err)

	refDB := shardReference(t, shardTestDDL, writes)
	refSess := hrdb.NewSession(refDB)
	for _, q := range []string{
		"HOLDS Flies (Tweety);",
		"HOLDS Flies (Paul);",
		"SELECT FROM FliesAt WHERE Alt UNDER low;",
		"SELECT FROM Flies WHERE Creature UNDER Bird;",
		"EXTENSION Flies;",
		"COUNT FliesAt BY (Alt);",
		"PROJECT FliesAt ON (Creature) AS AnyAlt;",
		"JOIN Flies AnyAlt AS J;",
		"SHOW RELATION J;",
	} {
		got, err := cluster.Exec(ctx, q)
		must(t, err)
		want, err := refSess.Exec(q)
		must(t, err)
		if got != want {
			t.Fatalf("query %q diverges\ncluster:\n%s\nreference:\n%s", q, got, want)
		}
	}

	fp, err := cluster.Fingerprint(ctx)
	must(t, err)
	if want := hrdb.Fingerprint(refDB); fp != want {
		t.Fatalf("cluster fingerprint %s != reference %s", fp, want)
	}
}

// TestDialClusterRejectsMisorderedAddrs proves placement cannot be corrupted
// by listing shard addresses in the wrong order: every connection's SHARDMAP
// answer is checked against its position at dial time.
func TestDialClusterRejectsMisorderedAddrs(t *testing.T) {
	a0 := startShardServer(t, 0, 2)
	a1 := startShardServer(t, 1, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := hrdb.DialCluster(ctx, []string{a1, a0}); err == nil {
		t.Fatal("swapped shard addresses must fail the dial")
	}
	// And a count mismatch (a 2-shard server dialed as a 1-shard cluster).
	if _, err := hrdb.DialCluster(ctx, []string{a0}); err == nil {
		t.Fatal("wrong cluster size must fail the dial")
	}
	c, err := hrdb.DialCluster(ctx, []string{a0, a1})
	must(t, err)
	c.Close()
}

// TestShardClusterScatterSever severs a shard's TCP stream mid-response
// during scatter-gather reads; shard operations are idempotent, so the
// client retries on a fresh connection and the query still answers exactly.
func TestShardClusterScatterSever(t *testing.T) {
	addrs := []string{
		startShardServer(t, 0, 3),
		startShardServer(t, 1, 3),
		startShardServer(t, 2, 3),
	}
	proxy, err := hrdb.NewChaosProxy(addrs[0])
	must(t, err)
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cluster, err := hrdb.DialCluster(ctx, []string{proxy.Addr(), addrs[1], addrs[2]})
	must(t, err)
	defer cluster.Close()

	writes := "ASSERT Flies (Bird);\nDENY Flies (Penguin);\nASSERT FliesAt (Tweety, h1);\nASSERT FliesAt (Robin, l1);"
	_, err = cluster.Exec(ctx, shardTestDDL)
	must(t, err)
	_, err = cluster.Exec(ctx, writes)
	must(t, err)
	refSess := hrdb.NewSession(shardReference(t, shardTestDDL, writes))
	want, err := refSess.Exec("SELECT FROM FliesAt WHERE Creature UNDER Bird;")
	must(t, err)

	for i := 0; i < 5; i++ {
		// Cut the response stream after a handful of bytes: the in-flight
		// scatter leg dies mid-payload and must be retried transparently.
		proxy.SeverResponseAfter(8)
		got, err := cluster.Exec(ctx, "SELECT FROM FliesAt WHERE Creature UNDER Bird;")
		must(t, err)
		if got != want {
			t.Fatalf("round %d: severed scatter diverges\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestShardClusterFailover rides a shard primary's death: shard 1 is a
// replica set (durable primary + in-memory replica); after the primary is
// killed and the replica promoted, the coordinator's Router rediscovers the
// new primary and both reads and cross-shard 2PC transactions keep working,
// with no committed data lost.
func TestShardClusterFailover(t *testing.T) {
	a0 := startShardServer(t, 0, 3)
	a2 := startShardServer(t, 2, 3)

	// Shard 1: a durable primary serving replication on its one address…
	store, err := hrdb.OpenStore(t.TempDir())
	must(t, err)
	primarySrv := hrdb.NewServer(store, hrdb.ServerOptions{
		CloseTarget: true,
		Shard:       hrdb.NewShardNode(store, 1, 3),
		Repl:        hrdb.NewPrimary(store, hrdb.PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond}),
	})
	must(t, primarySrv.Start("127.0.0.1:0"))

	// …and an in-memory replica that can take over, itself a shard node.
	replica := hrdb.NewReplica(primarySrv.Addr(), hrdb.ReplicaOptions{
		ReconnectBackoff: 10 * time.Millisecond,
	})
	defer replica.Close()
	replicaTarget := hrdb.ReplicaTarget{R: replica}
	replicaSrv := hrdb.NewServer(replicaTarget, hrdb.ServerOptions{
		Shard:    hrdb.NewShardNode(replicaTarget, 1, 3),
		Repl:     replica,
		LagProbe: replica.Status,
		Promote:  replica.Promote,
	})
	must(t, replicaSrv.Start("127.0.0.1:0"))
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		replicaSrv.Shutdown(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Writes may be retried across the failover (their loss window is the
	// reason WithRetryNonIdempotent exists); 2PC ops re-route regardless.
	cluster, err := hrdb.DialCluster(ctx,
		[]string{a0, primarySrv.Addr() + "," + replicaSrv.Addr(), a2},
		hrdb.WithRetryNonIdempotent(true),
		hrdb.WithLagProbeInterval(0))
	must(t, err)
	defer cluster.Close()

	committed := `ASSERT Flies (Bird);
BEGIN;
ASSERT FliesAt (Tweety, h1);
ASSERT FliesAt (Robin, l1);
ASSERT FliesAt (Paul, l1);
COMMIT;`
	_, err = cluster.Exec(ctx, shardTestDDL)
	must(t, err)
	_, err = cluster.Exec(ctx, committed)
	must(t, err)

	// The replica must hold everything committed before the primary dies.
	deadline := time.Now().Add(10 * time.Second)
	for hrdb.Fingerprint(replica.Database()) != hrdb.Fingerprint(store.Database()) {
		if time.Now().After(deadline) {
			t.Fatal("shard replica never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill shard 1's primary and promote the replica (manual failover).
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	primarySrv.Shutdown(shutCtx)
	shutCancel()
	promoteCli, err := hrdb.Dial(replicaSrv.Addr())
	must(t, err)
	must(t, promoteCli.Promote(ctx))
	promoteCli.Close()

	// Committed data survives, served through the rediscovered primary.
	out, err := cluster.Exec(ctx, "HOLDS FliesAt (Paul, l1);")
	must(t, err)
	if !strings.Contains(out, "true") {
		t.Fatalf("pre-failover commit lost: %q", out)
	}

	// And new cross-shard transactions commit against the promoted replica.
	post := "BEGIN;\nASSERT FliesAt (Tweety, l1);\nASSERT Flies (Robin);\nCOMMIT;"
	_, err = cluster.Exec(ctx, post)
	must(t, err)

	refDB := shardReference(t, shardTestDDL, committed, post)
	fp, err := cluster.Fingerprint(ctx)
	must(t, err)
	if want := hrdb.Fingerprint(refDB); fp != want {
		t.Fatalf("post-failover fingerprint %s != reference %s", fp, want)
	}
}
