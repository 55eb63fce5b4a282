package shard

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/hql"
	"hrdb/internal/wire"
)

func TestClusterCloseAndShardCount(t *testing.T) {
	c, conns := newTestCluster(t, 3)
	if c.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d", c.ShardCount())
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_ = conns
}

func TestClusterBusyRejectsConcurrentExec(t *testing.T) {
	c, conns := newTestCluster(t, 2)
	// Park one Exec inside a shard op, then race a second one against it.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	conns[0].setHook(func(op wire.ShardOp) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Exec(context.Background(), "SELECT FROM Flies WHERE Creature UNDER Bird;")
		done <- err
	}()
	<-entered
	if _, err := c.Exec(context.Background(), "EXTENSION Flies;"); !errors.Is(err, hql.ErrSessionBusy) {
		t.Fatalf("concurrent Exec = %v, want hql.ErrSessionBusy", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked Exec: %v", err)
	}
}

// TestClusterRulesAndInfer: RULE registers on the coordinator, SHOW RULES
// lists it, and INFER runs the Datalog program over the merged logical
// database — all byte-identical to a single node.
func TestClusterRulesAndInfer(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	ref, refDB := refSession(t)
	seed := "ASSERT Flies (Bird);\nDENY Flies (Penguin);\nASSERT FliesAt (Tweety, h1);"
	runBoth(t, c, ref, seed)
	runBoth(t, c, ref, "RULE travelsFar(?X) IF Flies(?X);")
	runBoth(t, c, ref, "SHOW RULES;")
	runBoth(t, c, ref, "INFER travelsFar(Tweety);")
	runBoth(t, c, ref, "INFER travelsFar(Paul);")
	runBoth(t, c, ref, "INFER travelsFar(?Who);")
	fingerprintsMatch(t, c, refDB)
}

// TestClusterDumpRoundTrips: the coordinator's DUMP reconstructs the whole
// logical database; replaying it into a fresh single node reproduces the
// cluster's fingerprint.
func TestClusterDumpRoundTrips(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	if _, err := c.Exec(context.Background(),
		"ASSERT Flies (Bird);\nDENY Flies (Penguin);\nASSERT FliesAt (Robin, l1);"); err != nil {
		t.Fatal(err)
	}
	dump, err := c.Exec(context.Background(), "DUMP;")
	if err != nil {
		t.Fatal(err)
	}
	db := catalog.New()
	replayed := hql.NewSession(hql.MemTarget{DB: db})
	if _, err := replayed.Exec(dump); err != nil {
		t.Fatalf("replaying cluster dump: %v", err)
	}
	fingerprintsMatch(t, c, db)
}

// TestClusterMoreAlgebra covers the coordinator-side operators the main
// algebra test leaves out: INTERSECT, DIFFERENCE, EXPLAIN of a binary
// operator, and SELECT with no shard-side match.
func TestClusterMoreAlgebra(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	ref, _ := refSession(t)
	runBoth(t, c, ref, "ASSERT Flies (Bird);\nASSERT FliesAt (Tweety, h1);\nASSERT FliesAt (Paul, l1);")
	runBoth(t, c, ref, "PROJECT FliesAt ON (Creature) AS Fliers;")
	runBoth(t, c, ref, "INTERSECT Flies Fliers AS Both;")
	runBoth(t, c, ref, "DIFFERENCE Flies Fliers AS OnlyClaimed;")
	runBoth(t, c, ref, "EXPLAIN JOIN Flies Fliers AS J2;")
	runBoth(t, c, ref, "SELECT FROM FliesAt WHERE Alt UNDER high AND Creature UNDER Penguin;")
}

func TestClusterTxStateErrors(t *testing.T) {
	c, _ := newTestCluster(t, 2)
	ctx := context.Background()
	if _, err := c.Exec(ctx, "COMMIT;"); !errors.Is(err, hql.ErrNoTx) {
		t.Fatalf("COMMIT outside tx = %v", err)
	}
	if _, err := c.Exec(ctx, "ROLLBACK;"); !errors.Is(err, hql.ErrNoTx) {
		t.Fatalf("ROLLBACK outside tx = %v", err)
	}
	if _, err := c.Exec(ctx, "BEGIN;\nBEGIN;"); !errors.Is(err, hql.ErrInTx) {
		t.Fatalf("nested BEGIN = %v", err)
	}
	if _, err := c.Exec(ctx, "ROLLBACK;"); err != nil {
		t.Fatalf("unwinding: %v", err)
	}
}

// failingConn errors on everything — NewCluster's bootstrap must surface it.
type failingConn struct{}

func (failingConn) Exec(context.Context, string) (string, error) {
	return "", errors.New("boom")
}
func (failingConn) ExecShard(context.Context, wire.ShardOp) (wire.ShardReply, error) {
	return wire.ShardReply{}, errors.New("boom")
}
func (failingConn) Close() error { return nil }

func TestNewClusterBootstrapErrors(t *testing.T) {
	if _, err := NewCluster(context.Background(), nil); err == nil {
		t.Fatal("empty cluster must fail")
	}
	if _, err := NewCluster(context.Background(), []Conn{failingConn{}}); err == nil || !strings.Contains(err.Error(), "bootstrap") {
		t.Fatalf("failing bootstrap dump = %v", err)
	}
}
