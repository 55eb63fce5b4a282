package shard

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hrdb/internal/core"
	"hrdb/internal/wire"
)

// TestClusterSingleShardTxRendersAllOpKinds: a transaction whose ops all
// land on one shard takes the rendered-script fast path; deny and retract
// must render as their own statements, not as asserts.
func TestClusterSingleShardTxRendersAllOpKinds(t *testing.T) {
	c, conns := newTestCluster(t, 3)
	ref, refDB := refSession(t)
	// All three ops target the same local tuple — one involved shard.
	runBoth(t, c, ref, "BEGIN;\nASSERT Flies (Tweety);\nCOMMIT;")
	runBoth(t, c, ref, "BEGIN;\nASSERT Flies (Tweety);\nRETRACT Flies (Tweety);\nCOMMIT;")
	fingerprintsMatch(t, c, refDB)
	// The ops never left the home shard.
	home := HomeShard("Flies", []string{"Tweety"}, 3)
	for i, conn := range conns {
		if i == home {
			continue
		}
		r, err := conn.db.Relation("Flies")
		if err != nil {
			t.Fatal(err)
		}
		if n := len(r.Tuples()); n != 0 {
			t.Fatalf("shard %d (not home %d) saw %d tuples of a single-shard tx", i, home, n)
		}
	}
}

func TestClusterKeyedErrorsMatchReference(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	ref, _ := refSession(t)
	// Unknown relation: Placement fails identically to a single node.
	runBoth(t, c, ref, "ASSERT NoSuch (Tweety);")
	// Autocommit retract and WHY, both keyed to the home shard.
	runBoth(t, c, ref, "ASSERT Flies (Tweety);")
	runBoth(t, c, ref, "WHY Flies (Tweety);")
	runBoth(t, c, ref, "RETRACT Flies (Tweety);")
	runBoth(t, c, ref, "HOLDS Flies (Tweety);")
}

func TestClusterScatterErrorsMatchReference(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	ref, _ := refSession(t)
	runBoth(t, c, ref, "SELECT FROM NoSuch WHERE X UNDER Bird;")
	runBoth(t, c, ref, "EXTENSION NoSuch;")
	runBoth(t, c, ref, "COUNT NoSuch BY (X);")
	runBoth(t, c, ref, "SHOW RELATION NoSuch;")
}

// TestClusterShardFailureSurfaces: a shard connection failing mid-gather
// fails the read instead of silently answering from a partial scatter.
func TestClusterShardFailureSurfaces(t *testing.T) {
	c, conns := newTestCluster(t, 3)
	if _, err := c.Exec(context.Background(), "ASSERT Flies (Bird);"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("shard down")
	conns[1].setHook(func(op wire.ShardOp) error { return boom })
	for _, script := range []string{
		"SELECT FROM Flies WHERE Creature UNDER Bird;",
		"EXTENSION Flies;",
		"DUMP;",
	} {
		if _, err := c.Exec(context.Background(), script); !errors.Is(err, boom) {
			t.Fatalf("script %q with a dead shard = %v, want the shard error", script, err)
		}
	}
	if _, err := c.Fingerprint(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Fingerprint with a dead shard = %v", err)
	}
	if _, err := c.HoldsBatch(context.Background(), "Flies",
		[]core.Item{{"Tweety"}, {"Paul"}, {"Robin"}}); !errors.Is(err, boom) {
		t.Fatalf("HoldsBatch with a dead shard = %v", err)
	}
	conns[1].setHook(nil)
	if _, err := c.Exec(context.Background(), "EXTENSION Flies;"); err != nil {
		t.Fatalf("recovered shard still failing: %v", err)
	}
}

func TestClusterHoldsBatchDerived(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	ctx := context.Background()
	if _, err := c.Exec(ctx, "ASSERT Flies (Bird);\nSELECT FROM Flies WHERE Creature UNDER Bird AS F2;"); err != nil {
		t.Fatal(err)
	}
	got, err := c.HoldsBatch(ctx, "F2", []core.Item{{"Tweety"}, {"Paul"}})
	if err != nil {
		t.Fatalf("HoldsBatch on derived: %v", err)
	}
	if len(got) != 2 || !got[0] {
		t.Fatalf("verdicts %v (want Tweety true)", got)
	}
}

// garbageConn answers DUMP with text that does not parse as HQL.
type garbageConn struct{ failingConn }

func (garbageConn) Exec(context.Context, string) (string, error) {
	return "THIS IS NOT HQL ;;;", nil
}

func TestNewClusterRejectsGarbageDump(t *testing.T) {
	if _, err := NewCluster(context.Background(), []Conn{garbageConn{}}); err == nil ||
		!strings.Contains(err.Error(), "parse") {
		t.Fatalf("garbage dump = %v, want a parse error", err)
	}
}
