package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hrdb/internal/shard"
	"hrdb/internal/wire"
)

// The shard verbs (SHARDMAP inline, EXECSHARD on the worker pool) over the
// wire, plus the Router's shard-aware plumbing. The full
// coordinator stack over these verbs lives in the root-level
// shard_integration_test.go; here we pin the per-verb wire behavior.

// tuplesOp reads the fixture's Flies tuples.
var tuplesOp = wire.ShardOp{Verb: wire.ShardTuples, Relation: "Flies"}

func shardServer(t *testing.T, id, count int) *Server {
	t.Helper()
	target := newMemTarget(t)
	return startServer(t, target, Options{Shard: shard.NewNode(target, id, count)})
}

func TestShardVerbsBothProtocols(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv := shardServer(t, 1, 3)

	t.Run("v2", func(t *testing.T) {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()

		id, count, err := c.ShardMap(ctx)
		if err != nil || id != 1 || count != 3 {
			t.Fatalf("ShardMap = %d/%d, %v; want 1/3", id, count, err)
		}

		// A pure shard read: the fixture stores Flies(Bird)+ and
		// Flies(Penguin)-.
		rep, err := c.ExecShard(ctx, tuplesOp)
		if err != nil {
			t.Fatalf("ExecShard: %v", err)
		}
		if len(rep.Tuples) != 2 {
			t.Fatalf("TUPLES = %+v, want 2 tuples", rep)
		}

		// A failing op is a server-side exec failure, not a hangup; so is a
		// payload that does not decode.
		if _, err := c.ExecShard(ctx, wire.ShardOp{Verb: "FROBNICATE"}); !errors.Is(err, ErrExecFailed) {
			t.Fatalf("unknown shard verb = %v, want ErrExecFailed", err)
		}
		if _, err := c.execOnce(ctx, wire.TypeExecShard, "not a shard op"); !errors.Is(err, ErrExecFailed) {
			t.Fatalf("undecodable shard op = %v, want ErrExecFailed", err)
		}
		if _, _, err := c.ShardMap(ctx); err != nil {
			t.Fatalf("connection unusable after failed shard op: %v", err)
		}
	})
}

func TestShardVerbsUnsupportedOnPlainServer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv := startServer(t, newMemTarget(t), Options{})
	t.Run("v2", func(t *testing.T) {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		if _, _, err := c.ShardMap(ctx); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("SHARDMAP on plain server = %v, want ErrUnsupported", err)
		}
		if _, err := c.ExecShard(ctx, tuplesOp); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("EXECSHARD on plain server = %v, want ErrUnsupported", err)
		}
	})
}

func TestParseShardMapRejectsGarbage(t *testing.T) {
	if id, count, err := parseShardMap("1 3"); err != nil || id != 1 || count != 3 {
		t.Fatalf("parseShardMap(\"1 3\") = %d/%d, %v", id, count, err)
	}
	for _, bad := range []string{"", "x y", "1", "1 2 3"} {
		if _, _, err := parseShardMap(bad); !errors.Is(err, ErrProtocol) {
			t.Fatalf("parseShardMap(%q) = %v, want ErrProtocol", bad, err)
		}
	}
}

// TestRouterShardVerbs: the Router forwards shard operations to the current
// primary and fails over on a stale answer exactly like Exec — the property
// that keeps a coordinator's 2PC alive through a shard primary's death.
func TestRouterShardVerbs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	target := newMemTarget(t)
	primary := startServer(t, target, Options{Shard: shard.NewNode(target, 0, 1)})
	rtarget := newMemTarget(t)
	replica := startServer(t, rtarget, Options{
		Shard:    shard.NewNode(rtarget, 0, 1),
		LagProbe: lagConst(LagInfo{Staleness: 0, State: "streaming"}),
	})
	router := dialRouterT(t, primary, replica)

	id, count, err := router.ShardMap(ctx)
	if err != nil || id != 0 || count != 1 {
		t.Fatalf("ShardMap = %d/%d, %v; want 0/1", id, count, err)
	}
	rep, err := router.ExecShard(ctx, tuplesOp)
	if err != nil {
		t.Fatalf("ExecShard: %v", err)
	}
	if len(rep.Tuples) != 2 {
		t.Fatalf("TUPLES via router = %+v", rep)
	}
}

// TestRouterShardFailsOverOnStale: a shard op answered with the stale code
// re-routes to the promoted peer, like any primary-bound request.
func TestRouterShardFailsOverOnStale(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	old := startServer(t, deposedShardTarget{deposedTarget{newMemTarget(t)}}, Options{})
	ptarget := newMemTarget(t)
	promoted := startServer(t, ptarget, Options{
		Shard:    shard.NewNode(ptarget, 0, 1),
		LagProbe: lagConst(LagInfo{Staleness: 0, State: "promoted", Term: 7, ID: "r1"}),
	})
	router := dialRouterT(t, old, promoted)

	// The old node is not even a shard (unsupported is NOT a failover
	// trigger — it's a topology error the caller must see).
	if _, err := router.ExecShard(ctx, tuplesOp); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("ExecShard on non-shard primary = %v, want ErrUnsupported", err)
	}

	// But a write answered stale re-routes, after which shard ops land on
	// the promoted node.
	if _, err := router.Exec(ctx, "ASSERT Flies (Tweety);"); err != nil {
		t.Fatalf("write during failover: %v", err)
	}
	rep, err := router.ExecShard(ctx, tuplesOp)
	if err != nil {
		t.Fatalf("ExecShard after failover: %v", err)
	}
	if !strings.Contains(fmt.Sprint(rep.Tuples), "Bird") {
		t.Fatalf("shard read after failover = %+v", rep)
	}
}

// deposedShardTarget is a deposed store that still parses as a server
// target; the type exists so the test above reads as what it is.
type deposedShardTarget struct{ deposedTarget }
