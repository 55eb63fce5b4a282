package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/hql"
	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// localConn is an in-process shard connection: a Node plus an HQL session
// over one target, with a fault-injection hook on the shard-op channel. It
// is what *server.Client/*server.Router provide over TCP, minus the socket:
// every op and reply still passes through its payload codec.
type localConn struct {
	target hql.MemTarget
	db     *catalog.Database
	sess   *hql.Session

	mu   sync.Mutex
	node *Node
	hook func(op wire.ShardOp) error // runs before each ExecShard
}

func newLocalConn(id, count int) *localConn {
	db := catalog.New()
	target := hql.MemTarget{DB: db}
	return &localConn{
		target: target,
		db:     db,
		sess:   hql.NewSession(target),
		node:   NewNode(target, id, count),
	}
}

func (c *localConn) Exec(ctx context.Context, input string) (string, error) {
	return c.sess.ExecContext(ctx, input)
}

func (c *localConn) ExecShard(ctx context.Context, op wire.ShardOp) (wire.ShardReply, error) {
	c.mu.Lock()
	hook := c.hook
	c.mu.Unlock()
	if hook != nil {
		if err := hook(op); err != nil {
			return wire.ShardReply{}, err
		}
	}
	c.mu.Lock()
	node := c.node
	c.mu.Unlock()
	sent, err := wire.ParseShardOp(wire.AppendShardOp(nil, op))
	if err != nil {
		return wire.ShardReply{}, err
	}
	rep, err := node.Execute(ctx, sent)
	if err != nil {
		return wire.ShardReply{}, err
	}
	return wire.ParseShardReply(wire.ShardReplyPayload(rep))
}

func (c *localConn) Close() error { return nil }

func (c *localConn) setHook(h func(op wire.ShardOp) error) {
	c.mu.Lock()
	c.hook = h
	c.mu.Unlock()
}

// restart simulates a participant crash-and-recover (or failover to a
// promoted replica): the applied state survives, the in-memory 2PC journal
// does not.
func (c *localConn) restart() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.node = NewNode(c.target, c.node.ID, c.node.Count)
}

const clusterDDL = `CREATE HIERARCHY Animal;
CLASS Bird UNDER Animal IN Animal;
CLASS Penguin UNDER Bird IN Animal;
INSTANCE Tweety UNDER Bird IN Animal;
INSTANCE Paul UNDER Penguin IN Animal;
INSTANCE Robin UNDER Bird IN Animal;
CREATE HIERARCHY Alt;
CLASS high UNDER Alt IN Alt;
CLASS low UNDER Alt IN Alt;
INSTANCE h1 UNDER high IN Alt;
INSTANCE l1 UNDER low IN Alt;
CREATE RELATION Flies (Creature: Animal);
CREATE RELATION FliesAt (Creature: Animal, Alt: Alt);`

// newTestCluster builds an n-shard in-process cluster with the test schema
// broadcast to every shard.
func newTestCluster(t *testing.T, n int) (*Cluster, []*localConn) {
	t.Helper()
	conns := make([]*localConn, n)
	ifaces := make([]Conn, n)
	for i := range conns {
		conns[i] = newLocalConn(i, n)
		ifaces[i] = conns[i]
	}
	c, err := NewCluster(context.Background(), ifaces)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), clusterDDL); err != nil {
		t.Fatal(err)
	}
	return c, conns
}

// refSession builds the single-node reference the cluster must be
// indistinguishable from.
func refSession(t *testing.T) (*hql.Session, *catalog.Database) {
	t.Helper()
	db := catalog.New()
	sess := hql.NewSession(hql.MemTarget{DB: db})
	if _, err := sess.Exec(clusterDDL); err != nil {
		t.Fatal(err)
	}
	return sess, db
}

// runBoth executes the same script on the cluster and the reference session
// and fails on any output divergence.
func runBoth(t *testing.T, c *Cluster, ref *hql.Session, script string) string {
	t.Helper()
	got, gerr := c.Exec(context.Background(), script)
	want, werr := ref.Exec(script)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("script %q: cluster err %v, reference err %v", script, gerr, werr)
	}
	if got != want {
		t.Fatalf("script %q diverges\ncluster:\n%s\nreference:\n%s", script, got, want)
	}
	return got
}

// fingerprintsMatch fails unless the cluster's merged state equals the
// reference database.
func fingerprintsMatch(t *testing.T, c *Cluster, ref *catalog.Database) {
	t.Helper()
	got, err := c.Fingerprint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := storage.Fingerprint(ref); got != want {
		t.Fatalf("cluster state diverged from single-node reference\ncluster:  %s\nreference: %s", got, want)
	}
}

func TestClusterKeyedPlacement(t *testing.T) {
	c, conns := newTestCluster(t, 3)
	out, err := c.Exec(context.Background(), "ASSERT Flies (Tweety);")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "asserted Flies(Tweety)") {
		t.Fatalf("output %q", out)
	}
	// The local tuple lives only on its home shard.
	home := HomeShard("Flies", []string{"Tweety"}, 3)
	for i, conn := range conns {
		r, err := conn.db.Relation("Flies")
		if err != nil {
			t.Fatal(err)
		}
		n := len(r.Tuples())
		if i == home && n != 1 {
			t.Fatalf("home shard %d holds %d tuples", i, n)
		}
		if i != home && n != 0 {
			t.Fatalf("shard %d (not home %d) holds %d tuples", i, home, n)
		}
	}
	// A class tuple is global: 2PC replicates it to every shard.
	if _, err := c.Exec(context.Background(), "DENY Flies (Penguin);"); err != nil {
		t.Fatal(err)
	}
	for i, conn := range conns {
		r, _ := conn.db.Relation("Flies")
		found := false
		for _, tu := range r.Tuples() {
			if tu.Item[0] == "Penguin" && !tu.Sign {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %d missing the global Penguin exception", i)
		}
	}
}

func TestClusterMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 3} {
		c, _ := newTestCluster(t, shards)
		ref, refDB := refSession(t)
		script := `ASSERT Flies (Bird);
DENY Flies (Penguin);
ASSERT FliesAt (Robin, h1);
ASSERT FliesAt (Tweety, l1);
ASSERT FliesAt (Bird, low);`
		runBoth(t, c, ref, script)

		for _, q := range []string{
			"HOLDS Flies (Tweety);",
			"HOLDS Flies (Paul);",
			"WHY Flies (Paul);",
			"SELECT FROM Flies WHERE Creature UNDER Bird;",
			"SELECT FROM FliesAt WHERE Creature UNDER Bird AND Alt UNDER low;",
			"EXTENSION Flies;",
			"COUNT FliesAt BY (Alt);",
			"SHOW RELATION FliesAt;",
			"SHOW RELATIONS;",
			"SHOW HIERARCHY Animal;",
			// A bare write over a stored tuple of the opposite sign is refused,
			// whether the tuple is GLOBAL (a class: replicated by 2PC) or
			// local (an instance: its home shard's own session).
			"RETRACT Flies (Penguin);\nDENY Flies (Bird);",
			"DENY FliesAt (Robin, h1);",
			"HOLDS Flies (Tweety);",
		} {
			runBoth(t, c, ref, q)
		}
		fingerprintsMatch(t, c, refDB)
	}
}

func TestClusterCoordinatorAlgebra(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	ref, _ := refSession(t)
	runBoth(t, c, ref, `ASSERT Flies (Bird);
DENY Flies (Penguin);
ASSERT FliesAt (Robin, h1);
ASSERT FliesAt (Paul, l1);`)

	for _, q := range []string{
		"SELECT FROM FliesAt WHERE Alt UNDER high AS HighFliers;",
		"SELECT FROM HighFliers;", // derived: served from the coordinator mirror
		"PROJECT FliesAt ON (Creature) AS AnyAlt;",
		"JOIN Flies AnyAlt AS J;",
		"UNION Flies Flies AS U;",
		"EXPLAIN SELECT FROM Flies WHERE Creature UNDER Bird;",
	} {
		runBoth(t, c, ref, q)
	}
}

func TestClusterTransactions(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	ref, refDB := refSession(t)
	runBoth(t, c, ref, `BEGIN;
ASSERT Flies (Bird);
ASSERT FliesAt (Tweety, h1);
ASSERT FliesAt (Robin, l1);
COMMIT;`)
	fingerprintsMatch(t, c, refDB)

	// ROLLBACK discards the buffer.
	runBoth(t, c, ref, `BEGIN;
ASSERT Flies (Robin);
ROLLBACK;`)
	fingerprintsMatch(t, c, refDB)

	// Transaction-state errors mirror the session's.
	if _, err := c.Exec(context.Background(), "COMMIT;"); err != hql.ErrNoTx {
		t.Fatalf("COMMIT outside tx: %v", err)
	}
	if _, err := c.Exec(context.Background(), "BEGIN;\nBEGIN;"); err != hql.ErrInTx {
		t.Fatalf("nested BEGIN: %v", err)
	}
	if _, err := c.Exec(context.Background(), "ROLLBACK;"); err != nil {
		t.Fatalf("cleanup rollback: %v", err)
	}
}

// TestClusterBracketSliceIsATransaction: a bracket is a transaction on every
// shard it reaches, however few of its ops land there — a shard handed one op
// flips a stored sign as the single node does — while the bare statement is
// refused on both.
func TestClusterBracketSliceIsATransaction(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	ref, refDB := refSession(t)
	a, b := []string{"Tweety", "h1"}, []string{"Robin", "l1"}
	if HomeShard("FliesAt", a, 3) == HomeShard("FliesAt", b, 3) {
		b = []string{"Paul", "l1"}
	}
	if HomeShard("FliesAt", a, 3) == HomeShard("FliesAt", b, 3) {
		t.Fatal("fixture items share a home shard")
	}
	item := func(v []string) string { return "FliesAt (" + strings.Join(v, ", ") + ");" }
	runBoth(t, c, ref, "ASSERT "+item(a)+"\nASSERT "+item(b))
	runBoth(t, c, ref, "BEGIN;\nDENY "+item(a)+"\nDENY "+item(b)+"\nCOMMIT;")
	fingerprintsMatch(t, c, refDB)
	runBoth(t, c, ref, "BEGIN;\nASSERT "+item(a)+"\nCOMMIT;")
	fingerprintsMatch(t, c, refDB)
	if out := runBoth(t, c, ref, "HOLDS "+item(a)); !strings.Contains(out, "true") {
		t.Fatalf("one-statement bracket did not flip the sign: %q", out)
	}
	if _, err := ref.Exec("DENY " + item(a)); !errors.Is(err, core.ErrContradiction) {
		t.Fatalf("bare DENY over the stored assert on the single node = %v, want ErrContradiction", err)
	}
	if _, err := c.Exec(context.Background(), "DENY "+item(a)); err == nil {
		t.Fatal("bare DENY over the stored assert accepted by the cluster")
	}
	fingerprintsMatch(t, c, refDB)
}

func TestClusterExplicateRejected(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	if _, err := c.Exec(context.Background(), "ASSERT Flies (Bird);"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "EXPLICATE Flies;"); err == nil {
		t.Fatal("EXPLICATE must be rejected on a multi-shard cluster")
	}

	single, _ := newTestCluster(t, 1)
	if _, err := single.Exec(context.Background(), "ASSERT Flies (Bird);"); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Exec(context.Background(), "EXPLICATE Flies;"); err != nil {
		t.Fatalf("EXPLICATE on a single shard: %v", err)
	}
}

func TestClusterHoldsBatch(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	ref, refDB := refSession(t)
	runBoth(t, c, ref, "ASSERT Flies (Bird);\nDENY Flies (Penguin);")

	items := []core.Item{{"Tweety"}, {"Paul"}, {"Robin"}, {"Penguin"}}
	got, err := c.HoldsBatch(context.Background(), "Flies", items)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refDB.HoldsBatch(context.Background(), "Flies", items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if got[i] != want[i] {
			t.Fatalf("item %v: cluster %v, reference %v", items[i], got[i], want[i])
		}
	}
}

func TestCluster2PCPrepareFailureIsAtomic(t *testing.T) {
	c, conns := newTestCluster(t, 3)
	ref, refDB := refSession(t)
	runBoth(t, c, ref, "ASSERT Flies (Tweety);")

	conns[1].setHook(func(op wire.ShardOp) error {
		if op.Verb == wire.ShardPrepare {
			return fmt.Errorf("injected: shard 1 unreachable during prepare")
		}
		return nil
	})
	// A global op involves every shard; shard 1's no vote must abort all.
	_, err := c.Exec(context.Background(), "BEGIN;\nASSERT Flies (Bird);\nASSERT FliesAt (Robin, h1);\nCOMMIT;")
	if err == nil {
		t.Fatal("commit must fail when a participant cannot prepare")
	}
	conns[1].setHook(nil)
	for i, conn := range conns {
		if n := conn.node.PendingCount(); n != 0 {
			t.Fatalf("shard %d still has %d journaled transactions after abort", i, n)
		}
	}
	fingerprintsMatch(t, c, refDB) // nothing applied anywhere
}

func TestCluster2PCJournalLossRecoversViaApply(t *testing.T) {
	c, conns := newTestCluster(t, 3)
	ref, refDB := refSession(t)

	// Shard 2 "crashes" (journal lost, state kept) between its prepare ack
	// and the commit — the coordinator must drive it to completion with
	// APPLY after its COMMIT answers "unknown".
	var once sync.Once
	conns[2].setHook(func(op wire.ShardOp) error {
		if op.Verb == wire.ShardCommit {
			once.Do(conns[2].restart)
		}
		return nil
	})
	runBoth(t, c, ref, "BEGIN;\nASSERT Flies (Bird);\nASSERT FliesAt (Robin, h1);\nCOMMIT;")
	conns[2].setHook(nil)
	fingerprintsMatch(t, c, refDB)
}

// chaosRounds mirrors the knob the repl chaos suite uses: CHAOS_ROUNDS
// overrides, -short shrinks.
func chaosRounds(t *testing.T, def, short int) int {
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_ROUNDS %q", s)
		}
		return n
	}
	if testing.Short() {
		return short
	}
	return def
}

// TestClusterChaos2PC runs randomized cross-shard transactions under
// injected participant failures and checks after every round that the
// cluster's merged state is byte-identical to a single-node database that
// applied exactly the transactions whose commit succeeded.
func TestClusterChaos2PC(t *testing.T) {
	rounds := chaosRounds(t, 40, 8)
	rng := rand.New(rand.NewSource(7))

	c, conns := newTestCluster(t, 3)
	_, refDB := refSession(t)

	// A pool of pre-declared instances so every round can pick fresh keys
	// (all-positive asserts: no contradictions, so prepare always validates).
	var ddl strings.Builder
	for i := 0; i < rounds*4+4; i++ {
		fmt.Fprintf(&ddl, "INSTANCE chaos%d UNDER Bird IN Animal;\n", i)
	}
	if _, err := c.Exec(context.Background(), ddl.String()); err != nil {
		t.Fatal(err)
	}
	refSess := hql.NewSession(hql.MemTarget{DB: refDB})
	if _, err := refSess.Exec(ddl.String()); err != nil {
		t.Fatal(err)
	}

	next := 0
	for round := 0; round < rounds; round++ {
		// 1-3 local ops on fresh instances plus one global op, so every
		// transaction involves all three shards and runs real 2PC.
		ops := []catalog.TxOp{{Kind: "assert", Relation: "Flies", Values: []string{"Bird"}}}
		var script strings.Builder
		script.WriteString("BEGIN;\nASSERT Flies (Bird);\n")
		for i := 0; i < 1+rng.Intn(3); i++ {
			v := fmt.Sprintf("chaos%d", next)
			next++
			ops = append(ops, catalog.TxOp{Kind: "assert", Relation: "Flies", Values: []string{v}})
			fmt.Fprintf(&script, "ASSERT Flies (%s);\n", v)
		}
		script.WriteString("COMMIT;")

		victim := conns[rng.Intn(len(conns))]
		var injected bool
		switch rng.Intn(3) {
		case 1: // participant unreachable during prepare → abort everywhere
			victim.setHook(func(op wire.ShardOp) error {
				if op.Verb == wire.ShardPrepare {
					injected = true
					return fmt.Errorf("injected prepare failure")
				}
				return nil
			})
		case 2: // journal lost between prepare and commit → APPLY fallback
			var once sync.Once
			victim.setHook(func(op wire.ShardOp) error {
				if op.Verb == wire.ShardCommit {
					once.Do(func() { injected = true; victim.restart() })
				}
				return nil
			})
		}

		_, err := c.Exec(context.Background(), script.String())
		victim.setHook(nil)
		_ = injected

		if err == nil {
			// Committed: the reference applies the same ops atomically.
			if rerr := refDB.ApplyOps(ops); rerr != nil {
				t.Fatalf("round %d: reference apply: %v", round, rerr)
			}
		}
		// Aborted: the reference applies nothing.

		fingerprintsMatch(t, c, refDB)
		for i, conn := range conns {
			if n := conn.node.PendingCount(); n != 0 {
				t.Fatalf("round %d: shard %d leaks %d journal entries", round, i, n)
			}
		}
	}
}
