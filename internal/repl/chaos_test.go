package repl

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/server"
	"hrdb/internal/storage"
)

// Chaos acceptance tests: the replication stream survives connections
// severed mid-record and primary death. Run under -race (make test-repl).

// chaosRounds sizes a chaos loop: def normally, short under -short, or an
// explicit CHAOS_ROUNDS=<n> override for soak runs (CHAOS_ROUNDS=500
// make test-failover keeps a workstation busy for minutes instead of
// seconds; the tests are written so any round count is valid).
func chaosRounds(t *testing.T, def, short int) int {
	t.Helper()
	if v := os.Getenv("CHAOS_ROUNDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("CHAOS_ROUNDS=%q: want a positive integer", v)
		}
		return n
	}
	if testing.Short() {
		return short
	}
	return def
}

// countWALRecords decodes the primary's entire epoch-0 WAL and returns the
// record count — the ground truth the replica's applied count must equal
// exactly (no duplicates, no gaps).
func countWALRecords(t *testing.T, st *storage.Store) uint64 {
	t.Helper()
	epoch, end := st.Position()
	if epoch != 0 {
		t.Fatalf("workload unexpectedly checkpointed: epoch %d", epoch)
	}
	rd := storage.NewReader(storage.Position{})
	var off int64
	for off < end {
		chunk, err := st.ReadWAL(0, off, 64<<10)
		if err != nil {
			t.Fatalf("ReadWAL(%d): %v", off, err)
		}
		rd.Feed(chunk)
		off += int64(len(chunk))
	}
	for {
		_, ok, err := rd.Next()
		if err != nil {
			t.Fatalf("decode WAL: %v", err)
		}
		if !ok {
			break
		}
	}
	if rd.Position().Offset != end {
		t.Fatalf("durable WAL ends mid-frame or mid-bracket (read to %d of %d)", rd.Position().Offset, end)
	}
	return rd.Records()
}

// TestChaosSeveredStreamConverges is the headline acceptance test: a
// replica streaming through a chaos proxy whose connections are severed
// mid-record, over and over, while the primary commits transactions. After
// the chaos stops the replica must converge to the primary's exact logical
// state having applied every WAL record exactly once, and its lag must
// return to zero.
func TestChaosSeveredStreamConverges(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		// Small chunks so severs land mid-record often.
		ChunkBytes: 64,
	})
	proxy, err := server.NewChaosProxy(p.srv.Addr())
	if err != nil {
		t.Fatalf("NewChaosProxy: %v", err)
	}
	defer proxy.Close()

	rep := startReplica(t, proxy.Addr())
	// Sync at the empty store first so the bootstrap lands at offset 0 and
	// every workload record travels the stream — the applied-record count
	// below then equals the full WAL record count.
	waitConverged(t, p.store, rep)

	// Schema first, then chaos: sever the response path after ever-varying
	// byte budgets while committing transactions. Budgets cycle through
	// small primes so cuts land at different points of SHIP frames —
	// including mid-header and mid-payload — across iterations.
	must(t, p.store.CreateHierarchy("D"))
	must(t, p.store.AddClass("D", "C1"))
	must(t, p.store.AddClass("D", "C2", "C1"))
	must(t, p.store.CreateRelation("R", catalog.AttrSpec{Name: "X", Domain: "D"}))

	budgets := []int64{3, 61, 17, 127, 7, 251, 37, 89, 11, 199}
	rounds := chaosRounds(t, 40, 10)
	for i := 0; i < rounds; i++ {
		proxy.SeverResponseAfter(budgets[i%len(budgets)])
		inst := fmt.Sprintf("i%03d", i)
		must(t, p.store.AddInstance("D", inst, "C2"))
		// A transaction bracket per round: severed brackets must re-ship
		// whole, never apply twice, never apply half.
		must(t, p.store.ApplyTx([]catalog.TxOp{
			{Kind: "assert", Relation: "R", Values: []string{inst}},
			{Kind: "deny", Relation: "R", Values: []string{"C2"}},
			{Kind: "retract", Relation: "R", Values: []string{"C2"}},
		}))
		if i%4 == 0 {
			// Give the replica a beat to reconnect mid-workload so severs
			// hit live streams, not just dial attempts.
			time.Sleep(2 * time.Millisecond)
		}
	}
	proxy.SeverResponseAfter(-1) // disarm; let the stream heal

	waitConverged(t, p.store, rep)

	want := countWALRecords(t, p.store)
	if got := rep.AppliedRecords(); got != want {
		t.Fatalf("replica applied %d records, primary WAL holds %d (duplicate or gap)", got, want)
	}

	// Lag returns to zero: caught up now, and the byte-lag gauge agrees.
	staleness, _, _, state := rep.Lag()
	if staleness < 0 || staleness > 10*time.Second {
		t.Fatalf("staleness after convergence = %v", staleness)
	}
	if state != "streaming" {
		t.Fatalf("state after convergence = %q, want streaming", state)
	}
}

// TestChaosFailoverPromote kills the primary outright, promotes the
// replica through the PROMOTE verb, and verifies writes continue against
// the promoted copy — with all pre-failover committed state intact.
func TestChaosFailoverPromote(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	must(t, p.store.AddClass("Animal", "Bird"))
	must(t, p.store.AddInstance("Animal", "Tweety", "Bird"))
	must(t, p.store.CreateRelation("Flies", catalog.AttrSpec{Name: "Creature", Domain: "Animal"}))
	must(t, p.store.Assert("Flies", "Bird"))

	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)
	preFailover := storage.Fingerprint(p.store.Database())

	// The replica serves read-only HQL sessions through its own server.
	repSrv := server.New(ReplicaTarget{R: rep}, server.Options{
		Repl:     rep,
		LagProbe: rep.Status,
		Promote:  rep.Promote,
	})
	if err := repSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start replica server: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		repSrv.Shutdown(ctx)
	}()

	cli, err := server.Dial(repSrv.Addr())
	if err != nil {
		t.Fatalf("Dial replica: %v", err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Reads work on the replica; writes are refused before promotion.
	if out, err := cli.Exec(ctx, "HOLDS Flies (Tweety);"); err != nil || out == "" {
		t.Fatalf("replica read = %q, %v", out, err)
	}
	if _, err := cli.Exec(ctx, "ASSERT Flies (Tweety);"); err == nil {
		t.Fatal("write on unpromoted replica succeeded")
	}

	// Kill the primary: sever its server and its store, hard.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	p.srv.Shutdown(shutCtx)
	shutCancel()
	must(t, p.store.Close())

	// Manual failover.
	if err := cli.Promote(ctx); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if got := storage.Fingerprint(rep.Database()); got != preFailover {
		t.Fatalf("promotion lost state:\nwant %s\ngot  %s", preFailover, got)
	}

	// Writes continue on the promoted replica.
	if _, err := cli.Exec(ctx, "INSTANCE Robin UNDER Bird; ASSERT Flies (Robin);"); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	out, err := cli.Exec(ctx, "HOLDS Flies (Robin);")
	if err != nil {
		t.Fatalf("read after promote: %v", err)
	}
	if out == "" {
		t.Fatal("promoted replica lost the post-failover write")
	}

	// The lag probe reports the promoted state to routers.
	li, err := cli.Lag(ctx)
	if err != nil {
		t.Fatalf("Lag: %v", err)
	}
	if li.State != "promoted" || li.Staleness != 0 || li.Source != "" {
		t.Fatalf("Lag after promote = %v/%q from %q, want 0/promoted with no upstream", li.Staleness, li.State, li.Source)
	}
}
