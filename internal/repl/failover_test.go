package repl

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/server"
	"hrdb/internal/storage"
)

// Self-healing failover acceptance tests: fencing terms, automatic
// election, and divergence-aware rejoin. Like chaos_test.go these run the
// real stack — durable stores, TCP servers, streaming replicas — because
// the properties under test (at-most-one-writable, acked-write survival,
// quarantined divergence) are properties of the integration.

// failoverNode is one replica node wired the way hrserved wires it: the
// replica itself and its one server — EXEC/LAG/PROMOTE for clients, and
// SNAP/REPL once promoted, so peers probe and follow the same address.
type failoverNode struct {
	rep *Replica
	srv *server.Server
}

// startNode builds a replica node following upstream. Peers are wired
// afterwards with SetPeers (their addresses don't exist yet).
func startNode(t *testing.T, upstream, id string, opts ReplicaOptions) *failoverNode {
	t.Helper()
	opts.ID = id
	if opts.DialTimeout == 0 {
		opts.DialTimeout = time.Second
	}
	if opts.ReconnectBackoff == 0 {
		opts.ReconnectBackoff = 10 * time.Millisecond
	}
	if opts.MaxBackoff == 0 {
		opts.MaxBackoff = 200 * time.Millisecond
	}
	rep := NewReplica(upstream, opts)
	t.Cleanup(func() { rep.Close() })

	srv := server.New(ReplicaTarget{R: rep}, server.Options{
		Repl:     rep,
		LagProbe: rep.Status,
		Promote:  rep.Promote,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start node server: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return &failoverNode{rep: rep, srv: srv}
}

// TestAutoFailoverElectsExactlyOne is acceptance test (a): kill the primary
// under a two-replica cluster with auto-failover on; within the election
// timeout exactly one replica promotes itself (never both — split-brain
// prevention), every write the primary acknowledged survives on the winner,
// and the loser retargets to the winner and converges.
func TestAutoFailoverElectsExactlyOne(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	must(t, p.store.AddClass("Animal", "Bird"))
	must(t, p.store.CreateRelation("Flies", catalog.AttrSpec{Name: "Creature", Domain: "Animal"}))
	must(t, p.store.Assert("Flies", "Bird"))

	opts := ReplicaOptions{
		AutoFailover:    true,
		ElectionTimeout: 300 * time.Millisecond,
	}
	o1, o2 := opts, opts
	o1.PromoteDir = t.TempDir()
	o2.PromoteDir = t.TempDir()
	n1 := startNode(t, p.srv.Addr(), "r1", o1)
	n2 := startNode(t, p.srv.Addr(), "r2", o2)
	n1.rep.SetPeers([]string{n2.srv.Addr()})
	n2.rep.SetPeers([]string{n1.srv.Addr()})

	waitConverged(t, p.store, n1.rep)
	waitConverged(t, p.store, n2.rep)
	must(t, p.store.AddInstance("Animal", "Tweety", "Bird"))
	waitConverged(t, p.store, n1.rep)
	waitConverged(t, p.store, n2.rep)
	acked := storage.Fingerprint(p.store.Database())

	// Kill the primary outright: server and store.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	p.srv.Shutdown(shutCtx)
	shutCancel()
	must(t, p.store.Close())

	// Wait for a winner, asserting at-most-one-writable on every poll.
	deadline := time.Now().Add(15 * time.Second)
	var winner, loser *failoverNode
	for {
		p1, p2 := n1.rep.Promoted(), n2.rep.Promoted()
		if p1 && p2 {
			t.Fatal("split brain: both replicas promoted")
		}
		if p1 {
			winner, loser = n1, n2
			break
		}
		if p2 {
			winner, loser = n2, n1
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no replica promoted after primary death")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The winner holds a durable store under a new fencing term with every
	// acknowledged write intact.
	st := winner.rep.Store()
	if st == nil {
		t.Fatal("winner promoted without a durable store")
	}
	if st.Term() == 0 {
		t.Fatal("winner's store carries no fencing term")
	}
	if got := storage.Fingerprint(st.Database()); got != acked {
		t.Fatalf("acked writes lost in failover:\nwant %s\ngot  %s", acked, got)
	}

	// The loser must stand down for good (keep asserting while the cluster
	// settles), retarget to the winner, and converge — including a write
	// committed only after the failover.
	must(t, st.AddInstance("Animal", "Robin", "Bird"))
	settled := time.Now().Add(2 * time.Second)
	for time.Now().Before(settled) {
		if loser.rep.Promoted() {
			t.Fatal("split brain: loser promoted after winner")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitConverged(t, st, loser.rep)
	if loser.rep.Term() != winner.rep.Term() {
		t.Fatalf("loser term %d, winner term %d", loser.rep.Term(), winner.rep.Term())
	}
}

// TestFencedPrimaryRejectsWritesStale is acceptance test (b): a replica
// promotes while the old primary is still alive and serving. The promotion
// fences the old primary (the fencing REPL probe carries the new term), so
// client writes against it fail with the retryable "stale" error instead of
// forking history — at most one node is writable throughout.
func TestFencedPrimaryRejectsWritesStale(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	must(t, p.store.AddClass("Animal", "Bird"))

	n1 := startNode(t, p.srv.Addr(), "r1", ReplicaOptions{PromoteDir: t.TempDir()})
	waitConverged(t, p.store, n1.rep)

	cli, err := server.Dial(p.srv.Addr())
	if err != nil {
		t.Fatalf("Dial primary: %v", err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cli.Exec(ctx, "INSTANCE Tweety UNDER Bird;"); err != nil {
		t.Fatalf("write before failover: %v", err)
	}
	waitConverged(t, p.store, n1.rep)

	// Manual promotion while the primary is alive. The promote path sends
	// the fencing probe to the old primary's address.
	if err := n1.rep.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.store.FencedBy() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("old primary never fenced after replica promotion")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Post-deposition writes are rejected with the retryable stale code —
	// both over the wire and straight at the store.
	if _, err := cli.Exec(ctx, "INSTANCE Robin UNDER Bird;"); !errors.Is(err, server.ErrStaleReplica) {
		t.Fatalf("write on fenced primary = %v, want ErrStaleReplica", err)
	}
	var se *server.ServerError
	if _, err := cli.Exec(ctx, "INSTANCE Robin UNDER Bird;"); !errors.As(err, &se) || string(se.Code) != "stale" {
		t.Fatalf("write on fenced primary = %v, want ERR stale", err)
	}
	if err := p.store.AddInstance("Animal", "Robin", "Bird"); !errors.Is(err, storage.ErrDeposed) {
		t.Fatalf("direct store write = %v, want ErrDeposed", err)
	}
	// Reads still work on the fenced store (it is a valid, stale copy).
	if _, err := p.store.Database().Hierarchy("Animal"); err != nil {
		t.Fatalf("read on fenced store: %v", err)
	}

	// Exactly one writable node: the promoted replica.
	if !n1.rep.Promoted() {
		t.Fatal("replica not promoted")
	}
	must(t, n1.rep.Store().AddInstance("Animal", "Robin", "Bird"))
}

// TestDeposedPrimaryQuarantinesAndRejoins is acceptance test (c): the old
// primary keeps committing after its replica's view was frozen, the replica
// promotes (its takeover point predates those commits), and the deposed
// primary then rejoins — its divergent WAL suffix must land in a quarantine
// sidecar, its store must re-bootstrap from the winner, and the rejoined
// node must converge to the winner's fingerprint.
func TestDeposedPrimaryQuarantinesAndRejoins(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	closed := false
	defer func() {
		if !closed {
			st.Close()
		}
	}()
	prim := NewPrimary(st, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
	srv := server.New(st, server.Options{Repl: prim})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	must(t, st.CreateHierarchy("Animal"))
	must(t, st.AddClass("Animal", "Bird"))

	// The replica follows through a proxy so its view can be frozen while
	// the primary keeps committing.
	proxy, err := server.NewChaosProxy(srv.Addr())
	if err != nil {
		t.Fatalf("NewChaosProxy: %v", err)
	}
	defer proxy.Close()
	n1 := startNode(t, proxy.Addr(), "r1", ReplicaOptions{PromoteDir: t.TempDir()})
	waitConverged(t, st, n1.rep)

	// Freeze the stream, then commit a divergent suffix only the primary
	// ever sees.
	proxy.DropResponses(true)
	must(t, st.AddInstance("Animal", "Lost1", "Bird"))
	must(t, st.AddInstance("Animal", "Lost2", "Bird"))

	// The replica promotes at its frozen position: the takeover point
	// predates the Lost* commits, so history forks here.
	if err := n1.rep.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	winSt := n1.rep.Store()
	must(t, winSt.AddInstance("Animal", "PostFailover", "Bird"))

	// The deposed primary rejoins: probe the cluster, discover the higher
	// term, quarantine the divergent suffix, dismantle the store.
	dep := CheckDeposed(st, []string{n1.srv.Addr()}, 2*time.Second)
	if dep == nil {
		t.Fatal("CheckDeposed found no deposition")
	}
	if dep.Term != n1.rep.Term() {
		t.Fatalf("deposition term = %d, want %d", dep.Term, n1.rep.Term())
	}
	if dep.Primary != n1.srv.Addr() {
		t.Fatalf("deposition primary = %q, want %q", dep.Primary, n1.srv.Addr())
	}
	// CheckDeposed fences immediately: no more commits on the loser.
	if err := st.AddInstance("Animal", "Lost3", "Bird"); !errors.Is(err, storage.ErrDeposed) {
		t.Fatalf("write after CheckDeposed = %v, want ErrDeposed", err)
	}

	quarantine, err := Demote(st, dep, 2*time.Second)
	if err != nil {
		t.Fatalf("Demote: %v", err)
	}
	closed = true
	if quarantine == "" {
		t.Fatal("divergent suffix produced no quarantine file")
	}

	// The sidecar holds exactly the forked history: decodable WAL records
	// naming the Lost* instances.
	raw, err := os.ReadFile(quarantine)
	if err != nil {
		t.Fatalf("read quarantine: %v", err)
	}
	rd := storage.NewReader(storage.Position{})
	rd.Feed(raw)
	var names []string
	for {
		c, ok, err := rd.Next()
		if err != nil {
			t.Fatalf("decode quarantine: %v", err)
		}
		if !ok {
			break
		}
		for _, op := range c.Ops {
			names = append(names, strings.Join(op.Values, " "))
		}
	}
	joined := strings.Join(names, "\n")
	if !strings.Contains(joined, "Lost1") || !strings.Contains(joined, "Lost2") {
		t.Fatalf("quarantine misses the divergent records:\n%s", joined)
	}
	if strings.Contains(joined, "Tweety") {
		t.Fatalf("quarantine contains replicated history:\n%s", joined)
	}

	// The store files are gone (fresh bootstrap territory); the sidecar
	// survives for the operator.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(quarantine) {
			t.Fatalf("store file %s survived demotion", e.Name())
		}
	}

	// Rejoin as a replica of the winner and converge to its fingerprint —
	// which includes the post-failover write and excludes the quarantined
	// suffix.
	rejoined := startReplica(t, dep.Primary)
	waitConverged(t, winSt, rejoined)
	if _, err := rejoined.Database().Hierarchy("Animal"); err != nil {
		t.Fatalf("rejoined replica state: %v", err)
	}
}

// TestBootstrapDuringCheckpointRotation is the follower-bootstrap vs
// checkpoint-rotation race (satellite S3): replicas that bootstrap while
// the primary checkpoints concurrently — possibly landing on an epoch that
// is checkpointed away before their stream starts — must converge anyway
// (via ROTATE or a stale re-bootstrap), never wedge or desync.
func TestBootstrapDuringCheckpointRotation(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond, ChunkBytes: 64})
	must(t, p.store.CreateHierarchy("D"))
	must(t, p.store.AddClass("D", "C"))

	rounds := chaosRounds(t, 15, 5)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := p.store.AddInstance("D", fmt.Sprintf("i%03d", i), "C"); err != nil {
				done <- err
				return
			}
			if err := p.store.Checkpoint(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// Replicas arrive while epochs churn underneath their bootstraps.
	rep1 := startReplica(t, p.srv.Addr())
	time.Sleep(5 * time.Millisecond)
	rep2 := startReplica(t, p.srv.Addr())
	if err := <-done; err != nil {
		t.Fatalf("workload: %v", err)
	}
	waitConverged(t, p.store, rep1)
	waitConverged(t, p.store, rep2)
}

// TestReplicaStateGaugeAndLagUnknown pins the S2 metrics fix: the
// per-state gauge tracks the lifecycle with exactly one state set, and the
// byte-lag gauge reports -1 (unknown) when the durable high-water mark
// lives in a different epoch than the applied position — not 0, which used
// to make "arbitrarily stale" indistinguishable from "caught up".
func TestReplicaStateGaugeAndLagUnknown(t *testing.T) {
	gaugeIs := func(state string) bool {
		for s, g := range replicaStateGauges {
			want := int64(0)
			if s == state {
				want = 1
			}
			if g.Value() != want {
				return false
			}
		}
		return true
	}
	waitGauge := func(state string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !gaugeIs(state) {
			if time.Now().After(deadline) {
				t.Fatalf("state gauge never settled on %q", state)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)
	waitGauge("streaming")
	if metricLagBytes.Value() != 0 {
		t.Fatalf("caught-up lag gauge = %d, want 0", metricLagBytes.Value())
	}

	// Unknown lag: the high-water mark moves to another epoch while the
	// applied position stays behind — no byte distance exists.
	rep.mu.Lock()
	rep.pos = storage.Position{Epoch: 0, Offset: 10}
	rep.highWater = storage.Position{Epoch: 0, Offset: 10}
	rep.mu.Unlock()
	rep.observe(storage.Position{Epoch: 2, Offset: 4}, 0)
	if metricLagBytes.Value() != -1 {
		t.Fatalf("cross-epoch lag gauge = %d, want -1 (unknown)", metricLagBytes.Value())
	}
	// Same epoch: a real byte distance.
	rep.mu.Lock()
	rep.highWater = storage.Position{Epoch: 0, Offset: 10}
	rep.mu.Unlock()
	rep.observe(storage.Position{Epoch: 0, Offset: 25}, 0)
	if metricLagBytes.Value() != 15 {
		t.Fatalf("same-epoch lag gauge = %d, want 15", metricLagBytes.Value())
	}

	must(t, rep.Close())
	waitGauge("stopped")
}
