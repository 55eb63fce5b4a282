package repl

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/hql"
	"hrdb/internal/obs"
	"hrdb/internal/server"
	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// This file is the replication test harness plus the streaming unit tests;
// the chaos/failover acceptance tests live in chaos_test.go. Tests build a
// real primary — durable store, Primary source, network server — and real
// replicas streaming over TCP, because the subsystem's value is exactly
// the integration: resume positions surviving reconnects, rotation across
// checkpoints, and snapshot re-bootstrap when the WAL is gone.

// primaryHarness is a running primary: a durable store served over TCP
// with replication enabled.
type primaryHarness struct {
	store *storage.Store
	prim  *Primary
	srv   *server.Server
}

func startPrimary(t *testing.T, popts PrimaryOptions) *primaryHarness {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	prim := NewPrimary(st, popts)
	srv := server.New(st, server.Options{Repl: prim})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return &primaryHarness{store: st, prim: prim, srv: srv}
}

// startReplica follows addr and tears down with the test.
func startReplica(t *testing.T, addr string) *Replica {
	t.Helper()
	rep := NewReplica(addr, ReplicaOptions{
		DialTimeout:      time.Second,
		ReconnectBackoff: 10 * time.Millisecond,
		MaxBackoff:       200 * time.Millisecond,
	})
	t.Cleanup(func() { rep.Close() })
	return rep
}

// waitConverged blocks until the replica has applied everything the
// primary's store holds (positions equal and recently confirmed), then
// compares logical fingerprints.
func waitConverged(t *testing.T, st *storage.Store, rep *Replica) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		pe, po := st.Position()
		st := rep.Status()
		if st.Staleness >= 0 && st.Epoch == pe && st.Offset == po {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: primary at %d/%d, replica %s at %d/%d (staleness %v, %d records applied)",
				pe, po, st.State, st.Epoch, st.Offset, st.Staleness, rep.AppliedRecords())
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := storage.Fingerprint(st.Database())
	got := storage.Fingerprint(rep.Database())
	if got != want {
		t.Fatalf("replica diverged:\nprimary: %s\nreplica: %s", want, got)
	}
}

// seriesMark reads the replication series whose values the one change
// stream must not move; since returns how far each counter has advanced.
type seriesMark struct{ shipped, appliedRecs, appliedBytes uint64 }

func markSeries() seriesMark {
	return seriesMark{metricShippedBytes.Value(), metricAppliedRecs.Value(), metricAppliedBytes.Value()}
}

func (m seriesMark) since() seriesMark {
	now := markSeries()
	return seriesMark{now.shipped - m.shipped, now.appliedRecs - m.appliedRecs, now.appliedBytes - m.appliedBytes}
}

// lagGaugesSettle waits for the caught-up replica's lag gauges to read zero
// (they are set by the frame after the one that moves the position).
func lagGaugesSettle(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); metricLagBytes.Value() != 0 || metricLagRecords.Value() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("caught up, but lag gauges read %d bytes / %d records", metricLagBytes.Value(), metricLagRecords.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replayedOnReopen closes the primary's store, reopens its directory and
// returns how far hrdb_storage_replay_records_total moved.
func replayedOnReopen(t *testing.T, st *storage.Store) uint64 {
	t.Helper()
	replay := obs.Default().Counter("hrdb_storage_replay_records_total")
	must(t, st.Close())
	before := replay.Value()
	st2, err := storage.Open(st.Dir())
	must(t, err)
	defer st2.Close()
	return replay.Value() - before
}

func TestReplicaBootstrapAndStream(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	must(t, p.store.AddClass("Animal", "Bird"))
	must(t, p.store.AddInstance("Animal", "Tweety", "Bird"))

	series := markSeries()
	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)
	_, bootOffset := p.store.Position()

	// Writes after the bootstrap arrive via the live stream.
	must(t, p.store.AddClass("Animal", "Penguin", "Bird"))
	must(t, p.store.AddInstance("Animal", "Paul", "Penguin"))
	waitConverged(t, p.store, rep)

	// Transactions apply atomically: a committed bracket lands whole.
	must(t, p.store.CreateRelation("Flies", catalog.AttrSpec{Name: "Creature", Domain: "Animal"}))
	must(t, p.store.ApplyTx([]catalog.TxOp{
		{Kind: "assert", Relation: "Flies", Values: []string{"Bird"}},
		{Kind: "deny", Relation: "Flies", Values: []string{"Penguin"}},
	}))
	waitConverged(t, p.store, rep)

	if n := rep.AppliedRecords(); n == 0 {
		t.Fatal("replica applied no records over the stream")
	}

	// The series read what they always read on this input: records count
	// bracket markers (3 bare + tx_begin, 2 ops, tx_commit after the
	// bootstrap), bytes are the log's, and a reopen replays all ten records.
	_, end := p.store.Position()
	want := seriesMark{shipped: uint64(end - bootOffset), appliedRecs: 7, appliedBytes: uint64(end - bootOffset)}
	if got := series.since(); got != want || rep.AppliedRecords() != 7 {
		t.Fatalf("series moved by %+v (replica counts %d records), want %+v", got, rep.AppliedRecords(), want)
	}
	lagGaugesSettle(t)
	if n := replayedOnReopen(t, p.store); n != 10 {
		t.Fatalf("reopen replayed %d records, want 10", n)
	}
}

func TestReplicaMutationsRejectedUntilPromoted(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)

	target := ReplicaTarget{R: rep}
	plant := op(catalog.KindCreateHierarchy, "Plant")
	if _, err := target.Apply(plant); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("create_hierarchy on replica = %v, want ErrReadOnlyReplica", err)
	}
	if _, err := target.Apply(op(catalog.KindAssert, "Flies", "Bird")); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("assert on replica = %v, want ErrReadOnlyReplica", err)
	}

	if err := rep.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if _, err := target.Apply(plant); err != nil {
		t.Fatalf("create_hierarchy after promote: %v", err)
	}
	if st := rep.Status(); st.Staleness != 0 || st.State != "promoted" {
		t.Fatalf("Status after promote = %v/%s, want 0/promoted", st.Staleness, st.State)
	}
}

// TestPromotedReplicaRepliesOnlyItsOwnWarnings: a replica applying a
// streamed warn-policy deny has no one to warn, so after promotion its first
// write replies with that write's warnings only.
func TestPromotedReplicaRepliesOnlyItsOwnWarnings(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
	primary := hql.NewSession(p.store)
	_, err := primary.Exec("CREATE HIERARCHY D; CLASS A UNDER D; INSTANCE x UNDER A; INSTANCE y UNDER A; CREATE RELATION R (X: D); ASSERT R (A);")
	must(t, err)
	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)

	// The deny reaches the replica over the live stream, not the snapshot.
	out, err := primary.Exec("SET POLICY warn; DENY R (x);")
	must(t, err)
	if !strings.Contains(out, "warning: exception: (x)") {
		t.Fatalf("primary's deny replied %q, want its warning", out)
	}
	waitConverged(t, p.store, rep)
	must(t, rep.Promote())
	out, err = hql.NewSession(ReplicaTarget{R: rep}).Exec("ASSERT R (y);")
	must(t, err)
	if out != "asserted R(y)\n" {
		t.Fatalf("first write on the promoted replica replied %q, want no warning", out)
	}
}

func TestReplicaRotatesAcrossCheckpoint(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	must(t, p.store.AddClass("Animal", "Bird"))
	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)

	// Checkpoint while the replica is caught up: the stream crosses the
	// epoch boundary with a ROTATE, no re-bootstrap.
	series := markSeries()
	boots := rep.bootstraps()
	must(t, p.store.Checkpoint())
	must(t, p.store.AddInstance("Animal", "Tweety", "Bird"))
	waitConverged(t, p.store, rep)
	_, end1 := p.store.Position()
	if e, _ := p.store.Position(); e != 1 {
		t.Fatalf("primary epoch = %d, want 1", e)
	}
	if got := rep.bootstraps(); got != boots {
		t.Fatalf("replica re-bootstrapped across a caught-up checkpoint (%d -> %d)", boots, got)
	}

	// And again, to cover retired-epoch catch-up bookkeeping.
	must(t, p.store.Checkpoint())
	must(t, p.store.AddInstance("Animal", "Robin", "Bird"))
	waitConverged(t, p.store, rep)

	// A rotation ships and applies no bytes of its own: the series moved by
	// the two one-record epochs, and a reopen replays the last one.
	_, end2 := p.store.Position()
	want := seriesMark{shipped: uint64(end1 + end2), appliedRecs: 2, appliedBytes: uint64(end1 + end2)}
	if got := series.since(); got != want {
		t.Fatalf("series moved by %+v, want %+v", got, want)
	}
	lagGaugesSettle(t)
	if n := replayedOnReopen(t, p.store); n != 1 {
		t.Fatalf("reopen replayed %d records, want 1", n)
	}
}

// TestReplicaFollowsDerivedRelation: an `… AS` result is logged like any
// relation, so a streaming replica creates it, fills it and applies a write
// to it — one that the primary logs after a checkpoint has snapshotted the
// relation.
func TestReplicaFollowsDerivedRelation(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
	sess := hql.NewSession(p.store)
	exec := func(script string) {
		t.Helper()
		if _, err := sess.Exec(script); err != nil {
			t.Fatalf("%s: %v", script, err)
		}
	}
	exec(`CREATE HIERARCHY Animal;
		CLASS Bird IN Animal;
		INSTANCE Tweety UNDER Bird;
		INSTANCE Robin UNDER Bird;
		CREATE RELATION Flies (Creature: Animal);
		ASSERT Flies (Bird);`)
	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)

	exec("SELECT FROM Flies WHERE Creature UNDER Bird AS B;")
	must(t, p.store.Checkpoint())
	exec("DENY B (Robin);")
	waitConverged(t, p.store, rep)
	if ok, err := rep.Database().Holds("B", "Robin"); err != nil || ok {
		t.Fatalf("replica B(Robin) = %v, %v; want false", ok, err)
	}
}

// TestReplicaAppliesParentPrimaryStream: testdata/pr15_primary_stream.bin is
// the stream the primary of commit 8332a0f wrote to a follower that asked
// for 0/0 — SHIP frames cut mid-record, heartbeats, a term change, a ROTATE —
// over a log holding bare records, a committed bracket, a one-op flip, an
// aborted bracket and a new_term. That primary spoke the text stream
// framing; the fixture re-frames each of its frames, in order, as the
// binary frame of the same kind carrying the same term, position and WAL
// bytes (REPL request id 1). A replica fed it reaches the fingerprint and
// position that primary recorded (pr15_primary_stream.txt).
func TestReplicaAppliesParentPrimaryStream(t *testing.T) {
	raw, err := os.ReadFile("testdata/pr15_primary_stream.bin")
	must(t, err)
	recorded, err := os.ReadFile("testdata/pr15_primary_stream.txt")
	must(t, err)
	var want storage.Position
	pos, fingerprint, _ := strings.Cut(strings.TrimSpace(string(recorded)), "\n")
	if _, err := fmt.Sscanf(pos, "%d %d", &want.Epoch, &want.Offset); err != nil {
		t.Fatal(err)
	}

	// The capture's frames carry REPL id 1: the id of a connection's first
	// request. The primary sends them, collects the ACKs until the follower
	// falls silent, and hangs up.
	acked := make(chan []byte, 1)
	addr := scriptedPrimary(t, func(c net.Conn, br *bufio.Reader, _ wire.Frame) {
		c.Write(raw)
		var acks []byte
		for {
			c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
			f, err := wire.ReadFrame(br, 64)
			if err != nil {
				break
			}
			acks = wire.AppendFrame(acks, f)
		}
		acked <- acks
	})
	rep := &Replica{db: catalog.New(), ctx: context.Background()}
	err = rep.follow(dialStream(t, addr), rep.db, storage.Position{})
	acks := bytes.NewBuffer(<-acked)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("follow = %v, want EOF at the end of the capture", err)
	}
	if rep.pos != want || rep.term != 2 {
		t.Fatalf("replica at %+v term %d, want %+v term 2", rep.pos, rep.term, want)
	}
	if got := storage.Fingerprint(rep.db); got != fingerprint {
		t.Fatalf("replica diverged from the recorded primary:\n got: %s\nwant: %s", got, fingerprint)
	}
	// One ACK per frame, on the stream's request id; the last acknowledges
	// the recorded position under term 2.
	ackFrame := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeAck, ID: 1,
		Payload: wire.AppendStreamPos(nil, wire.StreamPos{Term: 2, Epoch: want.Epoch, Offset: want.Offset})})
	if !bytes.HasSuffix(acks.Bytes(), ackFrame) || acks.Len() != 49*len(ackFrame) {
		t.Fatalf("ACKs = %d bytes ending %x, want 49 frames ending %x", acks.Len(), acks.Bytes()[max(0, acks.Len()-len(ackFrame)):], ackFrame)
	}
}

// TestReplicaResumesOverflowedStream: a scripted primary ships a real WAL in
// 16-byte SHIP chunks while the applier is held back, so the follower's
// queue overflows. The follower cancels the REPL and sends another on the
// same connection from the next byte it expects — one chunk past the last
// frame it acknowledged — until a request's frames fit its queue; it ends at
// the primary's position, term, fingerprint and record count, so nothing was
// skipped or applied twice. A bracket spanning more chunks than the queue
// holds completes the same way.
func TestReplicaResumesOverflowedStream(t *testing.T) {
	const (
		chunk = 16
		queue = 64 // frames a wire.Conn queues per feed
	)
	for _, row := range []struct {
		name  string
		build func(t *testing.T, st *storage.Store)
	}{
		{"bare records", func(t *testing.T, st *storage.Store) {
			must(t, st.CreateHierarchy("Animal"))
			for i := 0; i < 40; i++ {
				must(t, st.AddClass("Animal", fmt.Sprintf("C%d", i)))
			}
		}},
		{"one bracket over the queue", func(t *testing.T, st *storage.Store) {
			must(t, st.CreateHierarchy("Animal"))
			must(t, st.CreateRelation("Flies", catalog.AttrSpec{Name: "Creature", Domain: "Animal"}))
			var tx []catalog.TxOp
			for i := 0; i < 40; i++ {
				must(t, st.AddClass("Animal", fmt.Sprintf("C%d", i)))
				tx = append(tx, catalog.TxOp{Kind: "assert", Relation: "Flies", Values: []string{fmt.Sprintf("C%d", i)}})
			}
			must(t, st.ApplyTx(tx))
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			st, err := storage.Open(t.TempDir())
			must(t, err)
			defer st.Close()
			row.build(t, st)
			epoch, end := st.Position()
			var wal []byte
			for int64(len(wal)) < end {
				b, err := st.ReadWAL(epoch, int64(len(wal)), 1<<20)
				must(t, err)
				wal = append(wal, b...)
			}
			whole := storage.NewReader(storage.Position{Epoch: epoch})
			whole.Feed(wal)
			for {
				_, ok, err := whole.Next()
				must(t, err)
				if !ok {
					break
				}
			}
			term := st.Term()

			rep := &Replica{db: catalog.New(), ctx: context.Background()}
			hold, held, release := make(chan bool), make(chan bool), make(chan bool)
			go func() {
				for range hold {
					rep.mu.Lock()
					held <- true
					<-release
					rep.mu.Unlock()
				}
			}()
			defer close(hold)

			type attempt struct {
				from int64 // what the REPL asked for
				acks int   // ACKs on its id before the next REPL
				over bool  // a CANCEL came for it
			}
			var attempts []attempt
			script := func(c net.Conn, br *bufio.Reader, req wire.Frame) error {
				for {
					from, err := wire.ParseStreamPos(req.Payload)
					if err != nil || from.Epoch != epoch {
						return fmt.Errorf("REPL %+v: %v", from, err)
					}
					if len(attempts) == 30 {
						return errors.New("catch-up made no progress")
					}
					attempts = append(attempts, attempt{from: from.Offset})
					cur := &attempts[len(attempts)-1]
					hold <- true
					<-held
					n := 0
					for off := from.Offset; off < end; off += chunk {
						ship := wire.ShipPayload(wire.StreamPos{Term: term, Epoch: epoch, Offset: off}, wal[off:min(off+chunk, end)])
						if err := wire.WriteFrame(c, wire.Frame{Type: wire.TypeShip, ID: req.ID, Payload: ship}); err != nil {
							release <- true
							return err
						}
						n++
					}
					// One frame in the applier's hand and a full queue: any
					// more overflow, and the CANCEL comes while it is held.
					for n > queue+1 && !cur.over {
						f, err := wire.ReadFrame(br, 64)
						if err != nil {
							release <- true
							return err
						}
						cur.over = f.Type == wire.TypeCancel && f.ID == req.ID
					}
					release <- true
					if cur.over {
						wire.WriteFrame(c, wire.ErrFrame(req.ID, 0, "canceled", 0, "stream ended"))
					}
					for next := false; !next; {
						f, err := wire.ReadFrame(br, 64)
						if err != nil {
							return err
						}
						switch {
						case f.Type == wire.TypeRepl:
							req, next = f, true
						case f.Type == wire.TypeAck && f.ID == req.ID:
							cur.acks++
							if at, err := wire.ParseStreamPos(f.Payload); err == nil && at.Offset == end {
								return nil // caught up: hang up
							}
						}
					}
				}
			}
			done := make(chan error, 1)
			addr := scriptedPrimary(t, func(c net.Conn, br *bufio.Reader, req wire.Frame) { done <- script(c, br, req) })
			err = rep.follow(dialStream(t, addr), rep.db, storage.Position{Epoch: epoch})
			if serr := <-done; serr != nil {
				t.Fatalf("primary: %v (attempts %+v)", serr, attempts)
			}
			if !errors.Is(err, io.EOF) {
				t.Fatalf("follow = %v, want EOF once the primary hangs up", err)
			}
			if len(attempts) < 2 || !attempts[0].over {
				t.Fatalf("attempts %+v: the first REPL never overflowed", attempts)
			}
			for i, a := range attempts[1:] {
				prev := attempts[i]
				if !prev.over || prev.acks < queue || a.from != prev.from+int64(prev.acks*chunk) {
					t.Fatalf("REPL %d asked for %d after %+v, want a CANCEL, at least %d ACKs, and the chunk after the last ACKed", i+1, a.from, prev, queue)
				}
			}
			want := storage.Position{Epoch: epoch, Offset: end}
			if rep.pos != want || rep.term != term || rep.applied != whole.Records() {
				t.Fatalf("replica at %+v term %d with %d records, want %+v term %d with %d", rep.pos, rep.term, rep.applied, want, term, whole.Records())
			}
			if got, want := storage.Fingerprint(rep.db), storage.Fingerprint(st.Database()); got != want {
				t.Fatalf("replica diverged:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// scriptedPrimary stands in for a primary on a loopback port: it accepts
// one connection, completes its HELLO, reads its first request (the REPL)
// and hands it and the rest of the conversation to script, then hangs up.
func scriptedPrimary(t *testing.T, script func(c net.Conn, br *bufio.Reader, req wire.Frame)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(t, err)
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		if _, err := wire.ReadHello(br); err != nil || wire.WriteHelloOK(c, "v2 tenant=default") != nil {
			return
		}
		if req, err := wire.ReadFrame(br, 64); err == nil {
			script(c, br, req)
		}
	}()
	return ln.Addr().String()
}

// dialStream dials addr the way a replica's stream does.
func dialStream(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	cc, err := dial(context.Background(), addr, 5*time.Second, maxSnapshotBytes)
	must(t, err)
	t.Cleanup(func() { cc.Close() })
	return cc
}

// openRepl dials addr and opens a REPL stream from the start of the log.
func openRepl(t *testing.T, addr string) *wire.Feed {
	t.Helper()
	fd, err := dialStream(t, addr).Open(wire.TypeRepl, wire.AppendStreamPos(nil, wire.StreamPos{}), maxStreamFrame)
	must(t, err)
	return fd
}

// bootstraps returns how many snapshot bootstraps this replica has done
// (test helper on the package-global metric is useless once several
// replicas run in one process, so count per replica).
func (r *Replica) bootstraps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nBootstraps
}

func TestPrimaryServesRetiredEpochTail(t *testing.T) {
	// A follower that stops mid-epoch and reconnects after a checkpoint
	// whose GC failed (old WAL still on disk) must be able to finish the
	// retired epoch from the file and ROTATE forward.
	dir := t.TempDir()
	fs := storage.NewFaultFS(storage.OsFS{})
	st, err := storage.OpenOptions(dir, storage.Options{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	prim := NewPrimary(st, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
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

	// Checkpoint with Remove suppressed: epoch 0's WAL survives on disk.
	fs.FailRemove(true)
	if err := st.Checkpoint(); !errors.Is(err, storage.ErrCheckpointGC) {
		t.Fatalf("Checkpoint with failing remove = %v, want ErrCheckpointGC", err)
	}
	fs.FailRemove(false)
	must(t, st.AddInstance("Animal", "Tweety", "Bird"))

	// A replica bootstrapping now starts at epoch 1; but a follower asking
	// for epoch 0 from offset 0 replays the retired file, then rotates.
	rep := startReplica(t, srv.Addr())
	waitConverged(t, st, rep)
}

func TestStaleFollowerRebootstraps(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	must(t, p.store.AddClass("Animal", "Bird"))

	proxy, err := server.NewChaosProxy(p.srv.Addr())
	if err != nil {
		t.Fatalf("NewChaosProxy: %v", err)
	}
	defer proxy.Close()

	rep := startReplica(t, proxy.Addr())
	waitConverged(t, p.store, rep)
	boots := rep.bootstraps()

	// Black-hole the stream so the replica holds its epoch-0 position
	// while the primary checkpoints (removing epoch 0's WAL) and keeps
	// writing.
	proxy.DropResponses(true)
	must(t, p.store.AddInstance("Animal", "Tweety", "Bird"))
	must(t, p.store.Checkpoint())
	must(t, p.store.AddInstance("Animal", "Robin", "Bird"))

	// Sever: the replica reconnects with its stale epoch-0 position, is
	// told "stale", re-bootstraps from a fresh snapshot, and converges.
	proxy.DropResponses(false)
	proxy.KillAll()
	waitConverged(t, p.store, rep)
	if got := rep.bootstraps(); got <= boots {
		t.Fatalf("expected a snapshot re-bootstrap after stale rejection (bootstraps %d -> %d)", boots, got)
	}
}

func TestPrimaryAckTracking(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)

	deadline := time.Now().Add(5 * time.Second)
	pe, po := p.store.Position()
	for {
		ae, ao := p.prim.AckedPosition()
		if ae == pe && ao == po {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never saw the caught-up ack: want %d/%d, acked %d/%d", pe, po, ae, ao)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = rep
}

func TestLagVerbOverClient(t *testing.T) {
	// LAG end-to-end: replica server exposes its probe; a client parses it.
	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
	must(t, p.store.CreateHierarchy("Animal"))
	rep := startReplica(t, p.srv.Addr())
	waitConverged(t, p.store, rep)

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
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	li, err := cli.Lag(ctx)
	if err != nil {
		t.Fatalf("Lag: %v", err)
	}
	if li.State != "streaming" {
		t.Fatalf("Lag state = %q, want streaming", li.State)
	}
	if li.Staleness < 0 {
		t.Fatalf("Lag staleness = %v, want known (>= 0)", li.Staleness)
	}
	pe, po := p.store.Position()
	if li.Epoch != pe || li.Offset != po {
		t.Fatalf("Lag position = %d/%d, want %d/%d", li.Epoch, li.Offset, pe, po)
	}
	if li.Source != p.srv.Addr() {
		t.Fatalf("Lag source = %q, want the upstream %q", li.Source, p.srv.Addr())
	}

	// PROMOTE over the wire flips the replica writable; it has no upstream
	// any more, and its own address is the one to follow.
	if err := cli.Promote(ctx); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if !rep.Promoted() {
		t.Fatal("replica not promoted after PROMOTE verb")
	}
	if li, err := cli.Lag(ctx); err != nil || li.Source != "" {
		t.Fatalf("Lag after promote = %+v, %v; want no source", li, err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}
