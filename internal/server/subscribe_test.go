package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"hrdb/internal/repl"
	"hrdb/internal/shard"
	"hrdb/internal/storage"
	"hrdb/internal/view"
	"hrdb/internal/wire"
)

// newSubscribeServer starts a server whose target carries a view manager
// wired as the SUBSCRIBE source, seeded with a small hierarchy, a relation
// and one materialized view over it.
func newSubscribeServer(t *testing.T, opts Options) (*Server, *view.Manager) {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := view.Open(st, view.Options{Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	opts.Subscribe = m
	opts.CloseTarget = true
	srv := New(view.NewTarget(st, m), opts)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Exec(ctx, `
		CREATE HIERARCHY Animal;
		CLASS bird IN Animal; CLASS mammal IN Animal;
		INSTANCE tweety UNDER bird; INSTANCE rex UNDER mammal;
		CREATE RELATION flies (who: Animal);
		ASSERT flies (bird);
		CREATE MATERIALIZED VIEW flat AS EXTENSION flies;
	`); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return srv, m
}

// nextChange fetches the next change with a bounded wait.
func nextChange(t *testing.T, sub *Subscription) SubChange {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return ch
}

// TestSubscribeV2 is the end-to-end feed contract: snapshot first, then
// exactly the committed deltas, then resume from a recorded position
// without gaps or duplicates.
func TestSubscribeV2(t *testing.T) {
	srv, _ := newSubscribeServer(t, Options{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	sub, err := c.Subscribe("flat")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	snap := nextChange(t, sub)
	if snap.Kind != "snapshot" {
		t.Fatalf("first change = %q, want snapshot", snap.Kind)
	}
	if got := strings.Join(snap.Rows, ","); got != "(tweety)" {
		t.Fatalf("snapshot rows = %q, want (tweety)", got)
	}

	if _, err := c.Exec(ctx, "INSTANCE polly UNDER bird;"); err != nil {
		t.Fatal(err)
	}
	d := nextChange(t, sub)
	if d.Kind != "delta" {
		t.Fatalf("change = %q, want delta", d.Kind)
	}
	if got := strings.Join(d.Added, ","); got != "(polly)" || len(d.Removed) != 0 {
		t.Fatalf("delta = +%v -%v, want +[(polly)] -[]", d.Added, d.Removed)
	}

	// Subscription metrics: one live feed, at least one ever started.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "hrdb_server_subscribe_streams_active 1") {
		t.Fatalf("stats missing active feed gauge:\n%s", grepMetric(stats, "subscribe"))
	}
	if !strings.Contains(stats, "hrdb_server_subscribe_streams_total") {
		t.Fatalf("stats missing feed counter:\n%s", grepMetric(stats, "subscribe"))
	}

	// Resume: a second subscriber from the delta's position sees only what
	// comes after it — no replayed snapshot, no duplicate delta.
	sub.Close()
	if _, err := c.Exec(ctx, "ASSERT flies (rex);"); err != nil {
		t.Fatal(err)
	}
	sub2, err := c.SubscribeFrom("flat", d.Epoch, d.Offset)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	d2 := nextChange(t, sub2)
	if d2.Kind != "delta" {
		t.Fatalf("resumed change = %q, want delta", d2.Kind)
	}
	if got := strings.Join(d2.Added, ","); got != "(rex)" {
		t.Fatalf("resumed delta added = %q, want (rex)", got)
	}
}

func grepMetric(stats, substr string) string {
	var out []string
	for _, line := range strings.Split(stats, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestSubscribeErrors covers the refusal paths: no source configured,
// unknown feed name.
func TestSubscribeErrors(t *testing.T) {
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bare := New(st, Options{CloseTarget: true})
	if err := bare.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		bare.Shutdown(ctx)
	})
	c, err := Dial(bare.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("flat")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Next without a source = %v, want ErrUnsupported", err)
	}
	sub.Close()

	srv, _ := newSubscribeServer(t, Options{})
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sub2, err := c2.Subscribe("nosuch")
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	_, err = sub2.Next(ctx)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != "notfound" || !errors.Is(err, ErrFeedNotFound) {
		t.Fatalf("Next on unknown feed = %v, want notfound ServerError", err)
	}

	if _, err := c2.Subscribe("bad name"); err == nil {
		t.Fatal("Subscribe accepted a name with whitespace")
	}
}

// TestSubscribeNegotiate pins the feed's connection: it is its Client's,
// redialed with the client's HELLO when needed, so a server that predates
// the framed protocol refuses it with a typed protocol error, an unknown
// tenant with ErrUnknownTenant, and a tenant subscription rides the tenant
// HELLO (and is refused there).
func TestSubscribeNegotiate(t *testing.T) {
	srv, _ := newSubscribeServer(t, Options{Tenants: []TenantConfig{{Name: "acme"}}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// A server that answers HELLO as an unknown verb.
	old, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	go func() {
		for {
			conn, err := old.Accept()
			if err != nil {
				return
			}
			bufio.NewReader(conn).ReadString('\n')
			wire.WriteHelloErr(conn, "proto", 0, `protocol error: unknown verb "HELLO"`)
			conn.Close()
		}
	}()
	for _, tc := range []struct {
		addr, tenant string
		want         error
	}{
		{old.Addr().String(), "", ErrProtocol},
		{srv.Addr(), "nosuch", ErrUnknownTenant},
	} {
		o := defaultDialConfig()
		o.tenant = tc.tenant
		sub := &Subscription{c: &Client{addr: tc.addr, o: o}, name: "flat"}
		if _, err := sub.Next(ctx); !errors.Is(err, tc.want) {
			t.Fatalf("Next (addr %s, tenant %q) = %v, want %v", tc.addr, tc.tenant, err, tc.want)
		}
	}

	ct, err := Dial(srv.Addr(), WithTenant("acme"))
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	sub, err := ct.Subscribe("flat")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// The feed's HELLO named the tenant, whose connection cannot follow the
	// default namespace's views.
	if ch, err := sub.Next(ctx); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("tenant feed = %+v, %v; want ErrUnsupported", ch, err)
	}
}

// TestSubscribeStaleResume: resuming from a position the feed's journal
// cannot cover (here, a fabricated future epoch) must not error out the
// subscription — the server reports it stale, and the client restarts with
// a fresh snapshot that resets consumer state.
func TestSubscribeStaleResume(t *testing.T) {
	srv, _ := newSubscribeServer(t, Options{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.SubscribeFrom("flat", 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if ch := nextChange(t, sub); ch.Kind != "snapshot" || strings.Join(ch.Rows, ",") != "(tweety)" {
		t.Fatalf("stale resume delivered %+v, want a fresh snapshot", ch)
	}
}

// TestSubscribeV1WireErrors drives the line-protocol SUBSCRIBE requests
// earlier releases served, well-formed or not: each is refused with one
// ERR proto and a hang-up, never a hung or hijacked connection.
func TestSubscribeV1WireErrors(t *testing.T) {
	srv, _ := newSubscribeServer(t, Options{})
	for _, line := range []string{
		"SUBSCRIBE flat\n",           // what a line client sent
		"SUBSCRIBE flat 0 0\n",       // with a resume position
		"SUBSCRIBE\n",                // missing name
		"SUBSCRIBE flat 1 -5\n",      // negative offset
		"SUBSCRIBE flat 1 0 extra\n", // trailing field
	} {
		if got := v1Exchange(t, srv.Addr(), line); !strings.HasPrefix(got, "ERR proto 0 ") || strings.Count(got, "\n") != 2 {
			t.Fatalf("%q answered %q, want one ERR proto", line, got)
		}
	}
}

// TestSubscribeV2WireErrors drives raw SUBSCRIBE frames that must desync
// the conversation: a truncated payload and a duplicate request id.
func TestSubscribeV2WireErrors(t *testing.T) {
	srv, _ := newSubscribeServer(t, Options{})

	// Truncated payload: ERR proto, then the server hangs up.
	rc := rawHello(t, srv.Addr())
	rc.send(wire.Frame{Type: wire.TypeSubscribe, ID: 1, Stream: 1, Payload: []byte("short")})
	if code, _ := rc.recvErr(1); code != codeProto {
		t.Fatalf("short payload error code = %q, want proto", code)
	}
	rc.closed()

	// Duplicate id: the second SUBSCRIBE reusing a live feed's id desyncs.
	rc = rawHello(t, srv.Addr())
	sub := wire.Frame{Type: wire.TypeSubscribe, ID: 7, Stream: 1, Payload: subscribePayload("flat", 0, 0, false)}
	rc.send(sub)
	if f := rc.recv(); f.Type != wire.TypeSub {
		t.Fatalf("first feed frame = %+v (want SUB)", f)
	}
	rc.send(sub)
	expectProtoThenClose(t, rc, 7)
}

// TestExecReusingFeedIDIsRefused: statements and feeds share one id table.
// An EXEC reusing a live SUBSCRIBE's id is a duplicate — were it accepted,
// a later CANCEL of that id would end the feed instead of the statement.
func TestExecReusingFeedIDIsRefused(t *testing.T) {
	srv, _ := newSubscribeServer(t, Options{})
	rc := rawHello(t, srv.Addr())
	rc.send(wire.Frame{Type: wire.TypeSubscribe, ID: 7, Stream: 1, Payload: subscribePayload("flat", 0, 0, false)})
	if f := rc.recv(); f.Type != wire.TypeSub || f.ID != 7 {
		t.Fatalf("first feed frame = %+v (want SUB)", f)
	}
	rc.send(wire.Frame{Type: wire.TypeExec, ID: 7, Stream: 2, Payload: execPayload(0, "HOLDS flies (tweety);")})
	expectProtoThenClose(t, rc, 7)
}

// expectProtoThenClose reads to the ERR proto answering id and then the
// server's hang-up, skipping the feed's own frames (its SUB frames and the
// ERR canceled that ends it may come before or after).
func expectProtoThenClose(t *testing.T, rc *rawConn, id uint64) {
	t.Helper()
	sawProto := false
	for {
		rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := wire.ReadFrame(rc.br, 1<<20)
		if errors.Is(err, io.EOF) && sawProto {
			return
		}
		if err != nil {
			t.Fatalf("read: %v (proto error seen: %v)", err, sawProto)
		}
		switch f.Type {
		case wire.TypeSub:
		case wire.TypeErr:
			code, _, msg, _ := wire.ParseErr(f.Payload)
			switch {
			case f.ID != id:
				t.Fatalf("ERR for id %d: %s %q", f.ID, code, msg)
			case Code(code) == codeProto:
				sawProto = true
			case Code(code) != codeCanceled:
				t.Fatalf("ERR %s %q, want proto", code, msg)
			}
		default:
			t.Fatalf("unexpected frame %+v: the duplicate id was accepted", f)
		}
	}
}

// TestSubscribePayloadRoundTrip pins the SUBSCRIBE payload encoding and
// its decoder's rejection of truncated or negative-offset payloads.
func TestSubscribePayloadRoundTrip(t *testing.T) {
	p := subscribePayload("feed", 3, 99, true)
	name, epoch, offset, resume, err := parseSubscribePayload(p)
	if err != nil || name != "feed" || epoch != 3 || offset != 99 || !resume {
		t.Fatalf("round trip = %q %d %d %v, %v", name, epoch, offset, resume, err)
	}
	if _, _, _, _, err := parseSubscribePayload(p[:16]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	neg := subscribePayload("feed", 0, 0, false)
	neg[9] = 0xFF // sign bit of the offset
	if _, _, _, _, err := parseSubscribePayload(neg); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestSubscribeDrain: a server with live feeds shuts down cleanly and
// promptly — subscriptions never hold up the drain.
func TestSubscribeDrain(t *testing.T) {
	srv, _ := newSubscribeServer(t, Options{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("flat")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if ch := nextChange(t, sub); ch.Kind != "snapshot" {
		t.Fatalf("first change = %q, want snapshot", ch.Kind)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a live feed: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("drain took %v with a live feed", d)
	}
	// The subscriber observes the severed feed and keeps retrying until
	// its context expires; it must not fabricate changes.
	nctx, ncancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer ncancel()
	if ch, err := sub.Next(nctx); err == nil {
		t.Fatalf("Next after shutdown delivered %v, want error", ch)
	}
}

// TestSubscribeChaosSever severs the feed's response path at small byte
// budgets — mid-frame included — while a writer keeps mutating. The
// subscription must reassemble, via resume, exactly the committed history:
// folding every delivered change must reproduce the view's final rows.
func TestSubscribeChaosSever(t *testing.T) {
	srv, m := newSubscribeServer(t, Options{})
	proxy, err := NewChaosProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Writer path goes straight to the server; only the feed suffers.
	w, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, err := Dial(proxy.Addr(), WithBackoff(time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sub, err := c.Subscribe("flat")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	have := map[string]bool{}
	apply := func(ch SubChange) {
		if ch.Kind == "snapshot" {
			have = map[string]bool{}
			for _, r := range ch.Rows {
				have[r] = true
			}
			return
		}
		for _, r := range ch.Removed {
			if !have[r] {
				t.Fatalf("delta removes %q which the feed never delivered (gap or duplicate)", r)
			}
			delete(have, r)
		}
		for _, r := range ch.Added {
			if have[r] {
				t.Fatalf("delta re-adds %q (duplicate delivery)", r)
			}
			have[r] = true
		}
	}
	apply(nextChange(t, sub))

	ctx := context.Background()
	const n = 12
	for i := 0; i < n; i++ {
		// Arm mid-frame severs on a cadence: budgets land inside headers,
		// inside payloads, and at frame boundaries.
		if i%2 == 0 {
			proxy.SeverResponseAfter(int64(3 + i*7%40))
		}
		if _, err := w.Exec(ctx, fmt.Sprintf("INSTANCE b%d UNDER bird; ASSERT flies (b%d);", i, i)); err != nil {
			t.Fatal(err)
		}
		// Drain whatever the feed has caught up to before the next sever.
		apply(nextChange(t, sub))
	}

	// Catch up: fold deltas until the feed reflects the final view.
	want, err := m.Rows("flat")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := make([]string, 0, len(have))
		for r := range have {
			got = append(got, r)
		}
		sort.Strings(got)
		if strings.Join(got, "\n") == strings.Join(want, "\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("feed never converged\n got: %q\nwant: %q", got, want)
		}
		nctx, ncancel := context.WithTimeout(context.Background(), time.Second)
		ch, err := sub.Next(nctx)
		ncancel()
		if err == nil {
			apply(ch)
		}
	}
}

// TestTenantHooksServeDefaultNamespaceOnly: the shard node, the replication
// source and the feed source act on the server's main target, so a tenant
// connection must not reach them. EXECSHARD, SUBSCRIBE, SNAP and REPL from
// an acme connection answer ERR unsupported — none leaks default-namespace
// data — and the connection stays usable; from a default connection they
// serve as before.
func TestTenantHooksServeDefaultNamespaceOnly(t *testing.T) {
	srv, _ := newSubscribeServer(t, Options{Tenants: []TenantConfig{{Name: "acme"}}})
	target := srv.target
	other := startServer(t, target, Options{
		Tenants:   []TenantConfig{{Name: "acme"}},
		Shard:     shard.NewNode(target, 0, 1),
		Subscribe: srv.opts.Subscribe,
		Repl:      &stubRepl{snapshot: []byte("the default store")},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	acme, err := Dial(other.Addr(), WithTenant("acme"))
	if err != nil {
		t.Fatal(err)
	}
	defer acme.Close()
	flies := wire.ShardOp{Verb: wire.ShardTuples, Relation: "flies"}
	if rep, err := acme.ExecShard(ctx, flies); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("tenant EXECSHARD = %+v, %v; want ErrUnsupported", rep, err)
	}
	sub, err := acme.Subscribe("flat")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if ch, err := sub.Next(ctx); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("tenant SUBSCRIBE = %+v, %v; want ErrUnsupported", ch, err)
	}
	c, br, _, err := wire.Dial(ctx, other.Addr(), time.Second, "acme")
	if err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{t: t, c: c, br: br}
	defer c.Close()
	for i, f := range []wire.Frame{{Type: wire.TypeSnap}, replFrame(0, wire.StreamPos{})} {
		f.ID = uint64(i + 1)
		rc.send(f)
		if code, msg := rc.recvErr(f.ID); code != codeUnsupported || !strings.Contains(msg, "default namespace only") {
			t.Fatalf("tenant frame type %#x = ERR %s %q, want unsupported", f.Type, code, msg)
		}
	}
	rc.send(wire.Frame{Type: wire.TypePing, ID: 3})
	if f := rc.recv(); f.Type != wire.TypeOK || f.ID != 3 {
		t.Fatalf("PING after the refusals = %+v", f)
	}
	if _, err := acme.Exec(ctx, "SHOW RELATIONS;"); err != nil {
		t.Fatalf("tenant connection unusable after the refusals: %v", err)
	}

	def, err := Dial(other.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if rep, err := def.ExecShard(ctx, flies); err != nil || len(rep.Tuples) != 1 {
		t.Fatalf("default EXECSHARD = %+v, %v; want the one stored tuple", rep, err)
	}
	dsub, err := def.Subscribe("flat")
	if err != nil {
		t.Fatal(err)
	}
	defer dsub.Close()
	if ch := nextChange(t, dsub); ch.Kind != wire.ChangeSnapshot || strings.Join(ch.Rows, ",") != "(tweety)" {
		t.Fatalf("default SUBSCRIBE = %+v", ch)
	}
}

// TestFeedEndsWithOneErr: whatever ends a feed or a REPL stream on the
// server's side, the client gets exactly one ERR frame for it, carrying the
// code from the one table — and the connection carries on.
func TestFeedEndsWithOneErr(t *testing.T) {
	pst, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pst.Close() })
	srv, m := newSubscribeServer(t, Options{Repl: repl.NewPrimary(pst, repl.PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})})
	ctx := context.Background()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc := rawHello(t, srv.Addr())
	id := uint64(0)
	// ends sends req under the next id and reads its frames up to the ERR
	// that ends it, which must carry want; a PING then proves nothing
	// follows. end, when set, runs once the first stream frame arrived.
	ends := func(req wire.Frame, end func(id uint64), want Code, sentinel error) {
		t.Helper()
		id++
		req.ID = id
		rc.send(req)
		if end != nil {
			if f := rc.recv(); f.Type == wire.TypeErr || f.ID != id {
				t.Fatalf("%s: first stream frame = %+v", want, f)
			}
			end(id)
		}
		for {
			f := rc.recv()
			if f.Type != wire.TypeErr && f.Type != wire.TypeOK && f.ID == id {
				continue
			}
			_, err := wire.Reply(f)
			if se := serverError(err); f.ID != id || !errors.Is(se, sentinel) || se.(*ServerError).Code != want {
				t.Fatalf("stream ended with %+v (%v), want one ERR %s", f, se, want)
			}
			break
		}
		id++
		rc.send(wire.Frame{Type: wire.TypePing, ID: id})
		if f := rc.recv(); f.Type != wire.TypeOK || f.ID != id {
			t.Fatalf("after the %s ERR: %+v, want only the PING's OK", want, f)
		}
	}
	subscribe := func(name string, epoch uint64, offset int64, resume bool) wire.Frame {
		return wire.Frame{Type: wire.TypeSubscribe, Stream: 1, Payload: subscribePayload(name, epoch, offset, resume)}
	}
	ends(subscribe("nosuch", 0, 0, false), nil, codeNotFound, ErrFeedNotFound)
	ends(subscribe("flat", 99, 0, true), nil, codeStale, ErrStaleReplica)
	ends(subscribe("flat", 0, 0, false), func(uint64) {
		if _, err := c.Exec(ctx, "DROP VIEW flat;"); err != nil {
			t.Fatal(err)
		}
	}, codeDropped, ErrFeedDropped)
	cancel := func(id uint64) { rc.send(wire.Frame{Type: wire.TypeCancel, ID: id}) }
	ends(replFrame(0, wire.StreamPos{Term: pst.Term()}), cancel, codeCanceled, context.Canceled)
	ends(replFrame(0, wire.StreamPos{Term: pst.Term()}), func(uint64) { pst.Fence(pst.Term() + 1) }, codeStale, ErrStaleReplica)
	ends(subscribe("flies", 0, 0, false), func(uint64) { m.Close() }, codeShutdown, ErrServerClosed)
}

// TestOneConnectionPerClient: a Client's feeds, Streams and Execs all ride
// its one TCP connection.
func TestOneConnectionPerClient(t *testing.T) {
	srv, _ := newSubscribeServer(t, Options{})
	waitFor(t, func() bool { return metricActiveConns.Value() == 0 }, "the seeding connection never closed")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("flat")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if ch := nextChange(t, sub); ch.Kind != wire.ChangeSnapshot {
		t.Fatalf("first change = %+v, want a snapshot", ch)
	}
	st, err := c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Exec(ctx, "HOLDS flies (tweety);"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "HOLDS flies (tweety);"); err != nil {
		t.Fatal(err)
	}
	if n := metricActiveConns.Value(); n != 1 {
		t.Fatalf("hrdb_server_active_conns = %d, want 1", n)
	}
}

// TestClientCloseEndsNext: closing the Client ends a Subscription's blocked
// Next with ErrClientClosed, as it fails every other call in flight.
func TestClientCloseEndsNext(t *testing.T) {
	srv, _ := newSubscribeServer(t, Options{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe("flat")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	nextChange(t, sub)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := sub.Next(ctx)
		done <- err
	}()
	c.Close()
	if err := <-done; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Next across Client.Close = %v, want ErrClientClosed", err)
	}
}

// TestSubscribeOverflowResumes: a consumer that stops calling Next while
// writes land overflows its feed's queue. The shared connection is never
// held up — Exec on the same Client stays answered, and the overflowed
// feed is canceled — and Next then re-subscribes from the last delivered
// change: folding every change reproduces the view, with no gap and no
// duplicate.
func TestSubscribeOverflowResumes(t *testing.T) {
	srv, m := newSubscribeServer(t, Options{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("flat")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	rows := map[string]bool{}
	fold := func(ch SubChange) {
		if ch.Kind == wire.ChangeSnapshot {
			rows = map[string]bool{}
		}
		for _, r := range ch.Removed {
			if !rows[r] {
				t.Fatalf("delta removes %q which the feed never delivered (gap or duplicate)", r)
			}
			delete(rows, r)
		}
		for _, r := range append(ch.Rows, ch.Added...) {
			if rows[r] {
				t.Fatalf("change re-adds %q (duplicate delivery)", r)
			}
			rows[r] = true
		}
	}
	fold(nextChange(t, sub))
	started := metricSubStarted.Value()

	// Well past the connection's per-feed queue (64 frames), one delta per
	// statement, with nobody calling Next.
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := c.Exec(ctx, fmt.Sprintf("INSTANCE o%d UNDER bird;", i))
		cancel()
		if err != nil {
			t.Fatalf("Exec %d beside a stalled feed: %v", i, err)
		}
	}
	waitFor(t, func() bool { return metricSubStreams.Value() == 0 }, "the overflowed feed was never canceled")
	// Written after the cancel: only a re-subscribe can deliver it.
	if _, err := c.Exec(context.Background(), "INSTANCE last UNDER bird;"); err != nil {
		t.Fatal(err)
	}
	var want []string
	waitFor(t, func() bool {
		want, err = m.Rows("flat")
		return err == nil && len(want) == 102
	}, "the view never caught up")
	for len(rows) != len(want) {
		fold(nextChange(t, sub))
	}
	got := make([]string, 0, len(rows))
	for r := range rows {
		got = append(got, r)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("folded feed diverged\n got: %q\nwant: %q", got, want)
	}
	if n := metricSubStarted.Value() - started; n < 1 {
		t.Fatalf("feed re-subscribed %d times after its overflow, want at least once", n)
	}
}
