package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hrdb/internal/wire"
)

// waitParked blocks until n statements are parked on the gate.
func waitParked(t *testing.T, gate *gateTarget, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for gate.waiting.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d statements parked", gate.waiting.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitAnswered blocks until the server has recorded more request latencies
// than before — i.e. it has written at least one more reply. The latency
// histogram is observed at reply time, so this is the
// reliable "the server answered" synchronization point (the client can
// return earlier off its own local ctx timer).
func waitAnswered(t *testing.T, before uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for metricRequestNS.Snapshot().Count == before {
		if time.Now().After(deadline) {
			t.Fatal("server never answered")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxPipeliningOutOfOrder is the point of the framed protocol: two
// requests pipelined on ONE connection complete out of order — a fast read
// overtakes a slow mutation instead of queueing behind it.
func TestMuxPipeliningOutOfOrder(t *testing.T) {
	gate := &gateTarget{Target: newMemTarget(t), gate: make(chan struct{})}
	srv := startServer(t, gate, Options{Workers: 2, QueueDepth: 8})
	release := sync.OnceFunc(func() { close(gate.gate) })
	t.Cleanup(release)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	order := make(chan string, 2)
	var slowErr, fastErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, slowErr = c.Exec(ctx, "ASSERT Flies (Tweety);") // parks on the gate
		order <- "slow"
	}()
	waitParked(t, gate, 1)

	var fastOut string
	wg.Add(1)
	go func() {
		defer wg.Done()
		fastOut, fastErr = c.Exec(ctx, "HOLDS Flies (Bird);")
		order <- "fast"
	}()

	if first := <-order; first != "fast" {
		t.Fatalf("completion order: %q finished first, want the fast read to overtake", first)
	}
	release()
	<-order
	wg.Wait()
	if slowErr != nil || fastErr != nil {
		t.Fatalf("slow err %v, fast err %v", slowErr, fastErr)
	}
	if strings.TrimSpace(fastOut) != "true" {
		t.Fatalf("fast HOLDS = %q, want true", fastOut)
	}
}

// TestStreamTransactionAcrossExecs: statements on one Stream share one
// server-side session, so BEGIN/ASSERT/COMMIT may arrive as separate Exec
// calls; plain Client.Exec calls on the same socket use other sessions and
// never see the open transaction.
func TestStreamTransactionAcrossExecs(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{Workers: 2})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	st, err := c.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	for _, stmt := range []string{"BEGIN;", "ASSERT Flies (Tweety);"} {
		if _, err := st.Exec(ctx, stmt); err != nil {
			t.Fatalf("stream %q: %v", stmt, err)
		}
	}
	// A different session on the same connection is outside the stream's
	// transaction: COMMIT there is an error, proving session isolation.
	if _, err := c.Exec(ctx, "COMMIT;"); err == nil {
		t.Fatal("COMMIT on a non-stream session found an open transaction")
	}
	out, err := st.Exec(ctx, "COMMIT;")
	if err != nil {
		t.Fatalf("stream COMMIT: %v", err)
	}
	if !strings.Contains(out, "committed 1 operations") {
		t.Fatalf("COMMIT output %q", out)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("stream Close: %v", err)
	}
	if _, err := st.Exec(ctx, "HOLDS Flies (Bird);"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Exec on closed stream: %v, want ErrClientClosed", err)
	}
}

// TestCancelFrameLeavesConnectionUsable: canceling a pipelined request
// kills that request (the server answers "canceled" promptly, while the
// statement is still parked) and nothing else — the same connection keeps
// serving other requests.
func TestCancelFrameLeavesConnectionUsable(t *testing.T) {
	gate := &gateTarget{Target: newMemTarget(t), gate: make(chan struct{})}
	srv := startServer(t, gate, Options{Workers: 2, QueueDepth: 8})
	release := sync.OnceFunc(func() { close(gate.gate) })
	t.Cleanup(release)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	answered := metricRequestNS.Snapshot().Count
	errc := make(chan error, 1)
	go func() {
		_, err := c.Exec(ctx, "ASSERT Flies (Tweety);")
		errc <- err
	}()
	waitParked(t, gate, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Exec: %v, want context.Canceled", err)
	}
	// The server answers the canceled request while its statement is still
	// parked — the worker is occupied, but the connection is not.
	waitAnswered(t, answered)
	if gate.waiting.Load() != 1 {
		t.Fatalf("statement should still be parked, waiting=%d", gate.waiting.Load())
	}
	out, err := c.Exec(context.Background(), "HOLDS Flies (Bird);")
	if err != nil || strings.TrimSpace(out) != "true" {
		t.Fatalf("Exec after cancel = %q, %v; want true", out, err)
	}
}

// TestDeadlineRetiresStreamNotConnection: a statement abandoned at its
// deadline poisons only its stream — later Execs on that stream answer
// "canceled" — while new streams on the same connection keep working.
func TestDeadlineRetiresStreamNotConnection(t *testing.T) {
	gate := &gateTarget{Target: newMemTarget(t), gate: make(chan struct{})}
	srv := startServer(t, gate, Options{Workers: 2, QueueDepth: 8})
	release := sync.OnceFunc(func() { close(gate.gate) })
	t.Cleanup(release)

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	st, err := c.Stream()
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	answered := metricRequestNS.Snapshot().Count
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := st.Exec(ctx, "ASSERT Flies (Tweety);"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gated stream Exec: %v, want deadline", err)
	}
	// Wait for the server's reply (it may trail the client's local timer),
	// after which the stream is retired or in the process of retiring.
	waitAnswered(t, answered)
	_, err = st.Exec(context.Background(), "HOLDS Flies (Bird);")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Exec on retired stream: %v, want canceled", err)
	}
	// The connection survives: plain Execs (fresh streams) still work.
	out, err := c.Exec(context.Background(), "HOLDS Flies (Bird);")
	if err != nil || strings.TrimSpace(out) != "true" {
		t.Fatalf("Exec after stream retirement = %q, %v; want true", out, err)
	}
}

// TestTenantNamespaceIsolation: a named tenant is its own catalog, resolved
// at HELLO; statements in one namespace are invisible in the other.
func TestTenantNamespaceIsolation(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{
		Tenants: []TenantConfig{{Name: "mux-iso-acme"}},
	})
	ctx := context.Background()

	t.Run("v2-hello", func(t *testing.T) {
		ct, err := Dial(srv.Addr(), WithTenant("mux-iso-acme"))
		if err != nil {
			t.Fatalf("Dial tenant: %v", err)
		}
		defer ct.Close()
		if got := ct.Tenant(); got != "mux-iso-acme" {
			t.Fatalf("Tenant() = %q", got)
		}
		cd, err := Dial(srv.Addr())
		if err != nil {
			t.Fatalf("Dial default: %v", err)
		}
		defer cd.Close()
		if got := cd.Tenant(); got != DefaultTenant {
			t.Fatalf("default Tenant() = %q", got)
		}

		// The fixture relation lives only in the default namespace.
		out, err := ct.Exec(ctx, "SHOW RELATIONS;")
		if err != nil {
			t.Fatalf("tenant SHOW RELATIONS: %v", err)
		}
		if strings.Contains(out, "Flies") {
			t.Fatalf("tenant namespace sees the default catalog: %q", out)
		}
		out, err = cd.Exec(ctx, "SHOW RELATIONS;")
		if err != nil || !strings.Contains(out, "Flies") {
			t.Fatalf("default SHOW RELATIONS = %q, %v", out, err)
		}

		// And writes go the other way: a hierarchy created in the tenant
		// namespace never shows up in the default one.
		zoo := "Zoov2hello"
		if _, err := ct.Exec(ctx, "CREATE HIERARCHY "+zoo+";"); err != nil {
			t.Fatalf("tenant CREATE HIERARCHY: %v", err)
		}
		out, err = cd.Exec(ctx, "SHOW HIERARCHIES;")
		if err != nil || strings.Contains(out, zoo) {
			t.Fatalf("default namespace sees tenant hierarchy: %q, %v", out, err)
		}
	})
}

// TestUnknownTenantFailsDial: naming a tenant the server does not serve is
// a hard, typed failure at Dial.
func TestUnknownTenantFailsDial(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{})
	if _, err := Dial(srv.Addr(), WithTenant("mux-no-such-tenant")); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("Dial unknown tenant: %v, want ErrUnknownTenant", err)
	}
}

// TestTenantQuotaShedIsolation: a tenant over its own budget is shed with
// the "quota" code — and only that tenant pays. The noisy neighbor's shed
// counter moves; the quiet tenant's requests keep succeeding and its shed
// counter and latency series stay its own.
func TestTenantQuotaShedIsolation(t *testing.T) {
	gate := &gateTarget{Target: newMemTarget(t), gate: make(chan struct{})}
	srv := startServer(t, newMemTarget(t), Options{
		Workers: 2, QueueDepth: 8,
		Tenants: []TenantConfig{
			{Name: "mux-quota-a", Target: gate, Limits: TenantLimits{MaxInflight: 1}},
			{Name: "mux-quota-b"},
			{Name: "mux-quota-c", Limits: TenantLimits{RatePerSec: 0.5}}, // burst defaults to 1
		},
	})
	release := sync.OnceFunc(func() { close(gate.gate) })
	t.Cleanup(release)
	ctx := context.Background()

	ca, err := Dial(srv.Addr(), WithTenant("mux-quota-a"), WithMaxRetries(0))
	if err != nil {
		t.Fatalf("Dial a: %v", err)
	}
	defer ca.Close()
	cb, err := Dial(srv.Addr(), WithTenant("mux-quota-b"))
	if err != nil {
		t.Fatalf("Dial b: %v", err)
	}
	defer cb.Close()

	// Fill tenant A's single inflight slot with a parked statement.
	errc := make(chan error, 1)
	go func() {
		_, err := ca.Exec(ctx, "ASSERT Flies (Tweety);")
		errc <- err
	}()
	waitParked(t, gate, 1)

	tnA, tnB := srv.tenants["mux-quota-a"], srv.tenants["mux-quota-b"]
	shedA0, shedB0 := tnA.mShed.Value(), tnB.mShed.Value()
	latB0 := tnB.mLatency.Snapshot().Count

	// A's next request is over quota; the global pool (2 workers, queue of
	// 8) has plenty of room, so this is A's own budget, not server load.
	if _, err := ca.Exec(ctx, "HOLDS Flies (Bird);"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota Exec: %v, want ErrQuotaExceeded", err)
	}
	// B sails through while A is being shed.
	if _, err := cb.Exec(ctx, "CREATE HIERARCHY QuotaZoo;"); err != nil {
		t.Fatalf("tenant b Exec during a's flood: %v", err)
	}

	if d := tnA.mShed.Value() - shedA0; d == 0 {
		t.Error("tenant a shed counter did not move")
	}
	if d := tnB.mShed.Value() - shedB0; d != 0 {
		t.Errorf("tenant b shed counter moved by %d during a's flood", d)
	}
	if d := tnB.mLatency.Snapshot().Count - latB0; d == 0 {
		t.Error("tenant b latency histogram did not record b's own request")
	}

	// The shed is visible as a labeled series on the shared metric names.
	stats, err := cb.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if !strings.Contains(stats, `hrdb_tenant_shed_total{tenant="mux-quota-a"}`) {
		t.Error("scrape lacks tenant a's labeled shed series")
	}

	// Rate limits shed the same way: burst 1 admits one statement, the
	// second arrives long before the 2s refill.
	cc, err := Dial(srv.Addr(), WithTenant("mux-quota-c"), WithMaxRetries(0))
	if err != nil {
		t.Fatalf("Dial c: %v", err)
	}
	defer cc.Close()
	if _, err := cc.Exec(ctx, "CREATE HIERARCHY RateZoo;"); err != nil {
		t.Fatalf("first rate-limited Exec: %v", err)
	}
	if _, err := cc.Exec(ctx, "CREATE HIERARCHY RateZoo2;"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second rate-limited Exec: %v, want ErrQuotaExceeded", err)
	}

	release()
	if err := <-errc; err != nil {
		t.Fatalf("parked Exec after release: %v", err)
	}
}

// TestClientCloseFailsInflightPipelined: Close with pipelined requests in
// flight fails each of them with ErrClientClosed immediately instead of
// waiting for replies that will never come — and three dial/flood/close
// cycles leak no goroutines on either side.
func TestClientCloseFailsInflightPipelined(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{Workers: 2, QueueDepth: 32})
	proxy, err := NewChaosProxy(srv.Addr())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { proxy.Close() })

	baseline := runtime.NumGoroutine()
	const inflight = 8
	for cycle := 0; cycle < 3; cycle++ {
		c, err := Dial(proxy.Addr())
		if err != nil {
			t.Fatalf("cycle %d Dial: %v", cycle, err)
		}
		// From here the proxy swallows every response, so all requests are
		// genuinely in flight when Close runs.
		proxy.DropResponses(true)
		before := metricRequests.Value()
		errs := make(chan error, inflight)
		for i := 0; i < inflight; i++ {
			go func() {
				_, err := c.Exec(context.Background(), "HOLDS Flies (Bird);")
				errs <- err
			}()
		}
		// The server-side request counter ticks at frame receipt: once it
		// has advanced by `inflight`, every request made it out of the
		// client and is awaiting a (dropped) reply.
		deadline := time.Now().Add(5 * time.Second)
		for metricRequests.Value() < before+inflight {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: server saw %d/%d requests", cycle, metricRequests.Value()-before, inflight)
			}
			time.Sleep(time.Millisecond)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("cycle %d Close: %v", cycle, err)
		}
		for i := 0; i < inflight; i++ {
			if err := <-errs; !errors.Is(err, ErrClientClosed) {
				t.Fatalf("cycle %d inflight request: %v, want ErrClientClosed", cycle, err)
			}
		}
		proxy.DropResponses(false)
		proxy.KillAll()
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrossVersionMatrix pins what each side of a version mismatch sees now
// that the framed protocol is the only one: a current client against a
// current server works end to end; against a server that predates the
// framed protocol (it answers HELLO as an unknown verb) Dial fails with a
// typed protocol error instead of falling back; and a line-protocol client
// gets exactly one ERR proto before the server hangs up.
func TestCrossVersionMatrix(t *testing.T) {
	ctx := context.Background()

	t.Run("v2-server", func(t *testing.T) {
		srv := startServer(t, newMemTarget(t), Options{})
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("Ping: %v", err)
		}
		out, err := c.Exec(ctx, "HOLDS Flies (Tweety);")
		if err != nil || strings.TrimSpace(out) != "true" {
			t.Fatalf("Exec = %q, %v", out, err)
		}
		if _, err := c.Stats(ctx); err != nil {
			t.Fatalf("Stats: %v", err)
		}
	})

	t.Run("v1-only-server", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				bufio.NewReader(c).ReadString('\n')
				wire.WriteHelloErr(c, "proto", 0, `protocol error: unknown verb "HELLO"`)
				c.Close()
			}
		}()
		if _, err := Dial(ln.Addr().String()); !errors.Is(err, ErrProtocol) {
			t.Fatalf("Dial against a pre-v2 server: %v, want ErrProtocol", err)
		}
	})

	t.Run("v1-client", func(t *testing.T) {
		srv := startServer(t, newMemTarget(t), Options{})
		if got := v1Exchange(t, srv.Addr(), "EXEC 0 5\nPING;\n"); !strings.HasPrefix(got, "ERR proto 0 ") {
			t.Fatalf("v1 EXEC answered %q, want one ERR proto", got)
		}
	})
}

// TestChaosV2MidFrameSever: the proxy cuts the connection five bytes into
// a v2 response frame — inside the header. The client must surface a
// transport error (not a garbled success) and heal on the next call by
// redialing.
func TestChaosV2MidFrameSever(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{})
	proxy, err := NewChaosProxy(srv.Addr())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { proxy.Close() })

	c, err := Dial(proxy.Addr(), WithMaxRetries(0))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	proxy.SeverResponseAfter(5)
	_, err = c.Exec(ctx, "HOLDS Flies (Tweety);")
	if err == nil {
		t.Fatal("Exec across a severed frame succeeded")
	}
	if se := new(ServerError); errors.As(err, &se) || errors.Is(err, ErrClientClosed) {
		t.Fatalf("mid-frame sever produced %v, want a transport error", err)
	}

	// The sever disarmed itself; the next call redials and succeeds.
	out, err := c.Exec(ctx, "HOLDS Flies (Tweety);")
	if err != nil || strings.TrimSpace(out) != "true" {
		t.Fatalf("Exec after sever = %q, %v; want true", out, err)
	}
}
