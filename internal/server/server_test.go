package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/hql"
	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// rawConn is a hand-driven connection for protocol-level tests: the HELLO
// exchange is done, then frames go out and come back one at a time.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

// rawHello dials addr and completes the HELLO exchange.
func rawHello(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, br, _, err := wire.Dial(context.Background(), addr, 2*time.Second, "")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, br: br}
}

// send writes one frame.
func (rc *rawConn) send(f wire.Frame) {
	rc.t.Helper()
	rc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if err := wire.WriteFrame(rc.c, f); err != nil {
		rc.t.Fatalf("write frame type %#x: %v", f.Type, err)
	}
}

// recv reads one frame.
func (rc *rawConn) recv() wire.Frame {
	rc.t.Helper()
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.ReadFrame(rc.br, 1<<20)
	if err != nil {
		rc.t.Fatalf("read frame: %v", err)
	}
	return f
}

// recvErr reads one frame that must be an ERR answering id, and returns its
// code and message.
func (rc *rawConn) recvErr(id uint64) (Code, string) {
	rc.t.Helper()
	f := rc.recv()
	code, _, msg, err := wire.ParseErr(f.Payload)
	if f.Type != wire.TypeErr || f.ID != id || err != nil {
		rc.t.Fatalf("want ERR for id %d, got %+v (%v)", id, f, err)
	}
	return Code(code), msg
}

// closed asserts the server hung up.
func (rc *rawConn) closed() {
	rc.t.Helper()
	rc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := rc.br.ReadByte(); err != io.EOF {
		rc.t.Fatalf("connection still open (read: %v), want EOF", err)
	}
}

// newMemTarget builds a synchronized in-memory target preloaded with the
// Bird/Penguin fixture.
func newMemTarget(t *testing.T) hql.Target {
	t.Helper()
	db := catalog.New()
	sess := hql.NewSession(hql.MemTarget{DB: db})
	if _, err := sess.Exec(`
		CREATE HIERARCHY Animal;
		CLASS Bird IN Animal;
		CLASS Penguin UNDER Bird;
		INSTANCE Tweety UNDER Bird;
		INSTANCE Paul UNDER Penguin;
		CREATE RELATION Flies (Creature: Animal);
		ASSERT Flies (Bird);
		DENY Flies (Penguin);
	`); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return hql.MemTarget{DB: db}
}

// startServer runs a server over target and tears it down with the test.
func startServer(t *testing.T, target hql.Target, opts Options) *Server {
	t.Helper()
	srv := New(target, opts)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// gateTarget parks mutations on a gate so requests can be held in flight;
// reads pass through. The gate is per-target, counted so tests know how
// many statements are parked.
type gateTarget struct {
	hql.Target
	gate    chan struct{}
	waiting atomic.Int64
}

func (g *gateTarget) Apply(ops []hql.TxOp) ([]string, error) {
	if len(ops) == 1 && ops[0].Bare && ops[0].Kind == catalog.KindAssert {
		g.waiting.Add(1)
		defer g.waiting.Add(-1)
		<-g.gate
	}
	return g.Target.Apply(ops)
}

// panicTarget panics on Deny.
type panicTarget struct{ hql.Target }

func (p panicTarget) Apply(ops []hql.TxOp) ([]string, error) {
	if len(ops) == 1 && ops[0].Bare && ops[0].Kind == catalog.KindDeny {
		panic("injected fault: deny exploded")
	}
	return p.Target.Apply(ops)
}

// holdDenyTarget holds a bare deny after its write has applied and before
// its session renders the reply, until release is closed; applied announces
// that the deny has reached that point.
type holdDenyTarget struct {
	hql.Target
	applied chan struct{}
	release chan struct{}
}

func (h holdDenyTarget) Apply(ops []hql.TxOp) ([]string, error) {
	w, err := h.Target.Apply(ops)
	if len(ops) == 1 && ops[0].Bare && ops[0].Kind == catalog.KindDeny {
		h.applied <- struct{}{}
		<-h.release
	}
	return w, err
}

// TestServedSessionsGetOwnWarnings: two clients write to one served store,
// and each reply carries the warnings of its own write only. A's
// warn-policy deny is held between its write and its reply while B's
// assert, which raises nothing, runs start to finish.
func TestServedSessionsGetOwnWarnings(t *testing.T) {
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if _, err := hql.NewSession(st).Exec(`
		CREATE HIERARCHY Animal;
		CLASS Bird IN Animal;
		INSTANCE Tweety UNDER Bird;
		INSTANCE Robin UNDER Bird;
		CREATE RELATION Flies (Creature: Animal);
		ASSERT Flies (Bird);
		SET POLICY warn;
	`); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	hold := holdDenyTarget{Target: st, applied: make(chan struct{}), release: make(chan struct{})}
	srv := startServer(t, hold, Options{})
	ctx := context.Background()
	var clients [2]*Client
	for i := range clients {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		clients[i] = c
	}

	type reply struct {
		out string
		err error
	}
	denied := make(chan reply, 1)
	go func() {
		out, err := clients[0].Exec(ctx, "DENY Flies (Tweety);")
		denied <- reply{out, err}
	}()
	select {
	case <-hold.applied:
	case a := <-denied:
		t.Fatalf("A's deny replied %q, %v without being held", a.out, a.err)
	}
	outB, errB := clients[1].Exec(ctx, "ASSERT Flies (Robin);")
	close(hold.release)
	a := <-denied
	if a.err != nil || errB != nil {
		t.Fatalf("A: %v, B: %v", a.err, errB)
	}
	if !strings.Contains(a.out, "warning: exception: (Tweety)") {
		t.Errorf("A's deny replied %q, want its warning", a.out)
	}
	if outB != "asserted Flies(Robin)\n" {
		t.Errorf("B's assert replied %q, want no warning", outB)
	}
}

func TestServeBasic(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	out, err := c.Exec(ctx, "HOLDS Flies (Tweety);")
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if strings.TrimSpace(out) != "true" {
		t.Fatalf("HOLDS Tweety = %q, want true", out)
	}
	out, err = c.Exec(ctx, "HOLDS Flies (Paul);")
	if err != nil || strings.TrimSpace(out) != "false" {
		t.Fatalf("HOLDS Paul = %q, %v; want false", out, err)
	}
	// Mutation round trip plus a statement error.
	if _, err := c.Exec(ctx, "ASSERT Flies (NoSuchCreature);"); err == nil {
		t.Fatal("assert of unknown value should fail")
	} else {
		var se *ServerError
		if !errors.As(err, &se) || se.Code != codeExec {
			t.Fatalf("want exec ServerError, got %v", err)
		}
	}
	// Sessions are per-connection: transactions work over the wire.
	out, err = c.Exec(ctx, "BEGIN; ASSERT Flies (Tweety); COMMIT;")
	if err != nil {
		t.Fatalf("tx: %v", err)
	}
	if !strings.Contains(out, "committed 1 operations") {
		t.Fatalf("tx output = %q", out)
	}
}

// TestOverloadShedding is the headline acceptance test: with a work
// capacity of N (workers + queue) and 4N concurrent mutating clients on a
// gated target, the server sheds the excess with "overloaded" instead of
// growing goroutines without bound, and every admitted request completes
// once the gate opens.
func TestOverloadShedding(t *testing.T) {
	mem := newMemTarget(t)
	gate := &gateTarget{Target: mem, gate: make(chan struct{})}
	const workers, queue = 2, 2
	capacity := workers + queue // statements that can be in the system
	srv := startServer(t, gate, Options{
		Workers:    workers,
		QueueDepth: queue,
		MaxConns:   64,
		// The gated Assert ignores ctx; a deadline would abandon it.
		MaxDeadline: -1,
	})

	// Park enough requests to fill every worker.
	var wg sync.WaitGroup
	results := make(chan error, 4*capacity)
	launch := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := Dial(srv.Addr(), WithMaxRetries(0))
				if err != nil {
					results <- err
					return
				}
				defer c.Close()
				_, err = c.Exec(context.Background(), "ASSERT Flies (Bird);")
				results <- err
			}()
		}
	}
	// Fill deterministically: first occupy every worker (wait until each is
	// parked inside Assert), then fill the queue, so none of the capacity
	// batch is shed by a transient race for the queue slots.
	launch(workers)
	deadline := time.Now().Add(5 * time.Second)
	for gate.waiting.Load() < int64(workers) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d statements parked", gate.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}
	launch(queue)
	// Give the queued pair time to be admitted.
	time.Sleep(100 * time.Millisecond)

	before := runtime.NumGoroutine()
	launch(3 * capacity) // the flood: all of these must be shed
	shed := 0
	for i := 0; i < 3*capacity; i++ {
		err := <-results
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("flood request %d: got %v, want ErrOverloaded", i, err)
		}
		shed++
	}
	during := runtime.NumGoroutine()
	// Goroutine growth while shedding must be bounded by the handler
	// goroutines of the flood connections, not by queued statements:
	// workers and queue were already saturated before the flood.
	if growth := during - before; growth > 3*capacity+8 {
		t.Fatalf("goroutine growth under flood = %d (before=%d during=%d)", growth, before, during)
	}

	close(gate.gate) // release: every admitted request must now complete
	for i := 0; i < capacity; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	wg.Wait()
	if shed != 3*capacity {
		t.Fatalf("shed %d, want %d", shed, 3*capacity)
	}
}

// TestOverloadRetryAfterHint: shed replies carry a Retry-After hint.
func TestOverloadRetryAfterHint(t *testing.T) {
	mem := newMemTarget(t)
	gate := &gateTarget{Target: mem, gate: make(chan struct{})}
	defer close(gate.gate)
	srv := startServer(t, gate, Options{
		Workers: 1, QueueDepth: 1, MaxDeadline: -1,
		RetryAfter: 70 * time.Millisecond,
	})
	fill := make([]*Client, 2)
	for i := range fill {
		c, err := Dial(srv.Addr(), WithMaxRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go c.Exec(context.Background(), "ASSERT Flies (Bird);")
		fill[i] = c
	}
	for gate.waiting.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)

	c, err := Dial(srv.Addr(), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec(context.Background(), "ASSERT Flies (Bird);")
	var se *ServerError
	if !errors.As(err, &se) || se.Code != codeOverloaded {
		t.Fatalf("got %v, want overloaded", err)
	}
	if se.RetryAfter != 70*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 70ms", se.RetryAfter)
	}
}

// TestDeadlineAlwaysAnswered: a request whose statement ignores
// cancellation still gets a deadline reply — the server answers and
// retires the connection rather than hanging the client.
func TestDeadlineAlwaysAnswered(t *testing.T) {
	mem := newMemTarget(t)
	gate := &gateTarget{Target: mem, gate: make(chan struct{})}
	defer close(gate.gate)
	srv := startServer(t, gate, Options{Workers: 2, MaxDeadline: 30 * time.Second})
	c, err := Dial(srv.Addr(), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Exec(ctx, "ASSERT Flies (Bird);")
	if err == nil {
		t.Fatal("want deadline error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline answer took %v", elapsed)
	}
}

// TestDeadlinePropagatedToStatement: the request deadline reaches
// Session.ExecContext, which aborts a multi-statement script at the first
// statement boundary after expiry — observable as the second statement's
// side effect never happening.
func TestDeadlinePropagatedToStatement(t *testing.T) {
	mem := newMemTarget(t)
	gate := &gateTarget{Target: mem, gate: make(chan struct{})}
	srv := startServer(t, gate, Options{})
	db := mem.Database()
	c, err := Dial(srv.Addr(), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	baseLen := relLen(t, db)
	answered := metricRequestNS.Snapshot().Count
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	// Statement 1 parks in Assert past the deadline; statement 2 must then
	// never run, because ExecContext observes the expired ctx between them.
	_, err = c.Exec(ctx, "ASSERT Flies (Tweety); ASSERT Flies (Animal);")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	// Exec can return from the client's local deadline before the server's
	// request ctx has fired (the two timers are independent). Wait until the
	// server answered the request — the reply is recorded only after its ctx
	// is done — so releasing the gate cannot race the server-side timer.
	for metricRequestNS.Snapshot().Count == answered {
		time.Sleep(time.Millisecond)
	}
	close(gate.gate) // release statement 1 well after the deadline
	deadline := time.Now().Add(5 * time.Second)
	for relLen(t, db) != baseLen+1 {
		if time.Now().After(deadline) {
			t.Fatalf("statement 1 never applied (len=%d)", relLen(t, db))
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if got := relLen(t, db); got != baseLen+1 {
		t.Fatalf("statement 2 ran despite expired deadline (len=%d, want %d)", got, baseLen+1)
	}
}

// relLen returns the current tuple count of Flies.
func relLen(t *testing.T, db *catalog.Database) int {
	t.Helper()
	r, err := db.Snapshot("Flies")
	if err != nil {
		t.Fatal(err)
	}
	return r.Len()
}

// TestPanicIsolation: a panicking statement answers its own connection
// with a panic error and closes it; the server keeps serving others.
func TestPanicIsolation(t *testing.T) {
	srv := startServer(t, panicTarget{newMemTarget(t)}, Options{})
	c1, err := Dial(srv.Addr(), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	_, err = c1.Exec(context.Background(), "DENY Flies (Penguin);")
	var se *ServerError
	if !errors.As(err, &se) || se.Code != codePanic {
		t.Fatalf("got %v, want panic ServerError", err)
	}
	if !strings.Contains(se.Msg, "deny exploded") {
		t.Fatalf("panic message lost: %q", se.Msg)
	}
	// The server survives: a fresh connection works, and so does the same
	// client (it redials transparently).
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, c := range []*Client{c2, c1} {
		out, err := c.Exec(context.Background(), "HOLDS Flies (Tweety);")
		if err != nil || strings.TrimSpace(out) != "true" {
			t.Fatalf("after panic: %q, %v", out, err)
		}
	}
}

// TestGracefulDrain: Shutdown lets the in-flight statement finish, sheds
// new work with "shutdown", and reports a clean drain.
func TestGracefulDrain(t *testing.T) {
	mem := newMemTarget(t)
	gate := &gateTarget{Target: mem, gate: make(chan struct{})}
	srv := New(gate, Options{Workers: 2, MaxDeadline: -1})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr(), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inflight := make(chan error, 1)
	go func() {
		_, err := c.Exec(context.Background(), "ASSERT Flies (Bird);")
		inflight <- err
	}()
	for gate.waiting.Load() < 1 {
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let Shutdown stop the intake

	// New connections are refused while draining.
	if c2, err := Dial(srv.Addr(), WithMaxRetries(0)); err == nil {
		_, execErr := c2.Exec(context.Background(), "HOLDS Flies (Tweety);")
		if execErr == nil {
			t.Fatal("statement admitted during drain")
		}
		c2.Close()
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before drain: %v", err)
	default:
	}

	close(gate.gate) // in-flight statement finishes now
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight statement failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Second shutdown: already closed.
	if err := srv.Shutdown(context.Background()); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("second Shutdown = %v, want ErrServerClosed", err)
	}
}

// closeCounter counts Close calls on the way to the wrapped target.
type closeCounter struct {
	hql.Target
	n atomic.Int64
}

func (c *closeCounter) Close() error {
	c.n.Add(1)
	return nil
}

// TestShutdownClosesTargetOnce: with CloseTarget, concurrent Shutdown
// calls close the target exactly once.
func TestShutdownClosesTargetOnce(t *testing.T) {
	cc := &closeCounter{Target: newMemTarget(t)}
	srv := New(cc, Options{CloseTarget: true})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	}
	wg.Wait()
	if got := cc.n.Load(); got != 1 {
		t.Fatalf("target closed %d times, want exactly 1", got)
	}
}

// TestShutdownDrainDeadline: a statement stuck past the drain deadline is
// cancelled; Shutdown returns the deadline error but the server still
// tears down and the stuck client still gets an answer.
func TestShutdownDrainDeadline(t *testing.T) {
	mem := newMemTarget(t)
	gate := &gateTarget{Target: mem, gate: make(chan struct{})}
	defer close(gate.gate)
	srv := New(gate, Options{Workers: 1, MaxDeadline: -1})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr(), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	answered := make(chan error, 1)
	go func() {
		_, err := c.Exec(context.Background(), "ASSERT Flies (Bird);")
		answered <- err
	}()
	for gate.waiting.Load() < 1 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	select {
	case err := <-answered:
		if err == nil {
			t.Fatal("stuck statement reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stuck client never answered")
	}
}

// TestGoroutineHygiene: a full serve/load/shutdown cycle returns the
// process to its baseline goroutine count — no leaked handlers, workers,
// or task watchers.
func TestGoroutineHygiene(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		srv := New(newMemTarget(t), Options{Workers: 4})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := Dial(srv.Addr())
				if err != nil {
					return
				}
				defer c.Close()
				for j := 0; j < 5; j++ {
					c.Exec(context.Background(), "HOLDS Flies (Tweety);")
				}
			}()
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline=%d now=%d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConnectionLimit: connections beyond MaxConns get an overloaded
// error frame instead of hanging.
func TestConnectionLimit(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{MaxConns: 2})
	keep := make([]*Client, 2)
	for i := range keep {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
		keep[i] = c
	}
	// The handshake reads the server's refusal during Dial, so the error
	// surfaces eagerly there: the connection is answered, not hung.
	c, err := Dial(srv.Addr(), WithMaxRetries(0))
	if err == nil {
		defer c.Close()
		err = c.Ping(context.Background())
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third connection: got %v, want ErrOverloaded", err)
	}
}

// TestIdleTimeout: idle connections are reaped.
func TestIdleTimeout(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{IdleTimeout: 100 * time.Millisecond})
	c, err := Dial(srv.Addr(), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	// The server closed the idle conn; a plain round trip on the dead
	// socket fails, and the client repairs itself on redial.
	if err := c.Ping(context.Background()); err == nil {
		// Depending on timing the ping may already see the reset; both
		// outcomes are fine as long as Exec below works.
		_ = err
	}
	out, err := c.Exec(context.Background(), "HOLDS Flies (Tweety);")
	if err != nil || strings.TrimSpace(out) != "true" {
		t.Fatalf("after idle reap: %q, %v", out, err)
	}
}

// TestIdleTimeoutSparesBusyConnections: IdleTimeout reaps a connection
// only while nothing is outstanding on it. A statement parked past the
// timeout is answered, not severed, and a quiet feed is neither cut nor
// re-subscribed.
func TestIdleTimeoutSparesBusyConnections(t *testing.T) {
	t.Run("exec", func(t *testing.T) {
		gate := &gateTarget{Target: newMemTarget(t), gate: make(chan struct{})}
		srv := startServer(t, gate, Options{IdleTimeout: 100 * time.Millisecond})
		c, err := Dial(srv.Addr(), WithMaxRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		done := make(chan error, 1)
		go func() {
			_, err := c.Exec(context.Background(), "ASSERT Flies (Tweety);")
			done <- err
		}()
		waitParked(t, gate, 1)
		time.Sleep(400 * time.Millisecond)
		close(gate.gate)
		if err := <-done; err != nil {
			t.Fatalf("statement parked past IdleTimeout: %v", err)
		}
	})
	t.Run("feed", func(t *testing.T) {
		srv, _ := newSubscribeServer(t, Options{IdleTimeout: 150 * time.Millisecond})
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
		started := metricSubStarted.Value()
		nextChange(t, sub)
		ctx, cancel := context.WithTimeout(context.Background(), 800*time.Millisecond)
		defer cancel()
		if ch, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("quiet feed delivered %+v, %v", ch, err)
		}
		if n := metricSubStarted.Value() - started; n != 1 {
			t.Fatalf("feed subscribed %d times in 800ms, want once", n)
		}
	})
}

// TestProtocolErrors: malformed frames are answered with proto errors and
// oversized statements with toolarge, each closing its connection; the
// server survives all of them.
func TestProtocolErrors(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{MaxStatementBytes: 64})
	for _, tc := range []struct {
		name string
		raw  []byte
		want Code
	}{
		{"short EXEC payload", wire.AppendFrame(nil, wire.Frame{Type: wire.TypeExec, ID: 1, Payload: []byte{1, 2}}), codeProto},
		{"undersized length", []byte{0, 0, 0, wire.HeaderSize - 1}, codeProto},
		{"oversized statement", wire.AppendFrame(nil, wire.Frame{Type: wire.TypeExec, ID: 1, Payload: execPayload(0, strings.Repeat("x", 200))}), codeTooLarge},
		{"unknown frame type", wire.AppendFrame(nil, wire.Frame{Type: 0x7f, ID: 1}), codeProto},
		{"bad SUBSCRIBE payload", wire.AppendFrame(nil, wire.Frame{Type: wire.TypeSubscribe, ID: 1, Payload: []byte("short")}), codeProto},
	} {
		rc := rawHello(t, srv.Addr())
		if _, err := rc.c.Write(tc.raw); err != nil {
			t.Fatal(err)
		}
		f := rc.recv()
		code, _, _, err := wire.ParseErr(f.Payload)
		if f.Type != wire.TypeErr || err != nil || Code(code) != tc.want {
			t.Fatalf("%s: reply %+v (%q, %v), want ERR %s", tc.name, f, code, err, tc.want)
		}
		rc.closed()
	}
	// Server is still healthy.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}
