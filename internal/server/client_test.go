package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hrdb/internal/wire"
)

// fakeServer speaks the wire protocol from a canned reply script so tests
// can count exactly how many times the client delivered a request. The
// i-th EXEC gets replies[i] (clamped to the last entry); a reply func
// returns false to drop the connection afterwards.
type fakeServer struct {
	ln       net.Listener
	attempts atomic.Int64
	replies  []reply
}

// reply answers one EXEC frame on c.
type reply func(c net.Conn, req wire.Frame) bool

func newFakeServer(t *testing.T, replies ...reply) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{ln: ln, replies: replies}
	t.Cleanup(func() { ln.Close() })
	go f.loop()
	return f
}

func (f *fakeServer) addr() string { return f.ln.Addr().String() }

func (f *fakeServer) loop() {
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.serve(c) // one client at a time; the tests issue one request at a time
	}
}

func (f *fakeServer) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	if _, err := wire.ReadHello(br); err != nil || wire.WriteHelloOK(c, "v2 tenant=default") != nil {
		return
	}
	for {
		req, err := wire.ReadFrame(br, 1<<20)
		if err != nil {
			return
		}
		if req.Type != wire.TypeExec {
			if wire.WriteFrame(c, okFrame(req.ID, req.Stream, "pong")) != nil {
				return
			}
			continue
		}
		i := int(f.attempts.Add(1)) - 1
		if i >= len(f.replies) {
			i = len(f.replies) - 1
		}
		if !f.replies[i](c, req) {
			return
		}
	}
}

// Canned replies.
func okReply(payload string) reply {
	return func(c net.Conn, req wire.Frame) bool {
		return wire.WriteFrame(c, okFrame(req.ID, req.Stream, payload)) == nil
	}
}

func errReply(code Code, hint time.Duration) reply {
	return func(c net.Conn, req wire.Frame) bool {
		return wire.WriteFrame(c, errFrame(req.ID, req.Stream, code, hint, "injected "+string(code))) == nil
	}
}

// severReply drops the connection without answering: the client cannot
// know whether the statement executed.
func severReply(c net.Conn, _ wire.Frame) bool {
	c.Close()
	return false
}

// TestClientRetryPolicy pins the retry matrix: ambiguous transport
// failures are retried only for idempotent (read-only) scripts or with an
// explicit opt-in, definitive not-executed shed replies are retried for
// anything, and definitive statement failures are never retried.
func TestClientRetryPolicy(t *testing.T) {
	const (
		mutation = "ASSERT Flies (Tweety);"
		readOnly = "HOLDS Flies (Tweety);"
	)
	fast := WithBackoff(time.Millisecond, 5*time.Millisecond)
	cases := []struct {
		name         string
		script       string
		replies      []reply
		opts         []Option
		wantAttempts int64
		wantErr      bool
	}{
		{
			name:         "mutation never auto-retried after severed reply",
			script:       mutation,
			replies:      []reply{severReply, okReply("late")},
			opts:         []Option{WithMaxRetries(3), fast},
			wantAttempts: 1,
			wantErr:      true,
		},
		{
			name:         "read-only retried after severed reply",
			script:       readOnly,
			replies:      []reply{severReply, okReply("true")},
			opts:         []Option{WithMaxRetries(3), fast},
			wantAttempts: 2,
		},
		{
			name:         "mutation retried after severed reply when opted in",
			script:       mutation,
			replies:      []reply{severReply, okReply("done")},
			opts:         []Option{WithMaxRetries(3), WithRetryNonIdempotent(true), fast},
			wantAttempts: 2,
		},
		{
			name:   "mutation retried after overloaded: definitively not executed",
			script: mutation,
			replies: []reply{
				errReply(codeOverloaded, time.Millisecond), okReply("done"),
			},
			opts:         []Option{WithMaxRetries(3), fast},
			wantAttempts: 2,
		},
		{
			name:   "mutation retried after shutdown: definitively not executed",
			script: mutation,
			replies: []reply{
				errReply(codeShutdown, 0), okReply("done"),
			},
			opts:         []Option{WithMaxRetries(3), fast},
			wantAttempts: 2,
		},
		{
			name:         "exec error never retried",
			script:       readOnly,
			replies:      []reply{errReply(codeExec, 0), okReply("true")},
			opts:         []Option{WithMaxRetries(3), fast},
			wantAttempts: 1,
			wantErr:      true,
		},
		{
			name:         "retry budget bounds attempts",
			script:       readOnly,
			replies:      []reply{severReply},
			opts:         []Option{WithMaxRetries(2), fast},
			wantAttempts: 3, // initial + 2 retries
			wantErr:      true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeServer(t, tc.replies...)
			c, err := Dial(f.addr(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = c.Exec(context.Background(), tc.script)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if got := f.attempts.Load(); got != tc.wantAttempts {
				t.Fatalf("server saw %d attempts, want %d", got, tc.wantAttempts)
			}
		})
	}
}

// TestExecClassifiesOnlyForRetry: Exec parses its script for the retry
// policy only when a transport failure leaves a retry to decide, and then
// once however many retries follow.
func TestExecClassifiesOnlyForRetry(t *testing.T) {
	var calls atomic.Int64
	saved := readOnlyScript
	readOnlyScript = func(s string) bool { calls.Add(1); return saved(s) }
	defer func() { readOnlyScript = saved }()
	fast := WithBackoff(time.Millisecond, 5*time.Millisecond)
	cases := []struct {
		name      string
		replies   []reply
		opts      []Option
		wantCalls int64
	}{
		{"answered on the first attempt", []reply{okReply("true")}, []Option{WithMaxRetries(3), fast}, 0},
		{"shed: retried whatever the script", []reply{errReply(codeOverloaded, 0), okReply("true")}, []Option{WithMaxRetries(3), fast}, 0},
		{"severed without a retry budget", []reply{severReply}, []Option{WithMaxRetries(0)}, 0},
		{"severed twice, then answered", []reply{severReply, severReply, okReply("true")}, []Option{WithMaxRetries(3), fast}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls.Store(0)
			f := newFakeServer(t, tc.replies...)
			c, err := Dial(f.addr(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, _ = c.Exec(context.Background(), "HOLDS Flies (Tweety);")
			if got := calls.Load(); got != tc.wantCalls {
				t.Fatalf("script classified %d times, want %d", got, tc.wantCalls)
			}
		})
	}
}

// TestBackoffHonorsRetryAfterHint: the sleep before a retry never
// undercuts the server's hint.
func TestBackoffHonorsRetryAfterHint(t *testing.T) {
	f := newFakeServer(t,
		errReply(codeOverloaded, 150*time.Millisecond), okReply("done"))
	c, err := Dial(f.addr(), WithMaxRetries(2), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Exec(context.Background(), "ASSERT Flies (Tweety);"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 140*time.Millisecond {
		t.Fatalf("retried after %v, before the 150ms Retry-After hint", elapsed)
	}
	if got := f.attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

// TestBackoffRespectsContextDeadline: a huge Retry-After hint cannot make
// the client sleep past its own deadline — the backoff sleep aborts and
// Exec returns promptly.
func TestBackoffRespectsContextDeadline(t *testing.T) {
	f := newFakeServer(t, errReply(codeOverloaded, 10*time.Second))
	c, err := Dial(f.addr(), WithMaxRetries(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Exec(ctx, "HOLDS Flies (Tweety);")
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, ErrOverloaded) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("backoff ignored ctx deadline: took %v", elapsed)
	}
	if got := f.attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (sleep aborted before a retry)", got)
	}
}

// TestBackoffWindow exercises the jitter math directly: samples stay in
// (0, min(base·2^attempt, max)] and the hint is a floor.
func TestBackoffWindow(t *testing.T) {
	c := &Client{o: dialConfig{baseBackoff: 10 * time.Millisecond, maxBackoff: 80 * time.Millisecond}}
	for attempt := 0; attempt < 10; attempt++ {
		window := c.o.baseBackoff << uint(attempt)
		if window > c.o.maxBackoff || window <= 0 {
			window = c.o.maxBackoff
		}
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt, 0)
			if d <= 0 || d > window {
				t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, window)
			}
		}
	}
	if d := c.backoff(0, 500*time.Millisecond); d != 500*time.Millisecond {
		t.Fatalf("hint floor: got %v, want 500ms", d)
	}
}
