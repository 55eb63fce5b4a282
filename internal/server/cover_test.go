package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hrdb/internal/wire"
)

// This file pins surfaces the behavioral suites reach only incidentally:
// error formatting, the code-table init guards, the replication requests,
// and raw-frame edge traffic a well-behaved client never emits.

func TestServerErrorString(t *testing.T) {
	e := &ServerError{Code: codeExec, Msg: "boom"}
	if got := e.Error(); got != "server: exec: boom" {
		t.Fatalf("Error() = %q", got)
	}
}

// TestDefineCodeGuards: the code table refuses duplicates and nil
// sentinels at init. Both guards fire before the registry is touched, so
// the exhaustive-table test stays valid after this one runs.
func TestDefineCodeGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { defineCode("proto", ErrProtocol) })
	mustPanic("nil sentinel", func() { defineCode("cover-only-nil", nil) })
	if _, ok := codeSentinels[Code("cover-only-nil")]; ok {
		t.Fatal("rejected code leaked into the registry")
	}
}

// TestV2ReplVerbs: LAG and PROMOTE frames — unsupported on a plain server,
// proxied to the hooks on a replica, and a failing promote hook surfaces
// as an exec failure carrying the hook's error.
func TestV2ReplVerbs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	t.Run("not-a-replica", func(t *testing.T) {
		srv := startServer(t, newMemTarget(t), Options{})
		c, err := Dial(srv.Addr(), WithMaxRetries(0), WithDialTimeout(2*time.Second))
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		if _, err := c.Lag(ctx); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("Lag on non-replica: %v, want ErrUnsupported", err)
		}
		if err := c.Promote(ctx); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("Promote on non-replica: %v, want ErrUnsupported", err)
		}
	})

	t.Run("hooks", func(t *testing.T) {
		want := LagInfo{Staleness: 7 * time.Millisecond, Epoch: 3, Offset: 99, State: "streaming"}
		promoteErr := errors.New("injected: promote refused")
		var promoted bool
		srv := startServer(t, newMemTarget(t), Options{
			LagProbe: func() LagInfo { return want },
			Promote: func() error {
				if promoted {
					return promoteErr
				}
				promoted = true
				return nil
			},
		})
		c, err := Dial(srv.Addr(), WithMaxRetries(0))
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		got, err := c.Lag(ctx)
		if err != nil || got != want {
			t.Fatalf("Lag = %+v, %v; want %+v", got, err, want)
		}
		if err := c.Promote(ctx); err != nil {
			t.Fatalf("Promote: %v", err)
		}
		var se *ServerError
		if err := c.Promote(ctx); !errors.Is(err, ErrExecFailed) || !errors.As(err, &se) || se.Msg != promoteErr.Error() {
			t.Fatalf("failing Promote hook: %v, want ErrExecFailed carrying %q", err, promoteErr)
		}
	})
}

// TestRawV2EdgeFrames drives the mux with hand-built frames: canceling a
// statement still queued behind a running one on the same stream answers
// it without executing; CANCEL and ENDSTREAM for unknown IDs are no-ops;
// an unknown frame type is a protocol error that ends the connection.
func TestRawV2EdgeFrames(t *testing.T) {
	gate := &gateTarget{Target: newMemTarget(t), gate: make(chan struct{})}
	srv := startServer(t, gate, Options{Workers: 1, QueueDepth: 8})
	release := sync.OnceFunc(func() { close(gate.gate) })
	t.Cleanup(release)

	rc := rawHello(t, srv.Addr())

	// id 1 parks on the gate; id 2 queues behind it on the same stream.
	// The read loop enqueues id 2 before it sees the CANCEL, so the
	// cancel deterministically hits a queued-not-started statement.
	rc.send(wire.Frame{Type: wire.TypeExec, ID: 1, Stream: 1, Payload: execPayload(0, "ASSERT Flies (Tweety);")})
	waitParked(t, gate, 1)
	rc.send(wire.Frame{Type: wire.TypeExec, ID: 2, Stream: 1, Payload: execPayload(0, "HOLDS Flies (Tweety);")})
	rc.send(wire.Frame{Type: wire.TypeCancel, ID: 2})
	if code, msg := rc.recvErr(2); code != codeCanceled || !strings.Contains(msg, "before execution") {
		t.Fatalf("canceled-while-queued reply = %s %q", code, msg)
	}

	// Unknown IDs are no-ops: the stream above must still complete.
	rc.send(wire.Frame{Type: wire.TypeCancel, ID: 77})
	rc.send(wire.Frame{Type: wire.TypeEndStream, Stream: 99})
	release()
	if f := rc.recv(); f.Type != wire.TypeOK || f.ID != 1 {
		t.Fatalf("gated statement reply = %+v", f)
	}
	// Retiring the now-idle stream recycles its session silently.
	rc.send(wire.Frame{Type: wire.TypeEndStream, Stream: 1})

	// An unrecognized frame type is answered and ends the connection.
	rc.send(wire.Frame{Type: 0x7f, ID: 9})
	if code, _ := rc.recvErr(9); code != codeProto {
		t.Fatalf("unknown-type reply code = %s", code)
	}
	rc.closed()
}

// TestRawV2Goodbye: GOODBYE closes the connection cleanly, no reply.
func TestRawV2Goodbye(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{})
	rc := rawHello(t, srv.Addr())
	rc.send(wire.Frame{Type: wire.TypeGoodbye})
	rc.closed()
}
