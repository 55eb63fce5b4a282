package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"hrdb/internal/wire"
)

// The replication requests at the protocol level, against stub hooks — the
// full stack (real Primary/Replica) is exercised by internal/repl's tests;
// here the server's dispatch, framing, and client surface are pinned in
// isolation.

// stubRepl is a canned ReplSource.
type stubRepl struct {
	snapshot []byte
	snapErr  error
	streamed chan wire.StreamPos // the position each ServeStream received
}

func (s *stubRepl) Snapshot() ([]byte, error) { return s.snapshot, s.snapErr }

func (s *stubRepl) ServeStream(r *bufio.Reader, w io.Writer, id uint64, from wire.StreamPos) error {
	if s.streamed != nil {
		s.streamed <- from
	}
	// Emit one heartbeat so the follower side has something to read, then
	// end the stream.
	return wire.WriteFrame(w, wire.Frame{Type: wire.TypeHB, ID: id, Payload: wire.AppendStreamPos(nil, from)})
}

// replFrame builds a REPL request for the given position.
func replFrame(id uint64, from wire.StreamPos) wire.Frame {
	return wire.Frame{Type: wire.TypeRepl, ID: id, Payload: wire.AppendStreamPos(nil, from)}
}

func TestReplVerbsUnsupportedWithoutHooks(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{})
	rc := rawHello(t, srv.Addr())
	for i, f := range []wire.Frame{
		{Type: wire.TypeSnap}, {Type: wire.TypeLag}, {Type: wire.TypePromote}, replFrame(0, wire.StreamPos{}),
	} {
		f.ID = uint64(i + 1)
		rc.send(f)
		if code, _ := rc.recvErr(f.ID); code != codeUnsupported {
			t.Fatalf("type %#x = ERR %s, want %s", f.Type, code, codeUnsupported)
		}
	}
}

func TestSnapServesSnapshotPayload(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{Repl: &stubRepl{snapshot: []byte("opaque-bootstrap-bytes")}})
	rc := rawHello(t, srv.Addr())
	rc.send(wire.Frame{Type: wire.TypeSnap, ID: 4})
	if f := rc.recv(); f.Type != wire.TypeOK || f.ID != 4 || string(f.Payload) != "opaque-bootstrap-bytes" {
		t.Fatalf("SNAP = %+v", f)
	}

	// Snapshot failures surface as exec errors; the connection carries on.
	broken := startServer(t, newMemTarget(t), Options{Repl: &stubRepl{snapErr: errors.New("store busted")}})
	rc = rawHello(t, broken.Addr())
	rc.send(wire.Frame{Type: wire.TypeSnap, ID: 1})
	if code, msg := rc.recvErr(1); code != codeExec || msg != "store busted" {
		t.Fatalf("SNAP with failing source = %s %q", code, msg)
	}
	rc.send(wire.Frame{Type: wire.TypePing, ID: 2})
	if f := rc.recv(); f.Type != wire.TypeOK || f.ID != 2 {
		t.Fatalf("PING after a failed SNAP = %+v", f)
	}
}

func TestReplHandsConnectionToStream(t *testing.T) {
	repl := &stubRepl{streamed: make(chan wire.StreamPos, 1)}
	srv := startServer(t, newMemTarget(t), Options{Repl: repl})
	rc := rawHello(t, srv.Addr())
	// The position's term is the follower's fencing term.
	want := wire.StreamPos{Term: 7, Epoch: 2, Offset: 99}
	rc.send(replFrame(3, want))
	if got := <-repl.streamed; got != want {
		t.Fatalf("ServeStream got %+v, want %+v", got, want)
	}
	// The stream's frames carry the REPL id (no OK envelope), then the
	// server closes the connection.
	if f := rc.recv(); f.Type != wire.TypeHB || f.ID != 3 {
		t.Fatalf("stream frame = %+v", f)
	}
	rc.closed()
}

func TestReplRejectsBadPositions(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{Repl: &stubRepl{}})
	negative := wire.AppendStreamPos(nil, wire.StreamPos{Epoch: 1, Offset: -5})
	for _, payload := range [][]byte{nil, negative[:16], append(negative[:24:24], 7), negative} {
		rc := rawHello(t, srv.Addr())
		rc.send(wire.Frame{Type: wire.TypeRepl, ID: 1, Payload: payload})
		if code, _ := rc.recvErr(1); code != codeProto {
			t.Fatalf("REPL payload %x = ERR %s, want %s", payload, code, codeProto)
		}
		rc.closed()
	}

	// REPL must be the connection's only outstanding request: with a feed
	// or a statement still open there would be two conversations on one
	// socket.
	gate := &gateTarget{Target: newMemTarget(t), gate: make(chan struct{})}
	defer close(gate.gate)
	busy := startServer(t, gate, Options{Repl: &stubRepl{}})
	rc := rawHello(t, busy.Addr())
	rc.send(wire.Frame{Type: wire.TypeExec, ID: 1, Stream: 1, Payload: execPayload(0, "ASSERT Flies (Tweety);")})
	waitParked(t, gate, 1)
	rc.send(replFrame(2, wire.StreamPos{}))
	if code, _ := rc.recvErr(2); code != codeProto {
		t.Fatalf("REPL beside an outstanding EXEC = ERR %s, want %s", code, codeProto)
	}
}

func TestClientLagAndPromote(t *testing.T) {
	var promoted atomic.Bool
	srv := startServer(t, newMemTarget(t), Options{
		LagProbe: func() LagInfo {
			return LagInfo{Staleness: 250 * time.Millisecond, Epoch: 1, Offset: 42, State: "streaming"}
		},
		Promote: func() error {
			if !promoted.CompareAndSwap(false, true) {
				return errors.New("already promoted")
			}
			return nil
		},
	})
	cli, err := Dial(srv.Addr())
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
	want := LagInfo{Staleness: 250 * time.Millisecond, Epoch: 1, Offset: 42, State: "streaming"}
	if li != want {
		t.Fatalf("Lag = %+v, want %+v", li, want)
	}

	if err := cli.Promote(ctx); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if !promoted.Load() {
		t.Fatal("promote hook not called")
	}
	// A failing hook surfaces as an exec ServerError carrying its cause.
	var se *ServerError
	if err := cli.Promote(ctx); !errors.As(err, &se) || se.Code != codeExec || se.Msg != "already promoted" {
		t.Fatalf("second Promote = %v, want exec ServerError %q", err, "already promoted")
	}
}
