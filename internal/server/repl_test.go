package server

import (
	"context"
	"errors"
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
	acked    chan wire.StreamPos // the position of each ACK
}

func (s *stubRepl) Snapshot() ([]byte, error) { return s.snapshot, s.snapErr }

// ServeStream emits one heartbeat so the follower side has something to
// read, then stays live until the stream is canceled.
func (s *stubRepl) ServeStream(ctx context.Context, from wire.StreamPos, send func(byte, []byte) error) error {
	if s.streamed != nil {
		s.streamed <- from
	}
	if err := send(wire.TypeHB, wire.AppendStreamPos(nil, from)); err != nil {
		return err
	}
	<-ctx.Done()
	return ctx.Err()
}

func (s *stubRepl) Ack(pos wire.StreamPos) {
	if s.acked != nil {
		s.acked <- pos
	}
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

// TestReplStreamSharesConnection: a REPL stream is one request among the
// connection's others. Its frames carry the REPL id (no OK envelope);
// PING, LAG and EXEC beside it are answered; its ACK frames reach the
// source; and CANCEL ends it with exactly one ERR canceled.
func TestReplStreamSharesConnection(t *testing.T) {
	repl := &stubRepl{streamed: make(chan wire.StreamPos, 1), acked: make(chan wire.StreamPos, 1)}
	lag := LagInfo{Staleness: 5 * time.Millisecond, Epoch: 2, Offset: 99, State: "streaming"}
	srv := startServer(t, newMemTarget(t), Options{Repl: repl, LagProbe: func() LagInfo { return lag }})
	rc := rawHello(t, srv.Addr())
	// The position's term is the follower's fencing term.
	want := wire.StreamPos{Term: 7, Epoch: 2, Offset: 99}
	rc.send(replFrame(3, want))
	if got := <-repl.streamed; got != want {
		t.Fatalf("ServeStream got %+v, want %+v", got, want)
	}
	if f := rc.recv(); f.Type != wire.TypeHB || f.ID != 3 {
		t.Fatalf("stream frame = %+v", f)
	}

	rc.send(wire.Frame{Type: wire.TypePing, ID: 4})
	if f := rc.recv(); f.Type != wire.TypeOK || f.ID != 4 || string(f.Payload) != "pong" {
		t.Fatalf("PING beside a live REPL = %+v", f)
	}
	rc.send(wire.Frame{Type: wire.TypeLag, ID: 5})
	if f := rc.recv(); f.Type != wire.TypeOK || f.ID != 5 || string(f.Payload) != wire.LagPayload(lag) {
		t.Fatalf("LAG beside a live REPL = %+v", f)
	}
	rc.send(wire.Frame{Type: wire.TypeExec, ID: 6, Stream: 1, Flags: wire.FlagEndStream, Payload: execPayload(0, "HOLDS Flies (Tweety);")})
	if f := rc.recv(); f.Type != wire.TypeOK || f.ID != 6 {
		t.Fatalf("EXEC beside a live REPL = %+v", f)
	}

	ack := wire.StreamPos{Term: 7, Epoch: 2, Offset: 120}
	rc.send(wire.Frame{Type: wire.TypeAck, ID: 3, Payload: wire.AppendStreamPos(nil, ack)})
	if got := <-repl.acked; got != ack {
		t.Fatalf("Ack got %+v, want %+v", got, ack)
	}
	// An ACK on an id that is no REPL stream is dropped.
	rc.send(wire.Frame{Type: wire.TypeAck, ID: 77, Payload: wire.AppendStreamPos(nil, ack)})

	rc.send(wire.Frame{Type: wire.TypeCancel, ID: 3})
	if code, _ := rc.recvErr(3); code != codeCanceled {
		t.Fatalf("canceled REPL ended with ERR %s, want %s", code, codeCanceled)
	}
	rc.send(wire.Frame{Type: wire.TypePing, ID: 7})
	if f := rc.recv(); f.Type != wire.TypeOK || f.ID != 7 {
		t.Fatalf("after the REPL's ERR: %+v, want only the PING's OK", f)
	}
	select {
	case pos := <-repl.acked:
		t.Fatalf("ACK on a non-REPL id reached the source: %+v", pos)
	default:
	}
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
