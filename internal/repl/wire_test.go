package repl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// Frame-level round trips and malformed-input rejection for the stream
// protocol, independent of any live primary/replica.

func TestPositionBefore(t *testing.T) {
	cases := []struct {
		p, q storage.Position
		want bool
	}{
		{storage.Position{Epoch: 0, Offset: 0}, storage.Position{Epoch: 0, Offset: 1}, true},
		{storage.Position{Epoch: 0, Offset: 99}, storage.Position{Epoch: 1, Offset: 0}, true},
		{storage.Position{Epoch: 1, Offset: 0}, storage.Position{Epoch: 0, Offset: 99}, false},
		{storage.Position{Epoch: 2, Offset: 5}, storage.Position{Epoch: 2, Offset: 5}, false},
		{storage.Position{Epoch: 2, Offset: 6}, storage.Position{Epoch: 2, Offset: 5}, false},
	}
	for _, c := range cases {
		if got := c.p.Before(c.q); got != c.want {
			t.Errorf("%v.Before(%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

// readStream decodes the next stream frame off br.
func readStream(t *testing.T, br *bufio.Reader) (wire.Frame, streamFrame, error) {
	t.Helper()
	f, err := wire.ReadFrame(br, 2*maxShipChunk)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	sf, err := decodeStreamFrame(f)
	return f, sf, err
}

func TestStreamFrameRoundTrips(t *testing.T) {
	// What ServeStream writes, decoded the way applyStream reads it.
	var buf bytes.Buffer
	at := wire.StreamPos{Term: 7, Epoch: 3, Offset: 1024}
	chunk := []byte("raw wal bytes\nwith a newline inside")
	send := func(typ byte, payload []byte) {
		must(t, wire.WriteFrame(&buf, wire.Frame{Type: typ, ID: 5, Payload: payload}))
	}
	send(wire.TypeShip, wire.ShipPayload(at, chunk))
	send(wire.TypeHB, wire.AppendStreamPos(nil, wire.StreamPos{Term: 7, Epoch: 3, Offset: 2048}))
	send(wire.TypeRotate, wire.AppendStreamPos(nil, wire.StreamPos{Term: 7, Epoch: 4}))
	must(t, wire.WriteFrame(&buf, wire.ErrFrame(5, 0, "stale", 0, "epoch 3 was checkpointed away")))

	br := bufio.NewReader(&buf)
	f, sf, err := readStream(t, br)
	if err != nil || f.ID != 5 || sf.typ != wire.TypeShip || sf.at != at || !bytes.Equal(sf.chunk, chunk) {
		t.Fatalf("SHIP round trip = %+v, %v", sf, err)
	}
	if _, sf, err = readStream(t, br); err != nil || sf.typ != wire.TypeHB || sf.at != (wire.StreamPos{Term: 7, Epoch: 3, Offset: 2048}) {
		t.Fatalf("HB round trip = %+v, %v", sf, err)
	}
	if _, sf, err = readStream(t, br); err != nil || sf.typ != wire.TypeRotate || sf.at != (wire.StreamPos{Term: 7, Epoch: 4}) {
		t.Fatalf("ROTATE round trip = %+v, %v", sf, err)
	}
	f, _, err = readStream(t, br)
	var stale *wire.Error
	if f.ID != 5 || !errors.As(err, &stale) || stale.Code != "stale" || stale.Msg != "epoch 3 was checkpointed away" {
		t.Fatalf("stale round trip = %+v, %v", f, err)
	}
}

// TestAckRoundTrip: the ACK a follower sends after each frame carries its
// resume position and fencing term on the stream's request id, in the
// payload the server decodes with wire.ParseStreamPos; a malformed one is
// refused there.
func TestAckRoundTrip(t *testing.T) {
	acks := make(chan wire.Frame, 1)
	addr := scriptedPrimary(t, func(_ net.Conn, br *bufio.Reader, _ wire.Frame) {
		if f, err := wire.ReadFrame(br, 64); err == nil {
			acks <- f
		}
	})
	rep := &Replica{pos: storage.Position{Epoch: 7, Offset: 4096}, term: 9}
	must(t, rep.ack(openRepl(t, addr)))
	f := <-acks
	if f.Type != wire.TypeAck || f.ID != 1 {
		t.Fatalf("ACK frame = %+v, want an ACK on the REPL id 1", f)
	}
	got, err := wire.ParseStreamPos(f.Payload)
	if err != nil || got != (wire.StreamPos{Term: 9, Epoch: 7, Offset: 4096}) {
		t.Fatalf("ACK round trip = %+v, %v", got, err)
	}

	pos := wire.AppendStreamPos(nil, wire.StreamPos{Term: 1, Epoch: 2, Offset: 3})
	negative := wire.AppendStreamPos(nil, wire.StreamPos{Offset: -3})
	for name, bad := range map[string][]byte{
		"short position":  pos[:23],
		"trailing bytes":  append(pos, 0),
		"negative offset": negative,
		"oversized":       make([]byte, 100),
	} {
		if _, err := wire.ParseStreamPos(bad); !errors.Is(err, wire.ErrProtocol) {
			t.Errorf("ParseStreamPos(%s) = %v, want a protocol error", name, err)
		}
	}
}

func TestReadStreamFrameRejectsMalformed(t *testing.T) {
	pos := wire.AppendStreamPos(nil, wire.StreamPos{Term: 1, Epoch: 2, Offset: 3})
	negative := wire.AppendStreamPos(nil, wire.StreamPos{Term: 1, Offset: -1})
	for name, f := range map[string]wire.Frame{
		"unknown type":       {Type: wire.TypeAck, Payload: pos},
		"OK on a stream":     {Type: wire.TypeOK},
		"SHIP without head":  {Type: wire.TypeShip, Payload: pos[:10]},
		"SHIP negative":      {Type: wire.TypeShip, Payload: negative},
		"SHIP over a chunk":  {Type: wire.TypeShip, Payload: wire.ShipPayload(wire.StreamPos{}, make([]byte, maxShipChunk+1))},
		"HB short":           {Type: wire.TypeHB, Payload: pos[:23]},
		"HB negative":        {Type: wire.TypeHB, Payload: negative},
		"ROTATE with extras": {Type: wire.TypeRotate, Payload: append(pos, 1)},
		"ERR truncated":      {Type: wire.TypeErr, Payload: []byte{5, 's'}},
	} {
		if _, err := decodeStreamFrame(f); !errors.Is(err, wire.ErrProtocol) {
			t.Errorf("decodeStreamFrame(%s) = %v, want a protocol error", name, err)
		}
	}

	// A stream frame announcing more than a SHIP can hold is refused before
	// its body is read, on a follower's connection whose SNAP replies may be
	// far larger: the primary sends the header alone.
	addr := scriptedPrimary(t, func(c net.Conn, br *bufio.Reader, req wire.Frame) {
		head := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeShip, ID: req.ID})
		binary.BigEndian.PutUint32(head, uint32(wire.HeaderSize+maxStreamFrame+1))
		c.Write(head)
		io.Copy(io.Discard, br)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := openRepl(t, addr).Next(ctx); !errors.Is(err, wire.ErrTooLarge) {
		t.Errorf("oversized stream frame = %v, want ErrTooLarge", err)
	}
}

// TestReadResponseFrame pins how a follower reads the answer to SNAP or
// LAG: an OK payload, an ERR as *wire.Error, and a protocol error for a
// frame that is no answer at all or one over the snapshot bound. An answer
// to some other request is not taken for this one: the request runs out
// its timeout instead.
func TestReadResponseFrame(t *testing.T) {
	// The request is the first on its connection, so it carries id 1.
	answer := func(timeout time.Duration, reply []byte) ([]byte, error) {
		addr := scriptedPrimary(t, func(c net.Conn, br *bufio.Reader, _ wire.Frame) {
			c.Write(reply)
			io.Copy(io.Discard, br) // hold the connection until the follower hangs up
		})
		return request(addr, wire.TypeSnap, maxSnapshotBytes, timeout)
	}
	frame := func(f wire.Frame) []byte { return wire.AppendFrame(nil, f) }

	got, err := answer(5*time.Second, frame(wire.Frame{Type: wire.TypeOK, ID: 1, Payload: []byte("hello")}))
	if err != nil || string(got) != "hello" {
		t.Fatalf("OK answer = %q, %v", got, err)
	}
	_, err = answer(5*time.Second, frame(wire.ErrFrame(1, 0, "stale", 0, "gone")))
	var refused *wire.Error
	if !errors.As(err, &refused) || refused.Code != "stale" || refused.Msg != "gone" {
		t.Fatalf("ERR answer = %v", err)
	}
	for name, reply := range map[string][]byte{
		"not an OK": frame(wire.Frame{Type: wire.TypeHB, ID: 1}),
		"bad ERR":   frame(wire.Frame{Type: wire.TypeErr, ID: 1, Payload: []byte{9}}),
		// Only the length prefix: the announcement alone is refused.
		"over bound": binary.BigEndian.AppendUint32(nil, uint32(maxSnapshotBytes+wire.HeaderSize+1)),
	} {
		if _, err := answer(5*time.Second, reply); !errors.Is(err, wire.ErrProtocol) && !errors.Is(err, wire.ErrTooLarge) {
			t.Errorf("%s: %v, want a protocol error", name, err)
		}
	}
	_, err = answer(200*time.Millisecond, frame(wire.Frame{Type: wire.TypeOK, ID: 2, Payload: []byte("not yours")}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("wrong id: %v, want the request's timeout", err)
	}
}

func TestBootstrapRoundTrip(t *testing.T) {
	b := bootstrap{Spec: storage.DatabaseSpec{}, Epoch: 2, Offset: 777,
		Term: 5, TakeoverEpoch: 1, TakeoverOffset: 333}
	enc, err := encodeBootstrap(b)
	must(t, err)
	got, err := decodeBootstrap(enc)
	must(t, err)
	if got.Epoch != 2 || got.Offset != 777 || got.Term != 5 ||
		got.TakeoverEpoch != 1 || got.TakeoverOffset != 333 {
		t.Fatalf("bootstrap round trip = %+v", got)
	}
	if _, err := decodeBootstrap([]byte("not gob at all")); !errors.Is(err, wire.ErrProtocol) {
		t.Fatalf("decodeBootstrap(garbage) = %v, want protocol error", err)
	}
}
