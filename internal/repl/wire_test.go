package repl

import (
	"bufio"
	"bytes"
	"errors"
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
	f, err := wire.ReadFrame(br, maxStreamFrame)
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
	must(t, writeStale(&buf, 5, "epoch 3 was checkpointed away"))

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

func TestAckRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	must(t, writeAck(&buf, 2, 9, storage.Position{Epoch: 7, Offset: 4096}))
	got, err := nextAck(bufio.NewReader(&buf))
	if err != nil || got != (wire.StreamPos{Term: 9, Epoch: 7, Offset: 4096}) {
		t.Fatalf("ACK round trip = %+v, %v", got, err)
	}

	frame := func(typ byte, payload []byte) []byte {
		return wire.AppendFrame(nil, wire.Frame{Type: typ, ID: 2, Payload: payload})
	}
	pos := wire.AppendStreamPos(nil, wire.StreamPos{Term: 1, Epoch: 2, Offset: 3})
	negative := wire.AppendStreamPos(nil, wire.StreamPos{Offset: -3})
	for name, bad := range map[string][]byte{
		"not an ACK":      frame(wire.TypeHB, pos),
		"short position":  frame(wire.TypeAck, pos[:23]),
		"trailing bytes":  frame(wire.TypeAck, append(pos, 0)),
		"negative offset": frame(wire.TypeAck, negative),
		"oversized frame": frame(wire.TypeAck, make([]byte, 100)),
	} {
		if _, err := nextAck(bufio.NewReader(bytes.NewReader(bad))); !errors.Is(err, wire.ErrProtocol) && !errors.Is(err, wire.ErrTooLarge) {
			t.Errorf("nextAck(%s) = %v, want a protocol error", name, err)
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
	// A frame announcing more than a SHIP can hold is refused before its
	// body is read.
	huge := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeShip, Payload: make([]byte, maxStreamFrame+1)})
	if _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(huge)), maxStreamFrame); !errors.Is(err, wire.ErrTooLarge) {
		t.Errorf("oversized stream frame = %v, want ErrTooLarge", err)
	}
}

// TestReadResponseFrame pins how a follower reads the answer to SNAP or
// LAG: an OK payload, an ERR as *wire.Error, and a protocol error for an
// answer to some other request or a frame that is no answer at all.
func TestReadResponseFrame(t *testing.T) {
	answer := func(reply func(req wire.Frame) wire.Frame) ([]byte, error) {
		client, server := net.Pipe()
		defer client.Close()
		go func() {
			defer server.Close()
			req, err := wire.ReadFrame(bufio.NewReader(server), 64)
			if err == nil {
				wire.WriteFrame(server, reply(req))
			}
		}()
		client.SetDeadline(time.Now().Add(5 * time.Second))
		p := &peer{Conn: client, br: bufio.NewReader(client)}
		return p.call(wire.TypeSnap, 16)
	}
	got, err := answer(func(req wire.Frame) wire.Frame {
		return wire.Frame{Type: wire.TypeOK, ID: req.ID, Payload: []byte("hello")}
	})
	if err != nil || string(got) != "hello" {
		t.Fatalf("OK answer = %q, %v", got, err)
	}
	_, err = answer(func(req wire.Frame) wire.Frame { return wire.ErrFrame(req.ID, 0, "stale", 0, "gone") })
	var refused *wire.Error
	if !errors.As(err, &refused) || refused.Code != "stale" || refused.Msg != "gone" {
		t.Fatalf("ERR answer = %v", err)
	}
	for name, reply := range map[string]func(wire.Frame) wire.Frame{
		"wrong id":  func(req wire.Frame) wire.Frame { return wire.Frame{Type: wire.TypeOK, ID: req.ID + 1} },
		"not an OK": func(req wire.Frame) wire.Frame { return wire.Frame{Type: wire.TypeHB, ID: req.ID} },
		"bad ERR":   func(req wire.Frame) wire.Frame { return wire.Frame{Type: wire.TypeErr, ID: req.ID, Payload: []byte{9}} },
		"over bound": func(req wire.Frame) wire.Frame {
			return wire.Frame{Type: wire.TypeOK, ID: req.ID, Payload: make([]byte, 17)}
		},
	} {
		if _, err := answer(reply); !errors.Is(err, wire.ErrProtocol) && !errors.Is(err, wire.ErrTooLarge) {
			t.Errorf("%s: %v, want a protocol error", name, err)
		}
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
