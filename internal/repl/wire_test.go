package repl

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"hrdb/internal/storage"
)

// Frame-level round trips and malformed-input rejection for the stream
// protocol, independent of any live primary/replica.

func frameReader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

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

func TestStreamFrameRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	pos := storage.Position{Epoch: 3, Offset: 1024}
	chunk := []byte("raw wal bytes\nwith a newline inside")
	must(t, writeShip(w, 7, pos, chunk))
	must(t, writeHB(w, 7, storage.Position{Epoch: 3, Offset: 2048}))
	must(t, writeRotate(w, 7, 4))
	must(t, writeStale(w, "epoch 3 was checkpointed away"))

	br := bufio.NewReader(&buf)
	f, err := readStreamFrame(br)
	must(t, err)
	if f.kind != "SHIP" || f.term != 7 || f.pos != pos || !bytes.Equal(f.payload, chunk) {
		t.Fatalf("SHIP round trip = %+v", f)
	}
	f, err = readStreamFrame(br)
	must(t, err)
	if f.kind != "HB" || f.term != 7 || f.pos != (storage.Position{Epoch: 3, Offset: 2048}) {
		t.Fatalf("HB round trip = %+v", f)
	}
	f, err = readStreamFrame(br)
	must(t, err)
	if f.kind != "ROTATE" || f.term != 7 || f.pos.Epoch != 4 {
		t.Fatalf("ROTATE round trip = %+v", f)
	}
	f, err = readStreamFrame(br)
	must(t, err)
	if f.kind != "ERR" || f.code != "stale" || f.msg != "epoch 3 was checkpointed away" {
		t.Fatalf("ERR round trip = %+v", f)
	}
}

func TestAckRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	must(t, writeAck(w, 9, storage.Position{Epoch: 7, Offset: 4096}))
	term, got, err := readAck(bufio.NewReader(&buf))
	must(t, err)
	if term != 9 || got != (storage.Position{Epoch: 7, Offset: 4096}) {
		t.Fatalf("ACK round trip = term %d pos %+v", term, got)
	}

	for _, bad := range []string{
		"ACK 1 2\n", "NAK 1 2 3\n", "ACK x 2 3\n", "ACK 1 x 3\n", "ACK 1 2 x\n",
		"ACK 1 2 -3\n", "ACK 1 2 3 4\n", "\n",
	} {
		if _, _, err := readAck(frameReader(bad)); !errors.Is(err, errProto) {
			t.Errorf("readAck(%q) = %v, want protocol error", bad, err)
		}
	}
}

func TestReadStreamFrameRejectsMalformed(t *testing.T) {
	protoErrs := []string{
		"\n",
		"NOPE 1 2\n",
		"SHIP 1 2 3\n", // term-less header
		"SHIP x 0 0 0\n\n",
		"SHIP 0 x 0 0\n\n",
		"SHIP 0 0 -1 0\n\n",
		"SHIP 0 0 0 9999999999\n", // beyond maxShipChunk
		"HB 1 2\n",                // term-less header
		"HB x 1 2\n",
		"HB 0 x 2\n",
		"HB 0 1 -2\n",
		"ROTATE\n",
		"ROTATE 1\n", // term-less header
		"ROTATE x 1\n",
		"ROTATE 1 x\n",
		"ERR stale 0\n",
		"ERR stale 0 99999999\n", // beyond maxShipChunk
	}
	for _, bad := range protoErrs {
		if _, err := readStreamFrame(frameReader(bad)); !errors.Is(err, errProto) {
			t.Errorf("readStreamFrame(%q) = %v, want protocol error", bad, err)
		}
	}
	// A SHIP whose payload is cut short or unterminated fails, but as an IO
	// or framing error rather than silent truncation.
	if _, err := readStreamFrame(frameReader("SHIP 0 0 0 5\nab")); err == nil {
		t.Error("short SHIP payload accepted")
	}
	if _, err := readStreamFrame(frameReader("SHIP 0 0 0 2\nabX")); !errors.Is(err, errProto) {
		t.Error("unterminated SHIP payload accepted")
	}
}

func TestReadResponseFrame(t *testing.T) {
	ok, code, payload, err := readResponseFrame(frameReader("OK 5\nhello\n"), 1<<20)
	must(t, err)
	if !ok || code != "" || payload != "hello" {
		t.Fatalf("OK frame = ok=%v code=%q payload=%q", ok, code, payload)
	}
	ok, code, payload, err = readResponseFrame(frameReader("ERR stale 0 4\ngone\n"), 1<<20)
	must(t, err)
	if ok || code != "stale" || payload != "gone" {
		t.Fatalf("ERR frame = ok=%v code=%q payload=%q", ok, code, payload)
	}

	for _, bad := range []string{
		"\n", "OK\n", "OK x\n", "OK -1\n", "OK 999\nhi\n", "ERR exec 0\n", "WAT 1\nx\n",
		"OK 2\nhiX", // bad terminator
	} {
		if _, _, _, err := readResponseFrame(frameReader(bad), 16); !errors.Is(err, errProto) {
			t.Errorf("readResponseFrame(%q) = %v, want protocol error", bad, err)
		}
	}
	// Truncated payload is an IO error.
	if _, _, _, err := readResponseFrame(frameReader("OK 5\nab"), 16); err == nil {
		t.Error("truncated payload accepted")
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
	if _, err := decodeBootstrap([]byte("not gob at all")); !errors.Is(err, errProto) {
		t.Fatalf("decodeBootstrap(garbage) = %v, want protocol error", err)
	}
}
