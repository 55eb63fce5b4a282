package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

// fuzzMaxBytes keeps the fuzz target's size limit small so the corpus can
// actually reach the ErrTooLarge branch without megabyte inputs.
const fuzzMaxBytes = 1 << 10

func reader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: TypePing, ID: 1},
		{Type: TypeExec, Flags: FlagEndStream, ID: math.MaxUint64, Stream: math.MaxUint32, Payload: []byte("\x00\x00\x03\xe8HOLDS Flies (Tweety);")},
		{Type: TypeOK, ID: 7, Stream: 3, Payload: []byte("true\n")},
		ErrFrame(9, 2, "overloaded", 50*time.Millisecond, "server overloaded"),
		{Type: TypeCancel, ID: 12, Stream: 1},
		{Type: TypeEndStream, ID: 13, Stream: 4},
		{Type: TypeShip, ID: 2, Payload: ShipPayload(StreamPos{Term: 3, Epoch: 1, Offset: 77}, []byte("wal\nbytes"))},
		{Type: TypeAck, ID: 2, Payload: AppendStreamPos(nil, StreamPos{Term: 3, Epoch: 1, Offset: 86})},
	}
	for i, want := range cases {
		got, err := ReadFrame(reader(AppendFrame(nil, want)), max(len(want.Payload), 64))
		if err != nil {
			t.Fatalf("case %d: ReadFrame: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.ID != want.ID || got.Stream != want.Stream || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestErrFramePayloadRoundTrip(t *testing.T) {
	code, retry, msg, err := ParseErr(ErrPayload("quota", 250*time.Millisecond, "tenant over budget"))
	if err != nil || code != "quota" || retry != 250*time.Millisecond || msg != "tenant over budget" {
		t.Fatalf("got (%q, %v, %q, %v)", code, retry, msg, err)
	}
	// The retry hint clamps to the u32 field instead of wrapping.
	if _, retry, _, _ := ParseErr(ErrPayload("x", -time.Second, "")); retry != 0 {
		t.Errorf("negative hint = %v, want 0", retry)
	}
	if _, retry, _, _ := ParseErr(ErrPayload("x", 5000*time.Hour, "")); retry != math.MaxUint32*time.Millisecond {
		t.Errorf("huge hint = %v, want the field max", retry)
	}

	// A pathological code longer than the u8 length field truncates rather
	// than corrupting the frame.
	long := strings.Repeat("c", 300)
	code, _, msg, err = ParseErr(ErrPayload(long, 0, "m"))
	if err != nil || len(code) != math.MaxUint8 || msg != "m" {
		t.Errorf("long code: got len %d, msg %q, %v; want %d, %q", len(code), msg, err, math.MaxUint8, "m")
	}

	for _, bad := range [][]byte{
		{},             // empty
		{5, 'a', 'b'},  // code shorter than announced
		{1, 'a', 0, 0}, // retry field truncated
		{255},          // announced code with no bytes at all
	} {
		if _, _, _, err := ParseErr(bad); !errors.Is(err, ErrProtocol) {
			t.Errorf("ParseErr(%v): got %v, want ErrProtocol", bad, err)
		}
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	// Announced length below the fixed header is structurally impossible.
	if _, err := ReadFrame(reader(binary4(HeaderSize-1)), fuzzMaxBytes); !errors.Is(err, ErrProtocol) {
		t.Errorf("undersized length: got %v, want ErrProtocol", err)
	}
	// Announced length over maxBytes+header is rejected before allocation.
	if _, err := ReadFrame(reader(binary4(fuzzMaxBytes+HeaderSize+1)), fuzzMaxBytes); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized length: got %v, want ErrTooLarge", err)
	}
	// A body that stops short of the announced length is a protocol error,
	// not a silent EOF.
	whole := AppendFrame(nil, Frame{Type: TypePing, ID: 1})
	if _, err := ReadFrame(reader(whole[:len(whole)-1]), fuzzMaxBytes); !errors.Is(err, ErrProtocol) {
		t.Errorf("truncated body: got %v, want ErrProtocol", err)
	}
	// Clean EOF before any frame byte is io.EOF, so idle connection teardown
	// is distinguishable from corruption.
	if _, err := ReadFrame(reader(nil), fuzzMaxBytes); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
}

func binary4(n uint32) []byte {
	return []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

func TestReply(t *testing.T) {
	if p, err := Reply(Frame{Type: TypeOK, Payload: []byte("out")}); err != nil || string(p) != "out" {
		t.Errorf("OK frame: got (%q, %v)", p, err)
	}
	_, err := Reply(ErrFrame(1, 0, "stale", time.Second, "gone"))
	var we *Error
	if !errors.As(err, &we) || we.Code != "stale" || we.RetryAfter != time.Second || we.Msg != "gone" || we.Error() != "stale: gone" {
		t.Errorf("ERR frame: got %v", err)
	}
	if _, err := Reply(Frame{Type: TypeErr, Payload: []byte{9}}); !errors.Is(err, ErrProtocol) {
		t.Errorf("malformed ERR: got %v, want ErrProtocol", err)
	}
	if _, err := Reply(Frame{Type: TypeExec}); !errors.Is(err, ErrProtocol) {
		t.Errorf("request-typed frame as response: got %v, want ErrProtocol", err)
	}
}

func TestStreamPosRoundTrip(t *testing.T) {
	pos := StreamPos{Term: 7, Epoch: 3, Offset: 1024}
	got, err := ParseStreamPos(AppendStreamPos(nil, pos))
	if err != nil || got != pos {
		t.Fatalf("stream position round trip = %+v, %v", got, err)
	}
	chunk := []byte("raw wal bytes\nwith a newline inside")
	got, rest, err := ParseShip(ShipPayload(pos, chunk))
	if err != nil || got != pos || !bytes.Equal(rest, chunk) {
		t.Fatalf("SHIP round trip = %+v %q, %v", got, rest, err)
	}
	if got, rest, err := ParseShip(ShipPayload(pos, nil)); err != nil || got != pos || len(rest) != 0 {
		t.Fatalf("empty SHIP round trip = %+v %q, %v", got, rest, err)
	}

	negative := AppendStreamPos(nil, StreamPos{Offset: -1})
	for _, bad := range [][]byte{nil, negative[:23], append(negative[:24:24], 0), negative} {
		if _, err := ParseStreamPos(bad); !errors.Is(err, ErrProtocol) {
			t.Errorf("ParseStreamPos(%x) = %v, want ErrProtocol", bad, err)
		}
	}
	for _, bad := range [][]byte{nil, negative[:23], negative} {
		if _, _, err := ParseShip(bad); !errors.Is(err, ErrProtocol) {
			t.Errorf("ParseShip(%x) = %v, want ErrProtocol", bad, err)
		}
	}
}

func TestLagPayloadRoundTrip(t *testing.T) {
	cases := []LagInfo{
		{Staleness: 0, Epoch: 0, Offset: 0, State: "streaming"},
		{Staleness: 1500 * time.Millisecond, Epoch: 3, Offset: 12345, State: "catchup"},
		{Staleness: -1, Epoch: 0, Offset: 0, State: "connecting"},
		{Staleness: 0, Epoch: 9, Offset: 7, State: "promoted", Term: 4, ID: "r1", Source: "10.0.0.9:7584"},
	}
	for _, want := range cases {
		got, err := ParseLag(LagPayload(want))
		if err != nil {
			t.Fatalf("parse(%q): %v", LagPayload(want), err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
	// Empty fields render so the payload stays field-splittable.
	if p := LagPayload(LagInfo{Staleness: -1}); p != "-1 0 0 unknown 0 - -" {
		t.Fatalf("empty-state payload = %q", p)
	}
	// Exactly seven fields: the pre-failover four-field form is gone.
	for _, bad := range []string{"", "250 1 42 streaming", "1 2 3", "x 2 3 s 4 id src", "1 x 3 s 4 id src",
		"1 2 x s 4 id src", "1 2 3 s x id src", "1 2 3 s 4 id src extra"} {
		if _, err := ParseLag(bad); !errors.Is(err, ErrProtocol) {
			t.Fatalf("ParseLag(%q) = %v, want ErrProtocol", bad, err)
		}
	}
}

// helloServer accepts connections and answers each opening line with
// answer(tenant, err) after ReadHello.
func helloServer(t *testing.T, answer func(c net.Conn, tenant string, err error)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			tenant, err := ReadHello(bufio.NewReader(c))
			answer(c, tenant, err)
			c.Close()
		}
	}()
	return ln.Addr().String()
}

func TestHelloExchange(t *testing.T) {
	ctx := context.Background()
	addr := helloServer(t, func(c net.Conn, tenant string, err error) {
		switch {
		case err != nil:
			WriteHelloErr(c, "proto", 0, err.Error())
		case tenant == "nosuch":
			WriteHelloErr(c, "tenant", 70*time.Millisecond, `unknown tenant "nosuch"`)
		case tenant == "":
			WriteHelloOK(c, "v2 tenant=default")
		case tenant == "garbled":
			io.WriteString(c, "WAT\n")
		default:
			WriteHelloOK(c, "v2 tenant="+tenant)
		}
	})
	for tenant, want := range map[string]string{"": "default", "acme": "acme"} {
		conn, _, got, err := Dial(ctx, addr, time.Second, tenant)
		if err != nil || got != want {
			t.Fatalf("Dial(%q) = %q, %v; want %q", tenant, got, err, want)
		}
		conn.Close()
	}
	_, _, _, err := Dial(ctx, addr, time.Second, "nosuch")
	var we *Error
	if !errors.As(err, &we) || we.Code != "tenant" || we.RetryAfter != 70*time.Millisecond || we.Msg != `unknown tenant "nosuch"` {
		t.Fatalf("refused Dial = %v", err)
	}
	if _, _, _, err := Dial(ctx, addr, time.Second, "garbled"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("garbled reply: %v, want ErrProtocol", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, _, err := Dial(canceled, addr, time.Second, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Dial: %v", err)
	}
}

func TestReadHelloRejects(t *testing.T) {
	for line, want := range map[string]string{
		"HELLO 2\n":               "",
		"HELLO 3 acme\n":          "acme",
		"  HELLO   2   acme \r\n": "acme",
	} {
		if got, err := ReadHello(reader([]byte(line))); err != nil || got != want {
			t.Errorf("ReadHello(%q) = %q, %v; want %q", line, got, err, want)
		}
	}
	for _, bad := range []string{
		"EXEC 0 5\nHOLDS\n", "HELLO\n", "HELLO 1\n", "HELLO x\n", "HELLO 2 a b\n", "\n",
		"HELLO 2 " + strings.Repeat("t", 5000) + "\n",
	} {
		if _, err := ReadHello(reader([]byte(bad))); !errors.Is(err, ErrProtocol) {
			t.Errorf("ReadHello(%.20q) = %v, want ErrProtocol", bad, err)
		}
	}
	if _, err := ReadHello(reader([]byte("HELLO 2"))); !errors.Is(err, io.EOF) {
		t.Errorf("unterminated opening line: %v, want EOF", err)
	}
}

func TestStringListRoundTrip(t *testing.T) {
	for _, ss := range [][]string{nil, {""}, {"a", "", "line\nbreak", "sep\x1fbyte", strings.Repeat("x", 300)}} {
		p := appendStrings(nil, ss)
		r := payloadReader{p: append(p, 7)}
		got := r.strings()
		if r.err != nil || len(r.p) != 1 || len(got) != len(ss) || strings.Join(got, "|") != strings.Join(ss, "|") {
			t.Fatalf("round trip of %q = %q (rest %x), %v", ss, got, r.p, r.err)
		}
	}
	for _, bad := range [][]byte{
		nil,                      // no count
		{0, 0, 0},                // truncated count
		{0, 0, 0, 1},             // one string, no length
		{0, 0, 0, 1, 0, 0, 0, 2}, // length past the end
		{0xff, 0xff, 0xff, 0xff}, // a count no payload holds: refused before allocating
	} {
		r := payloadReader{p: bad}
		if r.strings(); !errors.Is(r.err, ErrProtocol) {
			t.Errorf("strings(%x): %v, want ErrProtocol", bad, r.err)
		}
	}
	r := payloadReader{p: appendStrings(nil, []string{"a"})}
	if r.u8(); !errors.Is(r.done(), ErrProtocol) {
		t.Error("trailing bytes accepted")
	}
}

// TestShardReplyRoundTrip: a COMMIT's warnings travel as their own field
// after the tuples, a reply without any encodes as one without the field,
// and an explicitly empty warning list is refused.
func TestShardReplyRoundTrip(t *testing.T) {
	for _, rep := range []ShardReply{
		{Status: "committed", Warnings: []string{`exception: (x) asserted false against inherited true in "R"`, "a\nb"}},
		{Status: "applied", Tuples: []core.Tuple{{Item: core.Item{"a"}, Sign: true}}, Warnings: []string{"w"}},
		{Status: "committed"},
	} {
		got, err := ParseShardReply(ShardReplyPayload(rep))
		if err != nil || !reflect.DeepEqual(got, rep) {
			t.Fatalf("round trip of %+v = %+v, %v", rep, got, err)
		}
	}
	bare := ShardReplyPayload(ShardReply{Status: "committed"})
	if !bytes.HasSuffix(bare, []byte{0, 0, 0, 0}) {
		t.Fatalf("reply without warnings = %x, want it to end at the empty tuple count", bare)
	}
	if _, err := ParseShardReply(append(bare, 0, 0, 0, 0)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("empty warning list = %v, want ErrProtocol", err)
	}
}

func TestChangeRoundTrip(t *testing.T) {
	for _, c := range []Change{
		{Kind: ChangeSnapshot, Epoch: 3, Offset: 1024, Rows: []string{"(a, b)", "(c, d)"}},
		{Kind: ChangeSnapshot},
		{Kind: ChangeDelta, Epoch: 3, Offset: 2048, Added: []string{"(e, f)"}, Removed: []string{"(a, b)"}},
		{Kind: ChangeDelta, Epoch: 4, Offset: 16, Added: []string{"+ (x)", "row with\na newline"}},
		{Kind: ChangeHeartbeat, Epoch: 4, Offset: 99},
	} {
		p, err := ChangePayload(c)
		if err != nil {
			t.Fatalf("ChangePayload(%+v): %v", c, err)
		}
		got, err := ParseChange(p)
		if err != nil || !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip of %+v = %+v, %v", c, got, err)
		}
	}
}

// TestChangeFramesByteAtATime: a feed's SUB frames decode the same whether
// the bytes arrive whole or one at a time.
func TestChangeFramesByteAtATime(t *testing.T) {
	want := []Change{
		{Kind: ChangeSnapshot, Epoch: 1, Offset: 7, Rows: []string{"r1", "r2", "r3"}},
		{Kind: ChangeDelta, Epoch: 1, Offset: 21, Added: []string{"r4"}, Removed: []string{"r1", "r2"}},
		{Kind: ChangeHeartbeat, Epoch: 2},
	}
	var stream []byte
	for _, c := range want {
		p, err := ChangePayload(c)
		if err != nil {
			t.Fatal(err)
		}
		stream = AppendFrame(stream, Frame{Type: TypeSub, ID: 1, Payload: p})
	}
	br := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(stream)))
	for i, w := range want {
		f, err := ReadFrame(br, 1<<10)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got, err := ParseChange(f.Payload); err != nil || !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d = %+v, %v; want %+v", i, got, err, w)
		}
	}
	if _, err := ReadFrame(br, 1<<10); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

// TestChangeFrameIncompleteThenComplete: a SUB frame short of its last byte
// is not handed out; the last byte's arrival completes it.
func TestChangeFrameIncompleteThenComplete(t *testing.T) {
	want := Change{Kind: ChangeDelta, Epoch: 9, Offset: 40, Added: []string{"row"}}
	p, err := ChangePayload(want)
	if err != nil {
		t.Fatal(err)
	}
	whole := AppendFrame(nil, Frame{Type: TypeSub, ID: 1, Payload: p})
	pr, pw := io.Pipe()
	defer pr.Close()
	type result struct {
		f   Frame
		err error
	}
	done := make(chan result, 1)
	go func() {
		f, err := ReadFrame(bufio.NewReader(pr), 1<<10)
		done <- result{f, err}
	}()
	// A pipe write returns once the reader holds every byte written.
	if _, err := pw.Write(whole[:len(whole)-1]); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		t.Fatalf("partial frame: ReadFrame = %+v, %v; want it still waiting", r.f, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := pw.Write(whole[len(whole)-1:]); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("completed frame: %v", r.err)
		}
		if got, err := ParseChange(r.f.Payload); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("completed frame = %+v, %v; want %+v", got, err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("completed frame was never read")
	}
}

func TestChangeDecodeErrors(t *testing.T) {
	good, _ := ChangePayload(Change{Kind: ChangeDelta, Epoch: 1, Offset: 2, Added: []string{"r"}})
	negative := append([]byte(nil), good...)
	negative[9] = 0x80 // the offset's sign bit
	unknown := append([]byte(nil), good...)
	unknown[0] = 9
	for name, p := range map[string][]byte{
		"empty":           nil,
		"unknown kind":    unknown,
		"zero kind":       append([]byte{0}, good[1:]...),
		"negative offset": negative,
		"truncated":       good[:len(good)-1],
		"trailing byte":   append(good[:len(good):len(good)], 0),
		"heartbeat rows":  append([]byte{3}, good[1:]...),
		"oversize":        make([]byte, maxChangeBytes+1),
	} {
		if c, err := ParseChange(p); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: ParseChange = %+v, %v; want ErrProtocol", name, c, err)
		}
	}
}

func TestChangeEncodeRejects(t *testing.T) {
	for _, kind := range []string{"SNAP", ""} {
		if _, err := ChangePayload(Change{Kind: kind}); err == nil {
			t.Errorf("ChangePayload accepted the kind %q", kind)
		}
	}
	big := Change{Kind: ChangeSnapshot, Rows: []string{strings.Repeat("r", maxChangeBytes)}}
	if _, err := ChangePayload(big); err == nil {
		t.Error("ChangePayload accepted a snapshot over the change cap")
	}
}

// FuzzFrameDecode holds the decoders to three properties on arbitrary
// bytes:
//
//  1. Chunked delivery is invisible: decoding from a reader that yields one
//     byte per Read returns exactly the same frame (or same error class) as
//     decoding the whole buffer at once. TCP segmentation must never change
//     the result.
//  2. Malformed input fails loudly with a classified error — ErrProtocol,
//     ErrTooLarge, or io EOF variants — never a panic, hang, or garbage
//     frame that re-encodes differently than it arrived.
//  3. The payload decoder for the frame's type (ERR, the replication
//     stream positions of REPL, ACK, HB, ROTATE and SHIP, a SUB frame's
//     change, an EXECSHARD's shard op, an OK's LAG payload or shard reply,
//     and the string list every typed payload is built from) either
//     rejects the payload with ErrProtocol or accepts exactly what its
//     encoder produces.
func FuzzFrameDecode(f *testing.F) {
	pos := StreamPos{Term: 2, Epoch: 1, Offset: 4096}
	f.Add(AppendFrame(nil, Frame{Type: TypePing, ID: 1}))
	f.Add(AppendFrame(nil, Frame{Type: TypeExec, Flags: FlagEndStream, ID: 42, Stream: 7, Payload: []byte("\x00\x00\x03\xe8HOLDS Flies (Tweety);")}))
	f.Add(AppendFrame(nil, ErrFrame(3, 1, "quota", time.Second, "shed")))
	f.Add(binary4(HeaderSize - 1))                             // undersized announced length
	f.Add(binary4(fuzzMaxBytes + HeaderSize + 1))              // oversized announced length
	f.Add(AppendFrame(nil, Frame{Type: TypePing, ID: 9})[:10]) // truncated body
	f.Add([]byte{})                                            // clean EOF
	f.Add([]byte{0, 0})                                        // truncated length prefix
	f.Add(AppendFrame(nil, Frame{Type: TypeSnap, ID: 1}))
	f.Add(AppendFrame(nil, Frame{Type: TypeRepl, ID: 2, Payload: AppendStreamPos(nil, pos)}))
	f.Add(AppendFrame(nil, Frame{Type: TypeShip, ID: 2, Payload: ShipPayload(pos, []byte("raw wal"))}))
	f.Add(AppendFrame(nil, Frame{Type: TypeHB, ID: 2, Payload: AppendStreamPos(nil, pos)}))
	f.Add(AppendFrame(nil, Frame{Type: TypeRotate, ID: 2, Payload: AppendStreamPos(nil, StreamPos{Term: 2, Epoch: 2})}))
	f.Add(AppendFrame(nil, Frame{Type: TypeAck, ID: 2, Payload: AppendStreamPos(nil, pos)}))
	f.Add(AppendFrame(nil, ErrFrame(2, 0, "stale", 0, "position superseded")))
	f.Add(AppendFrame(nil, Frame{Type: TypeOK, ID: 5, Payload: []byte(LagPayload(LagInfo{Staleness: -1, State: "connecting"}))}))
	f.Add(AppendFrame(nil, Frame{Type: TypeShip, ID: 2, Payload: []byte{0, 1, 2}})) // SHIP shorter than its position
	// Change feeds: a snapshot, a delta, a heartbeat, the ERR that ends a
	// feed, two frames back to back, and payloads that do not decode.
	sub := func(c Change) []byte {
		p, err := ChangePayload(c)
		if err != nil {
			f.Fatal(err)
		}
		return AppendFrame(nil, Frame{Type: TypeSub, ID: 9, Stream: 4, Payload: p})
	}
	f.Add(sub(Change{Kind: ChangeSnapshot, Epoch: 1, Offset: 2, Rows: []string{"a", "b", "c"}}))
	f.Add(sub(Change{Kind: ChangeDelta, Epoch: 3, Offset: 44, Added: []string{"x"}, Removed: []string{"yz"}}))
	f.Add(sub(Change{Kind: ChangeHeartbeat}))
	f.Add(AppendFrame(nil, ErrFrame(9, 4, "stale", 0, "gone")))
	f.Add(append(sub(Change{Kind: ChangeSnapshot, Epoch: 1, Offset: 2}), sub(Change{Kind: ChangeHeartbeat, Epoch: 1, Offset: 3})...))
	f.Add(AppendFrame(nil, Frame{Type: TypeSub, ID: 9, Payload: []byte("garbage")}))
	f.Add(AppendFrame(nil, Frame{Type: TypeSub, ID: 9, Payload: []byte{0xff, 0x00, '\n'}}))
	// Shard ops and replies, separator bytes in values included.
	execShard := func(p []byte) []byte {
		return AppendFrame(nil, Frame{Type: TypeExecShard, Flags: FlagEndStream, ID: 8, Stream: 3, Payload: append([]byte{0, 0, 0, 0}, p...)})
	}
	f.Add(execShard(AppendShardOp(nil, ShardOp{Verb: ShardPrepare, GID: "g1.7", Ops: []catalog.TxOp{
		{Kind: catalog.KindAssert, Relation: "Flies", Values: []string{"Bird"}},
		{Kind: catalog.KindDeny, Relation: "Flies", Values: []string{"Bird"}, Bare: true},
	}})))
	f.Add(execShard(AppendShardOp(nil, ShardOp{Verb: ShardApply, GID: "g", Ops: []catalog.TxOp{{Kind: catalog.KindRetract, Relation: "R"}}})))
	f.Add(AppendFrame(nil, Frame{Type: TypeOK, ID: 8, Stream: 3, Payload: ShardReplyPayload(ShardReply{Tuples: []core.Tuple{
		{Item: core.Item{"a", "b"}, Sign: true}, {Item: core.Item{"c"}}}})}))
	f.Add(AppendFrame(nil, Frame{Type: TypeOK, ID: 8, Stream: 3, Payload: ShardReplyPayload(ShardReply{Status: "applied",
		Tuples: []core.Tuple{{Item: core.Item{"a"}, Sign: true}}, Warnings: []string{"w"}})}))
	f.Add(execShard(nil))
	f.Add(execShard(AppendShardOp(nil, ShardOp{Verb: "SELECT", Relation: "r\x1fs", Conds: [][2]string{{"a\nb", "c"}}})))
	f.Add(execShard(AppendShardOp(nil, ShardOp{Verb: ShardTuples, Relation: "Flies", Items: []core.Item{{"Tweety"}, {}}})))
	f.Add(AppendFrame(nil, Frame{Type: TypeOK, ID: 8, Payload: ShardReplyPayload(ShardReply{Status: "prepared 2"})}))
	f.Add(AppendFrame(nil, Frame{Type: TypeOK, ID: 8, Payload: ShardReplyPayload(ShardReply{Status: "committed", Warnings: []string{"exception: (x)", ""}})}))
	f.Add(AppendFrame(nil, Frame{Type: TypeOK, ID: 8, Payload: []byte{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}})) // string longer than the payload
	f.Fuzz(func(t *testing.T, data []byte) {
		oneShot, errOne := ReadFrame(bufio.NewReaderSize(bytes.NewReader(data), 16), fuzzMaxBytes)
		chunked, errChunk := ReadFrame(bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), 16), fuzzMaxBytes)

		if (errOne == nil) != (errChunk == nil) {
			t.Fatalf("chunking changed the outcome: one-shot err %v, chunked err %v", errOne, errChunk)
		}
		if errOne != nil {
			// Same failure class regardless of delivery. io.ReadFull turns a
			// mid-read EOF into ErrUnexpectedEOF, and the truncated-body path
			// wraps it in ErrProtocol; which of the EOF flavors appears can
			// legitimately differ at the length-prefix boundary, so compare
			// at the class level.
			class := func(err error) string {
				switch {
				case errors.Is(err, ErrTooLarge):
					return "toolarge"
				case errors.Is(err, ErrProtocol):
					return "proto"
				case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
					return "eof"
				default:
					return "other"
				}
			}
			c1, c2 := class(errOne), class(errChunk)
			if c1 == "other" || c2 == "other" {
				t.Fatalf("unclassified decode error: one-shot %v, chunked %v", errOne, errChunk)
			}
			if c1 != c2 {
				t.Fatalf("chunking changed the error class: one-shot %v (%s), chunked %v (%s)", errOne, c1, errChunk, c2)
			}
			return
		}

		if oneShot.Type != chunked.Type || oneShot.Flags != chunked.Flags ||
			oneShot.ID != chunked.ID || oneShot.Stream != chunked.Stream ||
			!bytes.Equal(oneShot.Payload, chunked.Payload) {
			t.Fatalf("chunking changed the frame:\n one-shot %+v\n  chunked %+v", oneShot, chunked)
		}

		// A successfully decoded frame re-encodes to exactly the bytes
		// consumed: decode∘encode is the identity on valid frames.
		wire := AppendFrame(nil, oneShot)
		if !bytes.Equal(wire, data[:len(wire)]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", wire, data[:len(wire)])
		}

		p := oneShot.Payload
		// Any payload that opens with a valid string list gives it back
		// exactly.
		r := payloadReader{p: p}
		if ss := r.strings(); r.err == nil {
			if got, want := appendStrings(nil, ss), p[:len(p)-len(r.p)]; !bytes.Equal(got, want) {
				t.Fatalf("string list %q re-encodes to %x, read from %x", ss, got, want)
			}
		} else if !errors.Is(r.err, ErrProtocol) {
			t.Fatalf("string list error %v is not ErrProtocol", r.err)
		}
		var reencoded []byte
		var err error
		switch oneShot.Type {
		case TypeErr:
			var code, msg string
			var retry time.Duration
			if code, retry, msg, err = ParseErr(p); err == nil {
				reencoded = ErrPayload(code, retry, msg)
			}
		case TypeRepl, TypeAck, TypeHB, TypeRotate:
			var sp StreamPos
			if sp, err = ParseStreamPos(p); err == nil {
				reencoded = AppendStreamPos(nil, sp)
			}
		case TypeShip:
			var sp StreamPos
			var chunk []byte
			if sp, chunk, err = ParseShip(p); err == nil {
				reencoded = ShipPayload(sp, chunk)
			}
		case TypeSub:
			var c Change
			if c, err = ParseChange(p); err == nil {
				if reencoded, err = ChangePayload(c); err != nil {
					t.Fatalf("decoded change %+v does not re-encode: %v", c, err)
				}
			}
		case TypeExecShard:
			if len(p) < 4 {
				return // the EXEC payload framing is the server's to refuse
			}
			var op ShardOp
			if op, err = ParseShardOp(p[4:]); err == nil {
				reencoded = AppendShardOp(append([]byte(nil), p[:4]...), op)
			}
		case TypeOK:
			if li, err := ParseLag(string(p)); err == nil {
				if _, err := ParseLag(LagPayload(li)); err != nil {
					t.Fatalf("LAG payload %q re-encodes to an unparsable %q", p, LagPayload(li))
				}
			}
			if rep, err := ParseShardReply(p); err == nil {
				if got := ShardReplyPayload(rep); !bytes.Equal(got, p) {
					t.Fatalf("shard reply re-encodes differently:\n got %x\nwant %x", got, p)
				}
			} else if !errors.Is(err, ErrProtocol) {
				t.Fatalf("shard reply error %v is not ErrProtocol", err)
			}
			return
		default:
			return
		}
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("type 0x%02x payload error %v is not ErrProtocol", oneShot.Type, err)
			}
			return
		}
		if !bytes.Equal(reencoded, p) {
			t.Fatalf("type 0x%02x payload re-encodes differently:\n got %x\nwant %x", oneShot.Type, reencoded, p)
		}
	})
}
