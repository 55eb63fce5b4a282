package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// The payloads shared between the server, its clients and replication: one
// encoder and one decoder per layout. Decoders reject anything their
// encoder cannot produce, so decode∘encode is the identity on every payload
// a decoder accepts (FuzzFrameDecode checks it). EXEC and SUBSCRIBE
// payloads only travel between the server and its own client, so
// internal/server keeps their codecs.

// ErrPayload encodes an ERR payload: u8 codeLen | code | u32 retry_ms |
// message. A code longer than the length field holds is truncated; the
// retry hint clamps to the field's range.
func ErrPayload(code string, retryAfter time.Duration, msg string) []byte {
	if len(code) > math.MaxUint8 {
		code = code[:math.MaxUint8]
	}
	ms := min(max(retryAfter.Milliseconds(), 0), math.MaxUint32)
	p := make([]byte, 0, 1+len(code)+4+len(msg))
	p = append(p, byte(len(code)))
	p = append(p, code...)
	p = binary.BigEndian.AppendUint32(p, uint32(ms))
	return append(p, msg...)
}

// ParseErr decodes an ERR payload.
func ParseErr(p []byte) (code string, retryAfter time.Duration, msg string, err error) {
	if len(p) < 1 {
		return "", 0, "", fmt.Errorf("%w: empty ERR payload", ErrProtocol)
	}
	cl := int(p[0])
	if len(p) < 1+cl+4 {
		return "", 0, "", fmt.Errorf("%w: ERR payload truncated", ErrProtocol)
	}
	ms := binary.BigEndian.Uint32(p[1+cl:])
	return string(p[1 : 1+cl]), time.Duration(ms) * time.Millisecond, string(p[1+cl+4:]), nil
}

// ErrFrame builds an ERR response frame.
func ErrFrame(id uint64, stream uint32, code string, retryAfter time.Duration, msg string) Frame {
	return Frame{Type: TypeErr, ID: id, Stream: stream, Payload: ErrPayload(code, retryAfter, msg)}
}

// StreamPos is a replication stream position stamped with a fencing term,
// encoded as u64 term | u64 epoch | u64 offset. It is the whole payload of
// REPL (where to start, and the follower's highest term), ACK (the
// follower's durably applied position), HB (the primary's durable end) and
// ROTATE (the epoch to continue at, offset 0), and the head of SHIP (where
// the raw WAL bytes after it start). Offsets are absolute byte offsets
// within the epoch's WAL.
type StreamPos struct {
	Term   uint64
	Epoch  uint64
	Offset int64
}

// streamPosSize is the encoded size of a StreamPos.
const streamPosSize = 24

// AppendStreamPos encodes p onto dst.
func AppendStreamPos(dst []byte, p StreamPos) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.Term)
	dst = binary.BigEndian.AppendUint64(dst, p.Epoch)
	return binary.BigEndian.AppendUint64(dst, uint64(p.Offset))
}

// ParseStreamPos decodes a REPL, ACK, HB or ROTATE payload.
func ParseStreamPos(p []byte) (StreamPos, error) {
	if len(p) != streamPosSize {
		return StreamPos{}, fmt.Errorf("%w: stream position %d bytes, want %d", ErrProtocol, len(p), streamPosSize)
	}
	pos, _, err := ParseShip(p)
	return pos, err
}

// ShipPayload encodes a SHIP payload: the position of chunk's first byte,
// then chunk.
func ShipPayload(pos StreamPos, chunk []byte) []byte {
	return append(AppendStreamPos(make([]byte, 0, streamPosSize+len(chunk)), pos), chunk...)
}

// ParseShip decodes a SHIP payload into its position and WAL bytes (which
// alias p).
func ParseShip(p []byte) (StreamPos, []byte, error) {
	if len(p) < streamPosSize {
		return StreamPos{}, nil, fmt.Errorf("%w: stream position %d bytes, want %d", ErrProtocol, len(p), streamPosSize)
	}
	pos := StreamPos{
		Term:   binary.BigEndian.Uint64(p),
		Epoch:  binary.BigEndian.Uint64(p[8:]),
		Offset: int64(binary.BigEndian.Uint64(p[16:])),
	}
	if pos.Offset < 0 {
		return StreamPos{}, nil, fmt.Errorf("%w: negative stream offset", ErrProtocol)
	}
	return pos, p[streamPosSize:], nil
}

// LagInfo is a node's replication state as the LAG frame reports it: what
// lag-bounded read routing and election campaigns decide on.
type LagInfo struct {
	// Staleness is the wall-clock age of the node's view: how long ago it
	// was last known to be caught up with the primary's durable position.
	// Negative means unknown (never caught up, or disconnected with no
	// bound) — routing must treat it as infinitely stale.
	Staleness time.Duration
	// Epoch and Offset are the node's applied replication position.
	Epoch  uint64
	Offset int64
	// State names the node's phase: "streaming", "catchup", "connecting",
	// "promoted", "stopped".
	State string
	// Term is the node's highest fencing term.
	Term uint64
	// ID is the node's election identity ("" when unset).
	ID string
	// Source is the address to stream from this node: its advertised
	// replication address once promoted, its upstream otherwise.
	Source string
}

// LagPayload renders li as the LAG reply's payload:
// `<staleness_ms> <epoch> <offset> <state> <term> <id> <source>`, with -1
// for unknown staleness and "-" for an empty state, id or source.
func LagPayload(li LagInfo) string {
	ms := int64(-1)
	if li.Staleness >= 0 {
		ms = li.Staleness.Milliseconds()
	}
	dash := func(s string) string {
		if s == "" {
			return "-"
		}
		return s
	}
	state := li.State
	if state == "" {
		state = "unknown"
	}
	return fmt.Sprintf("%d %d %d %s %d %s %s", ms, li.Epoch, li.Offset, state, li.Term, dash(li.ID), dash(li.Source))
}

// ParseLag decodes a LAG payload.
func ParseLag(payload string) (LagInfo, error) {
	f := strings.Fields(payload)
	if len(f) != 7 {
		return LagInfo{}, fmt.Errorf("%w: bad LAG payload %q", ErrProtocol, payload)
	}
	ms, err1 := strconv.ParseInt(f[0], 10, 64)
	epoch, err2 := strconv.ParseUint(f[1], 10, 64)
	offset, err3 := strconv.ParseInt(f[2], 10, 64)
	term, err4 := strconv.ParseUint(f[4], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return LagInfo{}, fmt.Errorf("%w: bad LAG payload %q", ErrProtocol, payload)
	}
	li := LagInfo{Staleness: -1, Epoch: epoch, Offset: offset, State: f[3], Term: term}
	if ms >= 0 {
		li.Staleness = time.Duration(ms) * time.Millisecond
	}
	if f[5] != "-" {
		li.ID = f[5]
	}
	if f[6] != "-" {
		li.Source = f[6]
	}
	return li, nil
}
