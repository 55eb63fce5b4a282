// Package wire is the framing every hrdb connection speaks: one opening
// text line, then length-prefixed binary frames in both directions. The
// server (internal/server), its clients, replication (internal/repl), change
// feeds (internal/view) and shards (internal/shard) all read and write
// through this package, so there is one decoder per frame, payload and
// reply.
//
// # Opening exchange
//
// A client opens every connection with the line `HELLO 2 [tenant]`. The
// server answers in text, `OK <n>\n<n bytes>\n` with payload
// `v2 tenant=<resolved>`, and from then on the connection carries frames
// only. A server that refuses the connection — unknown tenant, connection
// limit, draining, or an opening line that is not HELLO — answers
// `ERR <code> <retry_ms> <n>\n<n bytes>\n` instead and closes it.
//
// # Frames
//
//	u32 length | u8 type | u8 flags | u64 id | u32 stream | payload
//
// All integers big-endian. length counts everything after itself, so its
// minimum is HeaderSize. The id correlates every response with its
// request; the stream groups requests into logical sub-connections. The
// payload layout of each type is defined next to its encoder in
// payload.go. Conn is the client half: one connection per client, carrying
// its requests, change feeds and replication stream side by side.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Frame types. Requests travel client → server, responses server → client.
// SUBSCRIBE and REPL open a long-lived stream of frames on their request
// id beside the connection's other requests; ACK reports a follower's
// progress on its REPL id.
const (
	TypeExec      = byte(0x01) // u32 timeout_ms | HQL script → OK/ERR
	TypeCancel    = byte(0x02) // abort the request with this id; no reply of its own
	TypePing      = byte(0x03) // → OK "pong"
	TypeStats     = byte(0x04) // → OK <Prometheus text>
	TypeGoodbye   = byte(0x05) // orderly close; the server stops reading
	TypeEndStream = byte(0x06) // dispose the stream named in the header; no reply
	TypeLag       = byte(0x07) // → OK <lag payload>
	TypePromote   = byte(0x08) // → OK "promoted"
	TypeShardMap  = byte(0x09) // → OK "<shard_id> <shard_count>"
	TypeExecShard = byte(0x0A) // u32 timeout_ms | ShardOp → OK ShardReply/ERR
	TypeSubscribe = byte(0x0B) // u8 resume | u64 epoch | u64 offset | name → SUB frames
	TypeSnap      = byte(0x0C) // → OK <replication bootstrap>
	TypeRepl      = byte(0x0D) // stream position → SHIP/HB/ROTATE frames until either side closes
	TypeAck       = byte(0x0E) // stream position the follower has durably applied
	TypeOK        = byte(0x81) // success; payload = output
	TypeErr       = byte(0x82) // failure; payload = u8 codeLen | code | u32 retry_ms | message
	TypeSub       = byte(0x83) // one Change of the feed SUBSCRIBE opened under this id
	TypeShip      = byte(0x84) // stream position | raw WAL bytes starting there
	TypeHB        = byte(0x85) // stream position of the primary's durable end
	TypeRotate    = byte(0x86) // stream position (epoch, 0) the stream continues at
)

// FlagEndStream on an EXEC frame disposes the stream's session after the
// reply — the one-request-per-stream pattern Client.Exec uses, so
// throwaway streams leave no server state behind.
const FlagEndStream = byte(0x01)

// HeaderSize is the fixed part of a frame after the length prefix:
// type (1) + flags (1) + id (8) + stream (4).
const HeaderSize = 14

// ErrProtocol reports a malformed frame, payload or opening exchange.
var ErrProtocol = errors.New("server: protocol error")

// ErrTooLarge reports a frame whose announced length exceeds the reader's
// bound. It is detected before the body is allocated.
var ErrTooLarge = errors.New("server: statement too large")

// Frame is one decoded frame.
type Frame struct {
	Type    byte
	Flags   byte
	ID      uint64
	Stream  uint32
	Payload []byte
}

// AppendFrame encodes f onto dst.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(HeaderSize+len(f.Payload)))
	dst = append(dst, f.Type, f.Flags)
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = binary.BigEndian.AppendUint32(dst, f.Stream)
	return append(dst, f.Payload...)
}

// WriteFrame encodes and writes one frame as a single Write call, so
// concurrent senders sharing a locked writer interleave at frame
// granularity, never mid-frame.
func WriteFrame(w io.Writer, f Frame) error {
	_, err := w.Write(AppendFrame(make([]byte, 0, 4+HeaderSize+len(f.Payload)), f))
	return err
}

// ReadFrame decodes one frame. maxBytes bounds the payload: a longer
// announced length fails with ErrTooLarge before anything is allocated, a
// structurally bad or truncated frame with ErrProtocol, and a clean end of
// input before the first byte with io.EOF.
func ReadFrame(br *bufio.Reader, maxBytes int) (Frame, error) {
	return readFrame(br, maxBytes, nil)
}

// readFrame is ReadFrame whose bound, when set, tightens maxBytes for the
// request the frame's header names, before the payload is read.
func readFrame(br *bufio.Reader, maxBytes int, bound func(Frame) int) (Frame, error) {
	var hdr [4 + HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < HeaderSize {
		return Frame{}, fmt.Errorf("%w: frame length %d below header size", ErrProtocol, n)
	}
	if uint64(n) > uint64(maxBytes)+HeaderSize {
		return Frame{}, ErrTooLarge
	}
	if _, err := io.ReadFull(br, hdr[4:]); err != nil {
		return Frame{}, fmt.Errorf("%w: truncated frame: %v", ErrProtocol, err)
	}
	f := Frame{Type: hdr[4], Flags: hdr[5], ID: binary.BigEndian.Uint64(hdr[6:]), Stream: binary.BigEndian.Uint32(hdr[14:])}
	if bound != nil && uint64(n) > uint64(bound(f))+HeaderSize {
		return Frame{}, ErrTooLarge
	}
	f.Payload = make([]byte, n-HeaderSize)
	if _, err := io.ReadFull(br, f.Payload); err != nil {
		return Frame{}, fmt.Errorf("%w: truncated frame: %v", ErrProtocol, err)
	}
	return f, nil
}

// Error is the content of an ERR frame (or of the text ERR reply to HELLO):
// the code, the sender's backoff hint, and its message.
type Error struct {
	Code       string
	RetryAfter time.Duration
	Msg        string
}

func (e *Error) Error() string { return e.Code + ": " + e.Msg }

// Reply decodes a response frame: an OK frame yields its payload, an ERR
// frame its *Error, anything else ErrProtocol.
func Reply(f Frame) ([]byte, error) {
	switch f.Type {
	case TypeOK:
		return f.Payload, nil
	case TypeErr:
		code, retry, msg, err := ParseErr(f.Payload)
		if err != nil {
			return nil, err
		}
		return nil, &Error{Code: code, RetryAfter: retry, Msg: msg}
	default:
		return nil, fmt.Errorf("%w: unexpected response frame type 0x%02x", ErrProtocol, f.Type)
	}
}
