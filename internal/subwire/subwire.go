// Package subwire defines the wire encoding of SUBSCRIBE change feeds: the
// frames a server pushes to a subscribed client, carrying a view's initial
// snapshot and its subsequent deltas with resumable WAL positions.
//
// The encoding is line-oriented, so a feed is readable as text, and each
// frame rides unchanged as the payload of one SUB frame (internal/wire):
//
//	SNAP <epoch> <offset> <n>\n<payload>\n   full row set (payload = rows,
//	                                         one per line, n payload bytes)
//	DELTA <epoch> <offset> <n>\n<payload>\n  incremental change (payload
//	                                         lines are "+row" / "-row")
//	HB <epoch> <offset>\n                    heartbeat: caught up through
//	                                         this position, no changes
//	ERR <code> <n>\n<message>\n              feed terminated (stale resume
//	                                         position, dropped view, ...)
//
// Positions are storage WAL positions (checkpoint epoch, byte offset): a
// client that reconnects with the last position it applied receives exactly
// the committed deltas after it, gap- and duplicate-free, mirroring the
// REPL stream contract. Rows never contain newline bytes (the view layer
// renders tuples on one line), which the encoder enforces.
package subwire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Frame kinds.
const (
	KindSnap  = "SNAP"
	KindDelta = "DELTA"
	KindHB    = "HB"
	KindErr   = "ERR"
)

// Frame is one decoded feed frame.
type Frame struct {
	Kind string
	// Epoch and Offset are the resumable position after applying this
	// frame (SNAP, DELTA, HB).
	Epoch  uint64
	Offset int64
	// Rows is the full row set of a SNAP frame.
	Rows []string
	// Added and Removed are the row changes of a DELTA frame.
	Added, Removed []string
	// Code and Msg describe an ERR frame.
	Code, Msg string
}

// ErrBadFrame is wrapped by every decode failure: the input bytes do not
// form a valid feed frame. A stream that returns it is unrecoverable; the
// client must reconnect.
var ErrBadFrame = errors.New("subwire: malformed feed frame")

// Limits. A frame holds at most one view snapshot; maxPayload matches the
// storage stream's frame cap so a feed can carry anything the WAL can.
const (
	maxHeader  = 256
	maxPayload = 16 << 20
)

// AppendFrame appends f's encoding to dst. It rejects frames whose rows
// contain newline bytes or are empty (both unrepresentable on the wire).
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	switch f.Kind {
	case KindSnap, KindDelta:
		var payload []byte
		add := func(prefix string, rows []string) error {
			for _, r := range rows {
				if r == "" || strings.ContainsAny(r, "\n\r") {
					return fmt.Errorf("subwire: unencodable row %q", r)
				}
				if len(payload) > 0 {
					payload = append(payload, '\n')
				}
				payload = append(payload, prefix...)
				payload = append(payload, r...)
			}
			return nil
		}
		var err error
		if f.Kind == KindSnap {
			err = add("", f.Rows)
		} else if err = add("+", f.Added); err == nil {
			err = add("-", f.Removed)
		}
		if err != nil {
			return nil, err
		}
		if len(payload) > maxPayload {
			return nil, fmt.Errorf("subwire: frame payload %d bytes exceeds cap", len(payload))
		}
		dst = append(dst, f.Kind...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, f.Epoch, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, f.Offset, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(len(payload)), 10)
		dst = append(dst, '\n')
		dst = append(dst, payload...)
		dst = append(dst, '\n')
		return dst, nil
	case KindHB:
		dst = append(dst, KindHB...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, f.Epoch, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, f.Offset, 10)
		dst = append(dst, '\n')
		return dst, nil
	case KindErr:
		if f.Code == "" || strings.ContainsAny(f.Code, " \n\r") {
			return nil, fmt.Errorf("subwire: unencodable error code %q", f.Code)
		}
		if strings.ContainsAny(f.Msg, "\n\r") || len(f.Msg) > maxPayload {
			return nil, fmt.Errorf("subwire: unencodable error message")
		}
		dst = append(dst, KindErr...)
		dst = append(dst, ' ')
		dst = append(dst, f.Code...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(len(f.Msg)), 10)
		dst = append(dst, '\n')
		dst = append(dst, f.Msg...)
		dst = append(dst, '\n')
		return dst, nil
	default:
		return nil, fmt.Errorf("subwire: unknown frame kind %q", f.Kind)
	}
}

// Decoder incrementally reassembles frames from a byte stream. Feed bytes
// in any chunking; Next yields each complete frame exactly once. Decoding
// is deterministic over the concatenated input: feeding a stream one byte
// at a time yields the same frames and the same error (if any) as feeding
// it whole.
type Decoder struct {
	buf  []byte
	dead error
}

// Feed appends stream bytes. The decoder copies p.
func (d *Decoder) Feed(p []byte) { d.buf = append(d.buf, p...) }

// Buffered reports how many fed bytes are not yet consumed by Next.
func (d *Decoder) Buffered() int { return len(d.buf) }

// Next returns the next complete frame. ok is false when more bytes are
// needed. Errors wrap ErrBadFrame and are sticky: a corrupt stream stays
// corrupt.
func (d *Decoder) Next() (f Frame, ok bool, err error) {
	if d.dead != nil {
		return Frame{}, false, d.dead
	}
	f, n, err := decodeOne(d.buf)
	if err != nil {
		d.dead = err
		return Frame{}, false, err
	}
	if n == 0 {
		return Frame{}, false, nil
	}
	d.buf = d.buf[n:]
	return f, true, nil
}

// decodeOne parses one frame from the head of buf, returning the bytes it
// spans. n == 0 with a nil error means incomplete input.
func decodeOne(buf []byte) (f Frame, n int, err error) {
	nl := -1
	for i, b := range buf {
		if b == '\n' {
			nl = i
			break
		}
		if i >= maxHeader {
			return Frame{}, 0, fmt.Errorf("%w: header exceeds %d bytes", ErrBadFrame, maxHeader)
		}
	}
	if nl < 0 {
		if len(buf) > maxHeader {
			return Frame{}, 0, fmt.Errorf("%w: header exceeds %d bytes", ErrBadFrame, maxHeader)
		}
		return Frame{}, 0, nil
	}
	fields := strings.Split(string(buf[:nl]), " ")
	switch fields[0] {
	case KindSnap, KindDelta:
		if len(fields) != 4 {
			return Frame{}, 0, fmt.Errorf("%w: %s header wants 4 fields, got %d", ErrBadFrame, fields[0], len(fields))
		}
		epoch, offset, err := parsePos(fields[1], fields[2])
		if err != nil {
			return Frame{}, 0, err
		}
		size, err := parseSize(fields[3])
		if err != nil {
			return Frame{}, 0, err
		}
		total := nl + 1 + size + 1
		if len(buf) < total {
			return Frame{}, 0, nil
		}
		payload := buf[nl+1 : nl+1+size]
		if buf[total-1] != '\n' {
			return Frame{}, 0, fmt.Errorf("%w: payload not newline-terminated", ErrBadFrame)
		}
		f = Frame{Kind: fields[0], Epoch: epoch, Offset: offset}
		if size > 0 {
			for _, line := range strings.Split(string(payload), "\n") {
				switch {
				case line == "":
					return Frame{}, 0, fmt.Errorf("%w: empty row line", ErrBadFrame)
				case strings.ContainsRune(line, '\r'):
					return Frame{}, 0, fmt.Errorf("%w: carriage return in row", ErrBadFrame)
				case f.Kind == KindSnap:
					f.Rows = append(f.Rows, line)
				case line[0] == '+':
					f.Added = append(f.Added, line[1:])
				case line[0] == '-':
					f.Removed = append(f.Removed, line[1:])
				default:
					return Frame{}, 0, fmt.Errorf("%w: delta line without sign", ErrBadFrame)
				}
				if f.Kind == KindDelta && len(line) == 1 {
					return Frame{}, 0, fmt.Errorf("%w: empty row line", ErrBadFrame)
				}
			}
		}
		return f, total, nil
	case KindHB:
		if len(fields) != 3 {
			return Frame{}, 0, fmt.Errorf("%w: HB header wants 3 fields, got %d", ErrBadFrame, len(fields))
		}
		epoch, offset, err := parsePos(fields[1], fields[2])
		if err != nil {
			return Frame{}, 0, err
		}
		return Frame{Kind: KindHB, Epoch: epoch, Offset: offset}, nl + 1, nil
	case KindErr:
		if len(fields) != 3 {
			return Frame{}, 0, fmt.Errorf("%w: ERR header wants 3 fields, got %d", ErrBadFrame, len(fields))
		}
		if fields[1] == "" {
			return Frame{}, 0, fmt.Errorf("%w: empty error code", ErrBadFrame)
		}
		size, err := parseSize(fields[2])
		if err != nil {
			return Frame{}, 0, err
		}
		total := nl + 1 + size + 1
		if len(buf) < total {
			return Frame{}, 0, nil
		}
		if buf[total-1] != '\n' {
			return Frame{}, 0, fmt.Errorf("%w: payload not newline-terminated", ErrBadFrame)
		}
		msg := string(buf[nl+1 : nl+1+size])
		if strings.ContainsAny(msg, "\n\r") {
			return Frame{}, 0, fmt.Errorf("%w: newline in error message", ErrBadFrame)
		}
		return Frame{Kind: KindErr, Code: fields[1], Msg: msg}, total, nil
	default:
		return Frame{}, 0, fmt.Errorf("%w: unknown kind %q", ErrBadFrame, fields[0])
	}
}

func parsePos(e, o string) (uint64, int64, error) {
	epoch, err := strconv.ParseUint(e, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad epoch %q", ErrBadFrame, e)
	}
	offset, err := strconv.ParseInt(o, 10, 64)
	if err != nil || offset < 0 {
		return 0, 0, fmt.Errorf("%w: bad offset %q", ErrBadFrame, o)
	}
	return epoch, offset, nil
}

func parseSize(s string) (int, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 || n > maxPayload {
		return 0, fmt.Errorf("%w: bad payload size %q", ErrBadFrame, s)
	}
	return int(n), nil
}
