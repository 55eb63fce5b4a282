package repl

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hrdb/internal/storage"
)

// Wire framing of the replication stream. A follower opens an ordinary
// protocol connection and sends `REPL <epoch> <offset> [term]`; from then
// on the connection belongs to the stream:
//
//	primary → follower:
//	  SHIP <term> <epoch> <offset> <n>\n<n raw WAL bytes>\n   chunk at (epoch, offset)
//	  HB <term> <epoch> <offset>\n                            durable high-water heartbeat
//	  ROTATE <term> <epoch>\n                                 continue at (epoch, 0)
//	  ERR stale <retry_ms> <n>\n<msg>\n                       position unservable; SNAP again
//
//	follower → primary (same connection):
//	  ACK <term> <epoch> <offset>\n                           durable applied position
//
// Every frame leads with the sender's primary fencing term. A follower
// refuses frames carrying a term below the highest it has seen (a deposed
// primary cannot keep feeding it), and adopts higher terms as they appear.
// A primary contacted by a follower announcing a higher term (the REPL
// line's optional third field) knows it has been deposed and fences itself.
// Pre-term peers are interoperable: a REPL line without the term field and
// term-less frame parses are rejected only where stated.
//
// SHIP payloads are raw WAL frame bytes — a storage.Follower's chunks,
// verbatim — and split without regard for frame boundaries; the follower
// feeds them to a storage.Reader.
// Offsets in SHIP/HB/ACK are absolute byte offsets within the named
// epoch's WAL. ACK offsets only ever name record boundaries outside
// transaction brackets, which is what makes reconnect-with-resume
// duplicate-free: the primary restarts the stream exactly there.
//
// The bootstrap payload (the SNAP verb's OK frame) is a gob-encoded
// snapshot: the database spec plus the position replaying the stream from
// which reproduces the primary exactly, the primary's fencing term, and —
// when the primary was itself promoted from a replica — the takeover
// divergence point a deposed predecessor needs for rejoin.

// errStale is the follower-side sentinel for an ERR stale stream frame.
var errStale = errors.New("repl: position superseded by a checkpoint; snapshot re-bootstrap required")

// errProto reports a malformed stream or response frame.
var errProto = errors.New("repl: protocol error")

// maxShipChunk bounds one SHIP payload in both directions: the primary
// never ships more per frame, and the follower rejects announced lengths
// beyond it.
const maxShipChunk = 1 << 20

// maxSnapshotBytes bounds a SNAP bootstrap payload on the follower side.
const maxSnapshotBytes = 1 << 30

// bootstrap is the SNAP payload. Term and the takeover fields were added
// for failover; gob leaves them zero when decoding a pre-term payload.
type bootstrap struct {
	Spec   storage.DatabaseSpec
	Epoch  uint64
	Offset int64
	// Term is the primary's fencing term at snapshot time.
	Term uint64
	// TakeoverEpoch/TakeoverOffset name the divergence point if this
	// primary was promoted from a replica: the position (in the previous
	// primary's epoch numbering) up to which the promoting replica had
	// applied. Zero when the primary was never promoted.
	TakeoverEpoch  uint64
	TakeoverOffset int64
}

// encodeBootstrap gob-encodes a bootstrap payload.
func encodeBootstrap(b bootstrap) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeBootstrap decodes a SNAP payload.
func decodeBootstrap(p []byte) (bootstrap, error) {
	var b bootstrap
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&b); err != nil {
		return bootstrap{}, fmt.Errorf("%w: bad bootstrap payload: %v", errProto, err)
	}
	return b, nil
}

// writeShip emits one SHIP frame and flushes.
func writeShip(w *bufio.Writer, term uint64, pos storage.Position, chunk []byte) error {
	if _, err := fmt.Fprintf(w, "SHIP %d %d %d %d\n", term, pos.Epoch, pos.Offset, len(chunk)); err != nil {
		return err
	}
	if _, err := w.Write(chunk); err != nil {
		return err
	}
	if err := w.WriteByte('\n'); err != nil {
		return err
	}
	return w.Flush()
}

// writeHB emits one heartbeat frame and flushes.
func writeHB(w *bufio.Writer, term uint64, pos storage.Position) error {
	if _, err := fmt.Fprintf(w, "HB %d %d %d\n", term, pos.Epoch, pos.Offset); err != nil {
		return err
	}
	return w.Flush()
}

// writeRotate emits one ROTATE frame and flushes.
func writeRotate(w *bufio.Writer, term uint64, epoch uint64) error {
	if _, err := fmt.Fprintf(w, "ROTATE %d %d\n", term, epoch); err != nil {
		return err
	}
	return w.Flush()
}

// writeStale emits the stale error frame (the wire protocol's standard ERR
// framing with code "stale") and flushes.
func writeStale(w *bufio.Writer, msg string) error {
	if _, err := fmt.Fprintf(w, "ERR stale 0 %d\n%s\n", len(msg), msg); err != nil {
		return err
	}
	return w.Flush()
}

// writeAck emits one follower ACK line and flushes.
func writeAck(w *bufio.Writer, term uint64, pos storage.Position) error {
	if _, err := fmt.Fprintf(w, "ACK %d %d %d\n", term, pos.Epoch, pos.Offset); err != nil {
		return err
	}
	return w.Flush()
}

// readAck parses one follower ACK line.
func readAck(br *bufio.Reader) (uint64, storage.Position, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, storage.Position{}, err
	}
	fields := strings.Fields(strings.TrimRight(line, "\r\n"))
	if len(fields) != 4 || fields[0] != "ACK" {
		return 0, storage.Position{}, fmt.Errorf("%w: bad ack line %q", errProto, line)
	}
	term, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, storage.Position{}, fmt.Errorf("%w: bad ack term %q", errProto, fields[1])
	}
	epoch, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return 0, storage.Position{}, fmt.Errorf("%w: bad ack epoch %q", errProto, fields[2])
	}
	off, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil || off < 0 {
		return 0, storage.Position{}, fmt.Errorf("%w: bad ack offset %q", errProto, fields[3])
	}
	return term, storage.Position{Epoch: epoch, Offset: off}, nil
}

// streamFrame is one decoded primary→follower frame.
type streamFrame struct {
	kind    string // "SHIP" | "HB" | "ROTATE" | "ERR"
	term    uint64 // sender's fencing term (SHIP/HB/ROTATE)
	pos     storage.Position
	payload []byte // SHIP only
	code    string // ERR only
	msg     string // ERR only
}

// readStreamFrame decodes one stream frame (follower side).
func readStreamFrame(br *bufio.Reader) (streamFrame, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return streamFrame{}, err
	}
	fields := strings.Fields(strings.TrimRight(line, "\r\n"))
	if len(fields) == 0 {
		return streamFrame{}, fmt.Errorf("%w: empty stream line", errProto)
	}
	parseU64 := func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }
	parseI64 := func(s string) (int64, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil && v < 0 {
			err = fmt.Errorf("negative")
		}
		return v, err
	}
	switch fields[0] {
	case "SHIP":
		if len(fields) != 5 {
			return streamFrame{}, fmt.Errorf("%w: bad SHIP line %q", errProto, line)
		}
		term, err0 := parseU64(fields[1])
		epoch, err1 := parseU64(fields[2])
		off, err2 := parseI64(fields[3])
		n, err3 := parseI64(fields[4])
		if err0 != nil || err1 != nil || err2 != nil || err3 != nil || n > maxShipChunk {
			return streamFrame{}, fmt.Errorf("%w: bad SHIP header %q", errProto, line)
		}
		payload := make([]byte, n+1)
		if _, err := io.ReadFull(br, payload); err != nil {
			return streamFrame{}, err
		}
		if payload[n] != '\n' {
			return streamFrame{}, fmt.Errorf("%w: missing SHIP terminator", errProto)
		}
		return streamFrame{kind: "SHIP", term: term, pos: storage.Position{Epoch: epoch, Offset: off}, payload: payload[:n]}, nil
	case "HB":
		if len(fields) != 4 {
			return streamFrame{}, fmt.Errorf("%w: bad HB line %q", errProto, line)
		}
		term, err0 := parseU64(fields[1])
		epoch, err1 := parseU64(fields[2])
		off, err2 := parseI64(fields[3])
		if err0 != nil || err1 != nil || err2 != nil {
			return streamFrame{}, fmt.Errorf("%w: bad HB header %q", errProto, line)
		}
		return streamFrame{kind: "HB", term: term, pos: storage.Position{Epoch: epoch, Offset: off}}, nil
	case "ROTATE":
		if len(fields) != 3 {
			return streamFrame{}, fmt.Errorf("%w: bad ROTATE line %q", errProto, line)
		}
		term, err0 := parseU64(fields[1])
		epoch, err := parseU64(fields[2])
		if err0 != nil || err != nil {
			return streamFrame{}, fmt.Errorf("%w: bad ROTATE line %q", errProto, line)
		}
		return streamFrame{kind: "ROTATE", term: term, pos: storage.Position{Epoch: epoch}}, nil
	case "ERR":
		// Standard ERR framing: ERR <code> <retry_ms> <n>\n<msg>\n
		if len(fields) != 4 {
			return streamFrame{}, fmt.Errorf("%w: bad ERR line %q", errProto, line)
		}
		n, err := parseI64(fields[3])
		if err != nil || n > maxShipChunk {
			return streamFrame{}, fmt.Errorf("%w: bad ERR length %q", errProto, fields[3])
		}
		msg := make([]byte, n+1)
		if _, err := io.ReadFull(br, msg); err != nil {
			return streamFrame{}, err
		}
		return streamFrame{kind: "ERR", code: fields[1], msg: string(msg[:n])}, nil
	default:
		return streamFrame{}, fmt.Errorf("%w: unknown stream frame %q", errProto, fields[0])
	}
}

// readResponseFrame decodes one standard OK/ERR response frame (the
// follower's view of SNAP replies). It mirrors the server protocol's
// response framing without importing the server package: the replication
// layer deliberately speaks the wire contract, not the implementation.
func readResponseFrame(br *bufio.Reader, maxBytes int) (ok bool, code, payload string, err error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return false, "", "", err
	}
	fields := strings.Fields(strings.TrimRight(line, "\r\n"))
	read := func(lenField string) (string, error) {
		n, err := strconv.ParseInt(lenField, 10, 64)
		if err != nil || n < 0 || n > int64(maxBytes) {
			return "", fmt.Errorf("%w: bad response length %q", errProto, lenField)
		}
		p := make([]byte, n+1)
		if _, err := io.ReadFull(br, p); err != nil {
			return "", err
		}
		if p[n] != '\n' {
			return "", fmt.Errorf("%w: missing response terminator", errProto)
		}
		return string(p[:n]), nil
	}
	switch {
	case len(fields) == 2 && fields[0] == "OK":
		payload, err := read(fields[1])
		return true, "", payload, err
	case len(fields) == 4 && fields[0] == "ERR":
		payload, err := read(fields[3])
		return false, fields[1], payload, err
	default:
		return false, "", "", fmt.Errorf("%w: bad response line %q", errProto, line)
	}
}
