package repl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// Replication rides the server's frame protocol (internal/wire). A
// follower dials a peer like any client (dialPeer), fetches a bootstrap
// with SNAP, and sends REPL with a stream position whose term is the
// highest fencing term it has seen; the server then hands the connection
// to Primary.ServeStream:
//
//	primary → follower (each frame carries the REPL request's id):
//	  SHIP    term | epoch | offset | raw WAL bytes   chunk at (epoch, offset)
//	  HB      term | epoch | offset                  durable high-water heartbeat
//	  ROTATE  term | epoch | 0                       continue at (epoch, 0)
//	  ERR     stale                                  position unservable; SNAP again
//
//	follower → primary (same connection):
//	  ACK     term | epoch | offset                  durable applied position
//
// Every frame leads with the sender's fencing term. A follower refuses
// frames carrying a term below the highest it has seen (a deposed primary
// cannot keep feeding it), and adopts higher terms as they appear. A
// primary contacted by a follower announcing a higher term knows it has
// been deposed and fences itself.
//
// SHIP payloads are raw WAL frame bytes — a storage.Follower's chunks,
// verbatim — and split without regard for frame boundaries; the follower
// feeds them to a storage.Reader. Offsets in SHIP/HB/ACK are absolute byte
// offsets within the named epoch's WAL. ACK offsets only ever name record
// boundaries outside transaction brackets, which is what makes
// reconnect-with-resume duplicate-free: the primary restarts the stream
// exactly there.
//
// The bootstrap payload (the OK answering SNAP) is a gob-encoded snapshot:
// the database spec plus the position replaying the stream from which
// reproduces the primary exactly, the primary's fencing term, and — when
// the primary was itself promoted from a replica — the takeover divergence
// point a deposed predecessor needs for rejoin.

// errStale is the follower-side sentinel for an ERR stale stream frame.
var errStale = errors.New("repl: position superseded by a checkpoint; snapshot re-bootstrap required")

// maxShipChunk bounds one SHIP payload's WAL bytes in both directions: the
// primary never ships more per frame, and the follower rejects frames
// announcing more.
const maxShipChunk = 1 << 20

// maxStreamFrame bounds one primary → follower frame's payload.
const maxStreamFrame = 64 + maxShipChunk

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
		return bootstrap{}, fmt.Errorf("%w: bad bootstrap payload: %v", wire.ErrProtocol, err)
	}
	return b, nil
}

// peer is a frame connection to another node, opened by dialPeer — the one
// way this package reaches a server: the replica's stream, election probes,
// fencing a deposed primary, and fetching a rejoin bootstrap.
type peer struct {
	net.Conn
	br   *bufio.Reader
	last uint64 // last request id sent
}

// dialPeer opens a frame connection to addr: the TCP dial and the HELLO
// exchange, bounded by timeout. The connection keeps a deadline timeout
// from now, so a one-request probe is bounded end to end; a stream clears
// it.
func dialPeer(addr string, timeout time.Duration) (*peer, error) {
	conn, br, _, err := wire.Dial(context.Background(), addr, timeout, "")
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	return &peer{Conn: conn, br: br}, nil
}

// send writes one request frame under the next request id.
func (p *peer) send(typ byte, payload []byte) error {
	p.last++
	return wire.WriteFrame(p, wire.Frame{Type: typ, ID: p.last, Payload: payload})
}

// call sends one payload-less request (SNAP, LAG) and returns the payload
// of the OK answering it; a refusal comes back as *wire.Error.
func (p *peer) call(typ byte, maxBytes int) ([]byte, error) {
	if err := p.send(typ, nil); err != nil {
		return nil, err
	}
	f, err := wire.ReadFrame(p.br, maxBytes)
	if err != nil {
		return nil, err
	}
	if f.ID != p.last {
		return nil, fmt.Errorf("%w: answer for request %d, want %d", wire.ErrProtocol, f.ID, p.last)
	}
	return wire.Reply(f)
}

// streamFrame is one decoded primary → follower frame.
type streamFrame struct {
	typ   byte // wire.TypeShip | wire.TypeHB | wire.TypeRotate
	at    wire.StreamPos
	chunk []byte // SHIP only
}

// decodeStreamFrame decodes one frame of the stream a REPL request opened.
// An ERR frame comes back as its *wire.Error.
func decodeStreamFrame(f wire.Frame) (streamFrame, error) {
	sf := streamFrame{typ: f.Type}
	var err error
	switch f.Type {
	case wire.TypeShip:
		sf.at, sf.chunk, err = wire.ParseShip(f.Payload)
		if err == nil && len(sf.chunk) > maxShipChunk {
			err = fmt.Errorf("%w: SHIP of %d bytes", wire.ErrProtocol, len(sf.chunk))
		}
	case wire.TypeHB, wire.TypeRotate:
		sf.at, err = wire.ParseStreamPos(f.Payload)
	case wire.TypeErr:
		_, err = wire.Reply(f)
	default:
		err = fmt.Errorf("%w: unexpected stream frame type 0x%02x", wire.ErrProtocol, f.Type)
	}
	return sf, err
}

// streamPos stamps a storage position with a fencing term.
func streamPos(term uint64, pos storage.Position) wire.StreamPos {
	return wire.StreamPos{Term: term, Epoch: pos.Epoch, Offset: pos.Offset}
}

// writeAck reports the follower's applied position (and its term) on the
// stream with request id.
func writeAck(w io.Writer, id uint64, term uint64, pos storage.Position) error {
	return wire.WriteFrame(w, wire.Frame{Type: wire.TypeAck, ID: id, Payload: wire.AppendStreamPos(nil, streamPos(term, pos))})
}

// nextAck reads one ACK frame off a follower's connection.
func nextAck(br *bufio.Reader) (wire.StreamPos, error) {
	f, err := wire.ReadFrame(br, 64)
	if err != nil {
		return wire.StreamPos{}, err
	}
	if f.Type != wire.TypeAck {
		return wire.StreamPos{}, fmt.Errorf("%w: unexpected frame type 0x%02x from a follower", wire.ErrProtocol, f.Type)
	}
	return wire.ParseStreamPos(f.Payload)
}

// writeStale refuses or ends the stream with request id: the follower must
// re-bootstrap via SNAP.
func writeStale(w io.Writer, id uint64, msg string) error {
	return wire.WriteFrame(w, wire.ErrFrame(id, 0, "stale", 0, msg))
}
