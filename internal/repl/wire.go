package repl

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// Replication rides the server's frame protocol (internal/wire). A
// follower dials a peer like any client (a wire.Conn), fetches a bootstrap
// with SNAP, and sends REPL with a stream position whose term is the
// highest fencing term it has seen; the server serves the stream from
// Primary.ServeStream as one more request on that connection:
//
//	primary → follower (each frame carries the REPL request's id):
//	  SHIP    term | epoch | offset | raw WAL bytes   chunk at (epoch, offset)
//	  HB      term | epoch | offset                  durable high-water heartbeat
//	  ROTATE  term | epoch | 0                       continue at (epoch, 0)
//	  ERR     stale                                  position unservable; SNAP again
//
//	follower → primary (same id; the server hands it to Primary.Ack):
//	  ACK     term | epoch | offset                  durable applied position
//
// A REPL the follower sends again on the same connection after its queue
// overflowed (wire.ErrOverflow) resumes at the next byte the follower
// expects instead — mid-record, or inside a bracket — so what it already
// received and buffered counts, and catch-up progresses however large a
// transaction is.
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

// Payload bounds of what a follower reads: one frame of the REPL stream, a
// SNAP bootstrap, a LAG reply.
const (
	maxStreamFrame   = 64 + maxShipChunk
	maxSnapshotBytes = 1 << 30
	maxLagBytes      = 4096
)

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

// dial opens a frame connection to addr — the one way this package
// reaches a server: the replica's stream, election probes, fencing a
// deposed primary, and fetching a rejoin bootstrap. maxFrame bounds every
// frame it reads, and the REPL stream's frames are held to maxStreamFrame
// below that. timeout bounds the TCP dial and the HELLO exchange; ctx
// aborts them.
func dial(ctx context.Context, addr string, timeout time.Duration, maxFrame int) (*wire.Conn, error) {
	cc, _, err := wire.DialConn(ctx, addr, timeout, "", maxFrame)
	return cc, err
}

// within bounds a one-shot exchange by timeout (unbounded when it is not
// positive).
func within(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), timeout)
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
