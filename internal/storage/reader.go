package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"

	"hrdb/internal/catalog"
)

// Position is a WAL position: a checkpoint epoch and a byte offset within
// that epoch's log file. Checkpoint rotation retires an epoch at a recorded
// end offset and the stream continues at (epoch+1, 0). Positions are only
// ever exchanged at record boundaries outside a transaction bracket, so a
// stream resumed at one never starts mid-frame or mid-transaction.
type Position struct {
	Epoch  uint64
	Offset int64
}

// Before reports strict stream order.
func (p Position) Before(q Position) bool {
	return p.Epoch < q.Epoch || (p.Epoch == q.Epoch && p.Offset < q.Offset)
}

// Change is one committed change of the log: the unit recovery, replicas
// and views consume. A record logged outside a bracket is one op marked
// Bare; a committed bracket is its ops, unmarked, applying as the one
// transaction they were (a single op of it may be inconsistent on its own,
// §3.1's whole point); an aborted bracket, and the start of an epoch a
// reader rotates to, are a Change with no ops, so every boundary a consumer
// can reach is some change's Pos. A new_term record is
// fencing metadata, not catalog state: it arrives as a Change with no ops
// and the adopted Term.
type Change struct {
	Ops  []catalog.TxOp
	Term uint64
	// Pos is the resumable position just past the change.
	Pos Position
}

// Apply applies the change's ops through catalog.ApplyOps. An op the catalog
// calls malformed was not written by any writer: ErrCorrupt.
func (c Change) Apply(db *catalog.Database) error {
	err := db.ApplyOps(c.Ops)
	if errors.Is(err, catalog.ErrBadOp) {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return err
}

// maxStreamFrame bounds a frame's payload length. WAL records are small
// (one operation each); a length beyond this is certainly a desynced or
// corrupt stream, and rejecting it keeps a hostile length prefix from
// forcing a giant allocation. Log.Stage refuses to write a longer one.
const maxStreamFrame = 16 << 20

// errBadFrame marks the ErrCorrupt errors of the frame layer — length,
// CRC, payload — which at the end of a log file are a torn tail, where a
// bracket that does not nest is not.
var errBadFrame = fmt.Errorf("%w: bad frame", ErrCorrupt)

// Reader turns raw WAL bytes into committed changes: bytes in (Feed),
// changes out (Next). It is the one frame decoder and the one reading of
// bracket structure; crash recovery feeds it the log file, a replica the
// SHIP payloads, a Tailer the follower's chunks, and because the bytes may
// split anywhere it buffers a partial frame across Feed calls.
//
// A Reader is not safe for concurrent use.
type Reader struct {
	buf   []byte
	next  Position // of buf[0]: just past the last decoded frame
	clean Position // the last out-of-bracket boundary at or before next
	// records counts decoded frames, bracket markers included; cleanRecords
	// is its value at clean.
	records, cleanRecords uint64
	open                  []catalog.TxOp // ops of the open bracket
	inTx                  bool
	rotated               bool // the next change is the epoch's start
}

// NewReader creates a reader whose first fed byte is the one at from.
func NewReader(from Position) *Reader { return &Reader{next: from, clean: from} }

// Feed appends a chunk of raw log bytes. The reader copies the bytes, so
// the caller may reuse p.
func (r *Reader) Feed(p []byte) { r.buf = append(r.buf, p...) }

// Position returns the last out-of-bracket record boundary read: the
// position a consumer that applied every change so far may resume from.
func (r *Reader) Position() Position { return r.clean }

// Records returns the number of frames, bracket markers included, at or
// before Position.
func (r *Reader) Records() uint64 { return r.cleanRecords }

// Pending returns the number of ops buffered inside the open bracket —
// read but not yet yielded (they arrive at tx_commit or vanish at
// tx_abort).
func (r *Reader) Pending() int { return len(r.open) }

// Rotate moves the reader to the start of the given epoch, which Next
// yields as a change with no ops. A rotation is only legal at a clean point
// — no partial frame buffered, no bracket open: the writer never
// checkpoints inside a bracket.
func (r *Reader) Rotate(epoch uint64) error {
	if len(r.buf) != 0 || r.inTx {
		return fmt.Errorf("%w: epoch %d ends mid-record at offset %d", ErrCorrupt, r.next.Epoch, r.next.Offset)
	}
	r.next = Position{Epoch: epoch}
	r.clean = r.next
	r.rotated = true
	return nil
}

// frame decodes the next complete frame: length, CRC, gob payload. ok is
// false when the buffered bytes end mid-frame.
func (r *Reader) frame() (rec Record, ok bool, err error) {
	if len(r.buf) < 8 {
		return Record{}, false, nil
	}
	n := binary.LittleEndian.Uint32(r.buf[0:4])
	crc := binary.LittleEndian.Uint32(r.buf[4:8])
	if n > maxStreamFrame {
		return Record{}, false, fmt.Errorf("%w: length %d", errBadFrame, n)
	}
	if len(r.buf) < 8+int(n) {
		return Record{}, false, nil
	}
	payload := r.buf[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, false, fmt.Errorf("%w: CRC mismatch", errBadFrame)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return Record{}, false, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	r.buf = r.buf[8+n:]
	r.next.Offset += 8 + int64(n)
	r.records++
	return rec, true, nil
}

// Next returns the next committed change. ok is false when the fed bytes
// hold no further complete one (feed more and retry). An undecodable frame
// or a bracket marker that does not fit — a nested tx_begin, a tx_commit
// outside a bracket: no writer produces one — is an ErrCorrupt-wrapped
// error; the reader is then desynced and its consumer resynchronizes by
// position.
func (r *Reader) Next() (Change, bool, error) {
	if r.rotated {
		r.rotated = false
		return Change{Pos: r.clean}, true, nil
	}
	for {
		rec, ok, err := r.frame()
		if err != nil || !ok {
			return Change{}, false, err
		}
		var c Change
		fits := true
		switch rec.Op {
		case OpTxBegin:
			if fits = !r.inTx; fits {
				r.inTx = true
				continue
			}
		case OpTxCommit:
			fits, c.Ops = r.inTx, r.open
		case OpTxAbort:
			// No ops, but a boundary all the same: a consumer that has
			// applied everything reaches the log's end here.
		case OpNewTerm:
			if fits = !r.inTx && len(rec.Args) == 1; fits {
				c.Term, err = strconv.ParseUint(rec.Args[0], 10, 64)
				fits = err == nil
			}
		default:
			op := catalog.TxOp{Kind: string(rec.Op), Relation: rec.Target, Values: rec.Args, Bare: !r.inTx}
			if r.inTx {
				r.open = append(r.open, op)
				continue
			}
			c.Ops = []catalog.TxOp{op}
		}
		if !fits {
			return Change{}, false, fmt.Errorf("%w: misplaced or malformed %s ending at %d/%d", ErrCorrupt, rec.Op, r.next.Epoch, r.next.Offset)
		}
		r.inTx, r.open = false, nil
		r.clean, r.cleanRecords = r.next, r.records
		c.Pos = r.clean
		return c, true, nil
	}
}
