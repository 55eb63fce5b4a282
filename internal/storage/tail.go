package storage

import (
	"context"
	"fmt"
)

// Follower walks a Store's durable WAL bytes from a position onward, across
// checkpoint epochs: the one loop over ReadWAL, EpochEnd and WaitChange.
// A Tailer decodes what it yields; a replication primary ships it verbatim.
// It is not safe for concurrent use.
type Follower struct {
	s     *Store
	pos   Position
	chunk int
	idle  bool // the caught-up step for pos has been reported
}

// Step is one step of a Follower. Chunk holds raw WAL bytes starting at At
// (they may begin or end mid-frame); Rotated reports that the epoch before
// At.Epoch is fully read and the stream continues at At, its first byte;
// neither means the follower is caught up at At with everything durable.
type Step struct {
	Chunk   []byte
	At      Position
	Rotated bool
}

// Follow returns a Follower positioned at from that yields at most chunk
// bytes per step. from need not be a record boundary: the bytes are raw.
func (s *Store) Follow(from Position, chunk int) *Follower {
	return &Follower{s: s, pos: from, chunk: chunk}
}

// Position returns the position of the next byte the follower will yield.
func (f *Follower) Position() Position { return f.pos }

// Next returns the next step. Arriving at the durable end is reported once,
// without blocking; the call after that blocks until the log grows or
// rotates, and returns ctx.Err() on cancellation or ErrStoreClosed when the
// store shuts down. A position this process cannot serve — a retired epoch
// whose file is gone or whose end is unknown, an offset or epoch from the
// future, another store's position — is ErrWALUnavailable, wrapping the
// reason.
func (f *Follower) Next(ctx context.Context) (Step, error) {
	for {
		buf, err := f.s.ReadWAL(f.pos.Epoch, f.pos.Offset, f.chunk)
		if err != nil {
			return Step{}, err
		}
		if len(buf) > 0 {
			at := f.pos
			f.pos.Offset += int64(len(buf))
			f.idle = false
			return Step{Chunk: buf, At: at}, nil
		}
		// Caught up within this epoch. If the store has rotated past it,
		// step to the next one: epochs advance by one per checkpoint, so
		// that is the current epoch or another retired one.
		if f.s.LogEpoch() > f.pos.Epoch {
			end, known := f.s.EpochEnd(f.pos.Epoch)
			if !known {
				return Step{}, fmt.Errorf("%w: epoch %d predates this process", ErrWALUnavailable, f.pos.Epoch)
			}
			if f.pos.Offset < end {
				continue // bytes landed before the rotation point
			}
			f.pos = Position{Epoch: f.pos.Epoch + 1}
			f.idle = false
			return Step{At: f.pos, Rotated: true}, nil
		}
		if !f.idle {
			f.idle = true
			return Step{At: f.pos}, nil
		}
		if err := f.s.WaitChange(ctx, f.pos.Epoch, f.pos.Offset); err != nil {
			return Step{}, err
		}
	}
}

// readChunk caps how many WAL bytes one read pulls, at open and on the tail.
const readChunk = 1 << 20

// Tailer follows a Store's committed changes: a Follower's bytes through a
// Reader. Each Change carries the resumable position just past it — always
// an out-of-bracket record boundary, so a new Tailer started there observes
// exactly the suffix. It is the in-process analogue of a replica's WAL
// subscription, and what the materialized-view maintainer consumes. It is
// not safe for concurrent use.
type Tailer struct {
	f  *Follower
	rd *Reader
}

// NewTailer returns a Tailer positioned at the store's current durable
// position: only changes committed after this call are yielded.
func NewTailer(s *Store) *Tailer {
	epoch, off := s.Position()
	return TailFrom(s, Position{Epoch: epoch, Offset: off})
}

// TailFrom returns a Tailer positioned at from, which must be an
// out-of-bracket record boundary previously returned by NewTailer/Next (or
// Store.Position). If the epoch has been retired by a checkpoint, the first
// Next reports ErrWALUnavailable and the caller must restart from a fresh
// NewTailer plus a full recompute of its derived state.
func TailFrom(s *Store, from Position) *Tailer {
	return &Tailer{f: s.Follow(from, readChunk), rd: NewReader(from)}
}

// Position returns the boundary the Tailer has consumed up to: the position
// of the last change (or the starting position).
func (t *Tailer) Position() Position { return t.rd.Position() }

// Next blocks until the next committed change is durable and returns it.
// It returns ctx.Err() on cancellation, ErrStoreClosed when the store shuts
// down, ErrWALUnavailable when the tail position was retired by a
// checkpoint (caller must resync), and ErrCorrupt if the WAL bytes fail to
// decode.
func (t *Tailer) Next(ctx context.Context) (Change, error) {
	for {
		if c, ok, err := t.rd.Next(); ok || err != nil {
			return c, err
		}
		step, err := t.f.Next(ctx)
		if err != nil {
			return Change{}, err
		}
		t.rd.Feed(step.Chunk)
		if step.Rotated {
			if err := t.rd.Rotate(step.At.Epoch); err != nil {
				return Change{}, err
			}
		}
	}
}
