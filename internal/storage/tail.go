package storage

import (
	"context"
	"fmt"
)

// Tailer follows a Store's committed WAL stream and yields whole committed
// batches (see bracketFold): either a single out-of-bracket record or the
// records of one committed transaction bracket, empty brackets skipped. Each batch carries the resumable
// position just past it — always an out-of-bracket record boundary, so a
// new Tailer started there observes exactly the suffix.
//
// A Tailer is the in-process analogue of a replica's WAL subscription: it
// reads the same frames ReadWAL serves to replicas, but folds bracket
// structure so callers (the materialized-view maintainer) see exactly-once
// committed effects. It is not safe for concurrent use.
type Tailer struct {
	s     *Store
	epoch uint64 // epoch being read
	read  int64  // bytes of s's epoch WAL consumed into dec
	base  int64  // epoch offset corresponding to dec's first byte
	dec   *StreamDecoder
	fold  bracketFold
}

// NewTailer returns a Tailer positioned at the store's current durable
// position: only batches committed after this call are yielded.
func NewTailer(s *Store) *Tailer {
	epoch, off := s.Position()
	return TailFrom(s, epoch, off)
}

// TailFrom returns a Tailer positioned at (epoch, offset), which must be an
// out-of-bracket record boundary previously returned by NewTailer/Next (or
// Store.Position). If the epoch has been retired by a checkpoint, the first
// Next reports ErrWALUnavailable and the caller must restart from a fresh
// NewTailer plus a full recompute of its derived state.
func TailFrom(s *Store, epoch uint64, offset int64) *Tailer {
	return &Tailer{
		s:     s,
		epoch: epoch,
		read:  offset,
		base:  offset,
		dec:   NewStreamDecoder(),
	}
}

// Position returns the boundary the Tailer has consumed up to: the position
// returned alongside the last batch (or the starting position).
func (t *Tailer) Position() (epoch uint64, offset int64) {
	return t.epoch, t.base + t.dec.Consumed()
}

// readChunk caps how many WAL bytes one ReadWAL call pulls.
const readChunk = 1 << 20

// Next blocks until the next committed batch is durable and returns it with
// the resumable position just past it. It returns ctx.Err() on cancellation,
// ErrStoreClosed when the store shuts down, ErrWALUnavailable when the tail
// position was retired by a checkpoint (caller must resync), and ErrCorrupt
// if the WAL bytes fail to decode.
func (t *Tailer) Next(ctx context.Context) ([]Record, uint64, int64, error) {
	for {
		// Drain everything already buffered in the decoder.
		for {
			rec, ok, err := t.dec.Next()
			if err != nil {
				return nil, 0, 0, err
			}
			if !ok {
				break
			}
			batch, done, err := t.fold.push(rec)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%w at %d/%d", err, t.epoch, t.base+t.dec.Consumed())
			}
			if done && len(batch) > 0 {
				return batch, t.epoch, t.base + t.dec.Consumed(), nil
			}
		}

		// Decoder is dry: pull more bytes, rotating epochs as needed.
		buf, err := t.s.ReadWAL(t.epoch, t.read, readChunk)
		if err != nil {
			return nil, 0, 0, err
		}
		if len(buf) > 0 {
			t.dec.Feed(buf)
			t.read += int64(len(buf))
			continue
		}
		// Caught up within this epoch. If the store has rotated past it,
		// step to the next epoch; otherwise wait for new bytes.
		if t.s.LogEpoch() > t.epoch {
			end, known := t.s.EpochEnd(t.epoch)
			if !known {
				return nil, 0, 0, fmt.Errorf("%w: epoch %d end unknown", ErrWALUnavailable, t.epoch)
			}
			if t.read < end {
				continue // more bytes to read before the rotation point
			}
			if t.dec.Buffered() != 0 || t.fold.inTx {
				return nil, 0, 0, fmt.Errorf("%w: epoch %d ends mid-frame", ErrCorrupt, t.epoch)
			}
			t.epoch++
			t.read, t.base = 0, 0
			t.dec = NewStreamDecoder()
			continue
		}
		if err := t.s.WaitChange(ctx, t.epoch, t.read); err != nil {
			return nil, 0, 0, err
		}
	}
}
