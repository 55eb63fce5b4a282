package storage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the storage half of the replication subsystem
// (internal/repl): a global replication position and the primitives a
// primary needs to serve it — read raw WAL bytes by position, wait for the
// position to advance, and cut a snapshot consistent with a position.
//
// A replication position is a Position (reader.go); Follower (tail.go) is
// the one loop over these primitives.

// ErrWALUnavailable reports a replication read whose WAL segment this
// process cannot serve: the epoch was retired (and its file removed) before
// the requested offset could be read, the epoch predates this process, or
// the position lies in this log's future. The follower's recourse is a
// fresh snapshot bootstrap.
var ErrWALUnavailable = errors.New("storage: wal segment unavailable (superseded by a checkpoint)")

// Position returns the durable replication position: the current checkpoint
// epoch and the number of durable bytes in its WAL. Every acknowledged
// mutation is at or before this position.
func (s *Store) Position() (epoch uint64, offset int64) {
	s.applyMu.Lock()
	epoch, log := s.epoch, s.log
	s.applyMu.Unlock()
	offset, _ = log.Size()
	return epoch, offset
}

// LogEpoch returns the current checkpoint epoch.
func (s *Store) LogEpoch() uint64 {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	return s.epoch
}

// EpochEnd returns the final byte size of a WAL epoch this process rotated
// away from, and whether it is known. The current epoch has no end yet;
// epochs retired by earlier processes are unknown.
func (s *Store) EpochEnd(epoch uint64) (int64, bool) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	end, ok := s.epochEnds[epoch]
	return end, ok
}

// ReadWAL returns up to max raw WAL bytes of the given epoch starting at
// byte offset from, bounded by the epoch's durable size. An empty slice
// means the reader is caught up (from == the bound). The bytes are raw
// frame data: they may begin or end mid-frame if from or max does, so
// stream consumers reassemble frames across reads.
//
// Reading a retired epoch usually fails with ErrWALUnavailable — checkpoint
// removes the superseded file — and the caller falls back to a snapshot
// bootstrap.
func (s *Store) ReadWAL(epoch uint64, from int64, max int) ([]byte, error) {
	if from < 0 || max <= 0 {
		return nil, fmt.Errorf("storage: ReadWAL: bad range (from=%d, max=%d)", from, max)
	}
	s.applyMu.Lock()
	cur, log := s.epoch, s.log
	end, retired := s.epochEnds[epoch]
	s.applyMu.Unlock()

	var limit int64
	switch {
	case epoch == cur:
		limit, _ = log.Size()
	case retired:
		limit = end
	default:
		return nil, fmt.Errorf("%w: epoch %d not served by this process", ErrWALUnavailable, epoch)
	}
	if from > limit {
		// A position from this epoch's future: the reader followed a different
		// store, or the directory was restored from an older backup.
		return nil, fmt.Errorf("%w: offset %d beyond end %d of epoch %d", ErrWALUnavailable, from, limit, epoch)
	}
	if from == limit {
		return nil, nil
	}

	f, err := s.fs.OpenFile(filepath.Join(s.dir, walName(epoch)), os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWALUnavailable, err)
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return nil, err
	}
	n := limit - from
	if int64(max) < n {
		n = int64(max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("storage: ReadWAL: short read at %d/%d of epoch %d: %v", from, limit, epoch, err)
	}
	return buf, nil
}

// WaitChange blocks until the durable replication position advances beyond
// (epoch, offset), the context is done (returning ctx.Err()), or the store
// is closed (returning ErrStoreClosed). It returns immediately when the
// current position is already past the given one.
func (s *Store) WaitChange(ctx context.Context, epoch uint64, offset int64) error {
	for {
		// Subscribe before sampling the position so an advance between the
		// sample and the wait still wakes us.
		s.watchMu.Lock()
		ch := s.watch
		s.watchMu.Unlock()
		if s.closed.Load() {
			return ErrStoreClosed
		}
		curEpoch, curOff := s.Position()
		if curEpoch > epoch || (curEpoch == epoch && curOff > offset) {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ReplicationSnapshot captures the database state and the replication
// position it corresponds to, for bootstrapping a follower: replaying the
// WAL stream from the returned (epoch, offset) onto the returned spec
// yields exactly the primary's state. The staged log equals the in-memory
// state under the apply lock, so the spec is cut there; the position is
// made durable (one group-commit flush) before returning, ensuring the
// follower never sees state the primary could lose.
func (s *Store) ReplicationSnapshot() (DatabaseSpec, uint64, int64, error) {
	if err := s.usable(); err != nil {
		return DatabaseSpec{}, 0, 0, err
	}
	s.applyMu.Lock()
	if err := s.usable(); err != nil {
		s.applyMu.Unlock()
		return DatabaseSpec{}, 0, 0, err
	}
	spec := SnapshotDatabase(s.db)
	epoch, log := s.epoch, s.log
	term := s.term
	takeoverEpoch, takeoverOffset := s.takeoverEpoch, s.takeoverOffset
	mark, abs := log.StagedMark()
	s.applyMu.Unlock()
	if err := log.Sync(mark); err != nil {
		return DatabaseSpec{}, 0, 0, fmt.Errorf("%w: %v", ErrStoreFailed, err)
	}
	// The sync may have made an aborted bracket durable: the durable end
	// moved, so followers parked there must look.
	s.notify()
	spec.LogEpoch = epoch
	// The bootstrap spec carries the fencing lineage so a follower adopting
	// it also adopts the primary's term (and, transitively, the takeover
	// divergence point if this primary was itself promoted from a replica).
	spec.PrimaryTerm = term
	spec.TakeoverEpoch, spec.TakeoverOffset = takeoverEpoch, takeoverOffset
	return spec, epoch, abs, nil
}

// QuarantineSuffix preserves the committed-but-unreplicated WAL suffix of a
// deposed primary before its store files are removed for rejoin. Everything
// from (fromEpoch, fromOffset) — the new primary's takeover divergence
// point — through the end of the current epoch is copied, as raw WAL frame
// bytes, into a sidecar file named quarantine-<term>-<epoch>-<offset>.wal
// in the store directory, where <term> is the deposing term (falling back
// to the store's own term if it was never fenced). The sidecar is fsynced
// before the call returns.
//
// An empty suffix (the divergence point is the end of the log: nothing was
// lost) writes no file and returns an empty path. Epochs superseded by a
// checkpoint before the divergence point can no longer be read as raw
// records and are skipped, as is an epoch that ends before the divergence
// point (it holds nothing past it); the returned byte count covers what was
// actually preserved.
//
// The store may be fenced — quarantine is exactly the post-deposition flow —
// but must not be closed yet.
func (s *Store) QuarantineSuffix(fromEpoch uint64, fromOffset int64) (path string, n int64, err error) {
	s.applyMu.Lock()
	cur := s.epoch
	term := s.fenced.Load()
	if term == 0 {
		term = s.term
	}
	s.applyMu.Unlock()
	if fromEpoch > cur {
		return "", 0, fmt.Errorf("storage: quarantine from epoch %d beyond current epoch %d", fromEpoch, cur)
	}
	path = filepath.Join(s.dir, fmt.Sprintf("quarantine-%d-%06d-%d.wal", term, fromEpoch, fromOffset))
	var out File
	defer func() {
		if out != nil && err != nil {
			out.Close()
			_ = s.fs.Remove(path)
		}
	}()
	for e := fromEpoch; e <= cur; e++ {
		off := int64(0)
		if e == fromEpoch {
			off = fromOffset
		}
		for {
			buf, rerr := s.ReadWAL(e, off, 1<<20)
			if rerr != nil {
				if errors.Is(rerr, ErrWALUnavailable) {
					// Epoch retired and reclaimed: its records were folded
					// into a checkpoint and cannot be re-read raw.
					break
				}
				return "", 0, rerr
			}
			if len(buf) == 0 {
				break
			}
			if out == nil {
				out, err = s.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
				if err != nil {
					return "", 0, err
				}
			}
			if _, err = out.Write(buf); err != nil {
				return "", 0, err
			}
			off += int64(len(buf))
			n += int64(len(buf))
		}
	}
	if out == nil {
		return "", 0, nil
	}
	if err = out.Sync(); err != nil {
		return "", 0, err
	}
	if err = out.Close(); err != nil {
		out = nil
		_ = s.fs.Remove(path)
		return "", 0, err
	}
	out = nil
	if err = s.fs.SyncDir(s.dir); err != nil {
		return "", 0, err
	}
	return path, n, nil
}
