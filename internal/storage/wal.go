package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Op names a logged record. A mutation is logged under its catalog.Kind*
// name (Record{Op: Op(o.Kind), Target: o.Relation, Args: o.Values} is the
// whole mapping); the four names below are the log's own.
type Op string

const (
	OpTxBegin  Op = "tx_begin"
	OpTxCommit Op = "tx_commit"
	OpTxAbort  Op = "tx_abort"
	// OpNewTerm records a primary fencing-term adoption (Args[0] = decimal
	// term). It carries no catalog state — a Reader reports it as a Change's
	// Term — and recovery folds it into Store.Term, so a term asserted after
	// the last checkpoint survives a restart.
	OpNewTerm Op = "new_term"
)

// Record is one WAL entry. The Args meaning depends on Op:
//
//	create_hierarchy: Target = domain
//	add_class/add_instance: Target = domain, Args = [name, parents…]
//	add_edge: Target = domain, Args = [parent, child]
//	prefer: Target = domain, Args = [stronger, weaker]
//	create_relation: Target = name, Args = [attr1, dom1, attr2, dom2, …]
//	drop_relation: Target = name
//	assert/deny/retract: Target = relation, Args = item values
//	consolidate: Target = relation
//	explicate: Target = relation, Args = attributes (empty = all)
//	tx_begin/tx_commit: bracket a committed transaction's records
//	tx_abort: closes a bracket whose transaction failed validation; the
//	bracketed records must be discarded on recovery
type Record struct {
	Op     Op
	Target string
	Args   []string
}

// WAL record framing:
//
//	length uint32 little-endian (payload bytes)
//	crc    uint32 of payload
//	payload gob(Record)
//
// Header and payload are assembled in one buffer and issued as one write,
// so a torn append can only produce a torn tail, never a gap between a
// valid header and its payload. A torn final record (crash mid-write) is
// detected and truncated at open; so is an unterminated tx_begin bracket,
// which guarantees later appends are never stranded inside a bracket an
// earlier crash left open.

// ErrLogFailed indicates a log that has been poisoned by a write or sync
// error: the durable tail is unknown, so every later Append or Commit
// refuses until the log is reopened (which rescans and truncates).
var ErrLogFailed = errors.New("storage: log failed (write or sync error); reopen to recover")

// errLogClosed poisons a cleanly closed log against accidental reuse.
var errLogClosed = errors.New("storage: log closed")

// Log is an append-only operation log with group commit: concurrent
// committers stage frames into a shared buffer and one leader writes and
// fsyncs the whole batch, so N concurrent commits cost ~1 fsync instead
// of N.
type Log struct {
	fs   FS
	f    File
	path string

	mu      sync.Mutex
	cond    *sync.Cond
	pending []byte // staged frames not yet written
	staged  int64  // bytes staged since open (includes pending)
	durable int64  // bytes written and fsynced since open
	writing bool   // a leader is flushing outside the lock
	base    int64  // valid bytes found at open; appends start here
	err     error  // poison: set permanently by a write/sync error
	syncs   uint64 // fsyncs issued (group commit makes this < records)
	records uint64 // records staged

	// pendingRecs counts the records in pending, so the flushing leader can
	// report how many records its one fsync covered (the group-commit
	// batch-size histogram).
	pendingRecs uint64
}

// OpenLog opens (or creates) the log at path on the real file system,
// discarding the changes it reads.
func OpenLog(path string) (*Log, error) {
	return OpenLogFS(OsFS{}, path, NewReader(Position{}), func(Change) error { return nil })
}

// OpenLogFS opens (or creates) the log at path on fs and reads it, once,
// through rd, handing fn each committed change. What follows rd's last clean
// position is then truncated: a torn or corrupt tail, and an unterminated
// transaction bracket even when its records are well-formed — it never
// committed, and leaving it would strand later appends inside it. Any other
// corruption, or an error from fn, fails the open with the file untouched.
func OpenLogFS(fs FS, path string, rd *Reader, fn func(Change) error) (*Log, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fs, f: f, path: path}
	l.cond = sync.NewCond(&l.mu)
	if err = scan(f, rd, fn); err == nil {
		l.base = rd.Position().Offset
		if err = f.Truncate(l.base); err == nil {
			_, err = f.Seek(l.base, io.SeekStart)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// scan feeds f to rd chunk by chunk until the file or its decodable prefix
// ends, handing fn each change.
func scan(f File, rd *Reader, fn func(Change) error) error {
	buf := make([]byte, readChunk)
	for {
		n, rerr := f.Read(buf)
		rd.Feed(buf[:n])
		for {
			c, ok, err := rd.Next()
			if errors.Is(err, errBadFrame) {
				return nil
			}
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := fn(c); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// createLog creates (or truncates) an empty log at path, fsyncing the file
// and its directory so the creation survives a crash. Used by checkpoint
// rotation.
func createLog(fs FS, dir, path string) (*Log, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{fs: fs, f: f, path: path}
	l.cond = sync.NewCond(&l.mu)
	return l, nil
}

// encodeFrame appends rec's frame (header + payload, one contiguous buffer)
// to dst and returns the extended slice. It refuses a payload no Reader
// would accept.
func encodeFrame(dst []byte, rec Record) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		return nil, err
	}
	if payload.Len() > maxStreamFrame {
		return nil, fmt.Errorf("storage: %s record of %d bytes exceeds the %d-byte frame limit", rec.Op, payload.Len(), maxStreamFrame)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload.Bytes()...)
	return dst, nil
}

// Stage encodes the records and appends their frames to the in-process
// commit buffer, returning a durability mark. The frames reach disk when a
// group-commit flush covers the mark: call Sync(mark) to wait for that.
// Staged frames are written in staging order, so callers that need log
// order to match another order (the store's apply order) serialize their
// Stage calls.
func (l *Log) Stage(recs ...Record) (int64, error) {
	var buf []byte
	var err error
	for _, rec := range recs {
		if buf, err = encodeFrame(buf, rec); err != nil {
			return 0, err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	l.pending = append(l.pending, buf...)
	l.staged += int64(len(buf))
	l.records += uint64(len(recs))
	l.pendingRecs += uint64(len(recs))
	metricWALRecords.Add(uint64(len(recs)))
	return l.staged, nil
}

// Sync blocks until every byte staged at or before mark is written and
// fsynced, or the log is poisoned. Concurrent Sync callers coalesce: one
// becomes the leader, writes the whole pending buffer in one write, issues
// one fsync, and wakes the rest (group commit).
func (l *Log) Sync(mark int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < mark && l.err == nil {
		if l.writing {
			l.cond.Wait()
			continue
		}
		// Become the leader for everything staged so far.
		buf := l.pending
		end := l.staged
		recs := l.pendingRecs
		l.pending = nil
		l.pendingRecs = 0
		l.writing = true
		l.mu.Unlock()

		var werr error
		if len(buf) > 0 {
			if _, werr = l.f.Write(buf); werr == nil {
				werr = l.f.Sync()
			}
			if werr == nil {
				observeFlush(len(buf), recs)
			}
		}

		l.mu.Lock()
		l.writing = false
		l.syncs++
		if werr != nil {
			// Poison: the durable tail is unknown (the write or sync may
			// have partially landed). Every waiter and every later call
			// sees the error; reopening rescans and truncates.
			l.err = fmt.Errorf("%w: %v", ErrLogFailed, werr)
		} else {
			l.durable = end
		}
		l.cond.Broadcast()
	}
	if l.durable >= mark {
		return nil
	}
	return l.err
}

// Append stages one record and waits for it to be durable. Concurrent
// Append calls still coalesce into shared fsyncs.
func (l *Log) Append(rec Record) error {
	mark, err := l.Stage(rec)
	if err != nil {
		return err
	}
	return l.Sync(mark)
}

// Commit stages the records as one contiguous run of frames and waits for
// all of them to be durable.
func (l *Log) Commit(recs []Record) error {
	mark, err := l.Stage(recs...)
	if err != nil {
		return err
	}
	return l.Sync(mark)
}

// Size returns the durable log size in bytes: the valid prefix found at
// open plus every byte flushed since. Torn bytes beyond it (after a poison)
// are not counted.
func (l *Log) Size() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + l.durable, nil
}

// StagedMark returns the current staging high-water twice: as a durability
// mark suitable for Sync (relative to open, excludes the base prefix) and
// as the absolute log size in bytes once everything staged is flushed.
// Replication uses the pair to capture a consistent position under the
// store's apply lock and make it durable after releasing it.
func (l *Log) StagedMark() (mark, abs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.staged, l.base + l.staged
}

// observeFlush records the metrics of one successful write+fsync covering
// n bytes and recs records.
func observeFlush(n int, recs uint64) {
	metricWALBytes.Add(uint64(n))
	metricWALFsyncs.Inc()
	metricGroupRecords.Observe(int64(recs))
	metricGroupBytes.Observe(int64(n))
}

// Stats returns the number of records staged and fsyncs issued since open.
// Group commit shows up as syncs < records under concurrent commits.
func (l *Log) Stats() (records, syncs uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records, l.syncs
}

// Close flushes any staged frames and closes the underlying file. A
// poisoned log skips the flush (the durable tail is already unknown).
func (l *Log) Close() error {
	l.mu.Lock()
	for l.writing {
		l.cond.Wait()
	}
	var werr error
	if l.err == nil && l.durable < l.staged {
		if _, werr = l.f.Write(l.pending); werr == nil {
			werr = l.f.Sync()
		}
		if werr == nil {
			observeFlush(len(l.pending), l.pendingRecs)
			l.durable = l.staged
			l.pending = nil
			l.pendingRecs = 0
		}
	}
	if l.err == nil {
		l.err = errLogClosed
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	cerr := l.f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
