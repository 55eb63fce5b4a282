package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

// Store is a durable hierarchical relational database: an in-memory catalog
// plus a snapshot file and a write-ahead log.
//
// Durability contract:
//
//   - Every mutation is an Apply of catalog.TxOps; the typed methods
//     (Assert, AddClass, …) only spell a bare batch of one.
//   - A transaction (assert/deny/retract ops not marked Bare) is
//     write-ahead: the operation records are staged to the WAL inside a
//     tx_begin bracket before the in-memory apply, and the call acknowledges
//     only after the closing tx_commit record is fsynced. A transaction
//     whose in-memory apply is rejected closes its bracket with a tx_abort
//     record; recovery discards it.
//   - Any other single op validates by applying in memory, then appends one
//     bare record and acknowledges only after it is fsynced. Either way
//     nothing is acknowledged before it is durable, and recovery restores
//     exactly the acknowledged prefix.
//   - Concurrent committers coalesce into shared fsyncs (group commit);
//     a store-level mutex keeps WAL order identical to apply order.
//   - A WAL write or sync error poisons the store: memory may be ahead of
//     disk, so every later mutation returns ErrStoreFailed until the store
//     is reopened (recovering the durable prefix).
//
// Open recovers by loading the snapshot and replaying the log named by the
// snapshot's log epoch; checkpointing rotates to a fresh log atomically
// (temp snapshot → fsync → rename → dir fsync → new log → dir fsync).
type Store struct {
	db    *catalog.Database
	log   *Log
	dir   string
	fs    FS
	epoch uint64
	// applyMu serializes WAL staging with the in-memory apply so that log
	// order equals apply order, and keeps transaction brackets contiguous
	// in the log. Fsync waits happen outside it, so concurrent committers
	// still share flushes.
	applyMu sync.Mutex
	// failed is set when memory and disk may have diverged (a WAL append
	// or sync error after an in-memory mutation): the only safe
	// continuation is to reopen, recovering the durable prefix.
	failed atomic.Bool
	// closed is set by the first Close. It is read both atomically (cheap
	// fast-path rejection) and under applyMu (the authoritative check that
	// orders mutations against Close): a committer that passes the locked
	// check finishes staging before Close can run, and Close's log flush
	// makes every staged byte durable, so acknowledged records survive a
	// concurrent Close.
	closed atomic.Bool
	// epochEnds records, under applyMu, the final byte size of each WAL
	// epoch this process has rotated away from, so a replication stream
	// positioned exactly at a retired epoch's end can be told to continue
	// at (epoch+1, 0) instead of re-bootstrapping. Epochs rotated by
	// earlier processes are absent: a follower parked inside one is stale
	// and must take a fresh snapshot.
	epochEnds map[uint64]int64
	// term is the primary fencing term (under applyMu): the highest term
	// this store has adopted, recovered from the snapshot and any OpNewTerm
	// records in the WAL. Terms rise by one per failover promotion; a
	// mutation is only legitimate while no peer holds a higher term.
	term uint64
	// takeoverEpoch/takeoverOffset preserve the spec's takeover position
	// (the divergence point for deposed-primary rejoin) across checkpoints.
	takeoverEpoch  uint64
	takeoverOffset int64
	// fenced, when nonzero, is the higher term that deposed this store:
	// another node proved it was promoted past us, so every mutation is
	// refused with ErrDeposed — accepting any would fork history. Reads and
	// WAL access stay available (quarantine forensics need them).
	fenced atomic.Uint64
	// watch is closed and replaced by notify() whenever the durable
	// replication position advances (commit, checkpoint, close), waking
	// WaitChange subscribers.
	watchMu sync.Mutex
	watch   chan struct{}
}

// Options configures Open.
type Options struct {
	// FS is the file-system seam; nil selects the operating system.
	// Tests inject a FaultFS to program write, fsync, and crash faults.
	FS FS
}

// ErrStoreFailed indicates a store whose WAL write or sync failed at a
// point where memory may be ahead of disk; reopen the store to recover the
// durable prefix.
var ErrStoreFailed = errors.New("storage: store failed (WAL append error); reopen to recover")

// ErrStoreClosed is returned by every mutation (and by repeated Close
// calls) after the store has been closed. Like ErrStoreFailed it means the
// store object is done; unlike it, everything acknowledged is durable and
// reopening the directory recovers the complete state.
var ErrStoreClosed = errors.New("storage: store closed")

// ErrDeposed rejects mutations on a store fenced by a higher primary term:
// a newer primary exists, so writing here would fork history. The check
// runs before any staging or in-memory apply, making the rejection a
// definitive not-executed signal — safe for clients to retry against the
// current primary. Unlike ErrStoreFailed the store itself is healthy; it
// serves reads and its WAL remains readable for divergence quarantine.
var ErrDeposed = errors.New("storage: deposed by a higher primary term; writes fenced")

// ErrCheckpointGC wraps a failure in Checkpoint's final garbage-collection
// step (removing the superseded WAL and fsyncing the directory). The
// rotation itself succeeded and the store remains usable; the error tells
// the caller that the old WAL file may survive a crash.
var ErrCheckpointGC = errors.New("storage: checkpoint garbage-collection incomplete")

// Filenames inside a store directory.
const (
	snapshotFile = "snapshot.hrdb"
	walFile      = "wal.log"
)

// walName returns the WAL filename for a checkpoint epoch. Epoch 0 keeps
// the legacy name so stores created before epoch rotation still open.
func walName(epoch uint64) string {
	if epoch == 0 {
		return walFile
	}
	return fmt.Sprintf("wal.%06d.log", epoch)
}

// Open opens (creating if needed) a store rooted at dir on the real file
// system with default options.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions opens (creating if needed) a store rooted at dir.
func OpenOptions(dir string, opts Options) (*Store, error) {
	fs := opts.FS
	if fs == nil {
		fs = OsFS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var db *catalog.Database
	var epoch, term, takeoverEpoch uint64
	var takeoverOffset int64
	snapPath := filepath.Join(dir, snapshotFile)
	if _, err := fs.Stat(snapPath); err == nil {
		spec, err := ReadSnapshotFS(fs, snapPath)
		if err != nil {
			return nil, err
		}
		db, err = BuildDatabase(spec)
		if err != nil {
			return nil, err
		}
		epoch = spec.LogEpoch
		term = spec.PrimaryTerm
		takeoverEpoch, takeoverOffset = spec.TakeoverEpoch, spec.TakeoverOffset
	} else {
		db = catalog.New()
	}
	// Recovery is one pass of a Reader over the log: each committed change
	// applies to the freshly loaded database, a term adopted after the last
	// checkpoint (it exists only as a new_term record) folds into the
	// recovered term, and the log ends at the reader's last clean position.
	start := time.Now()
	rd := NewReader(Position{Epoch: epoch})
	log, err := OpenLogFS(fs, filepath.Join(dir, walName(epoch)), rd, func(c Change) error {
		term = max(term, c.Term)
		return c.Apply(db)
	})
	if err != nil {
		return nil, err
	}
	metricReplayNS.ObserveDuration(time.Since(start))
	metricReplayRecords.Add(rd.Records())
	s := &Store{
		db: db, log: log, dir: dir, fs: fs, epoch: epoch,
		term: term, takeoverEpoch: takeoverEpoch, takeoverOffset: takeoverOffset,
		epochEnds: make(map[uint64]int64),
		watch:     make(chan struct{}),
	}
	metricOpens.Inc()
	// A crash between checkpoint's snapshot rename and old-log removal can
	// leave the previous epoch's log behind; it is superseded by the
	// snapshot, so drop it (best effort).
	if epoch > 0 {
		_ = fs.Remove(filepath.Join(dir, walName(epoch-1)))
	}
	return s, nil
}

// Create materializes a brand-new store directory from a complete spec.
// This is the durable half of a replica's promotion: the replica's applied
// state becomes the snapshot, the spec's LogEpoch starts a fresh WAL
// lineage (disjoint from the deposed primary's), and PrimaryTerm plus the
// Takeover fields record the fencing term and divergence point. It refuses
// to overwrite an existing store — if the snapshot or the spec's WAL file
// already exists, the directory holds state someone else may depend on.
func Create(dir string, spec DatabaseSpec, opts Options) (*Store, error) {
	fs := opts.FS
	if fs == nil {
		fs = OsFS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, name := range []string{snapshotFile, walName(spec.LogEpoch)} {
		if _, err := fs.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("storage: create %s: %s already exists", dir, name)
		}
	}
	if err := WriteSnapshotFS(fs, filepath.Join(dir, snapshotFile), spec); err != nil {
		return nil, err
	}
	return OpenOptions(dir, opts)
}

// RemoveStoreFiles deletes the snapshot and every WAL file under dir,
// leaving everything else — quarantine sidecars in particular — in place.
// It is the destructive step of a deposed primary's rejoin: once the
// divergent WAL suffix has been quarantined, the old store files must go so
// the node can re-bootstrap from the new primary without its stale lineage
// shadowing the fresh one. Operates on the real file system (rejoin is an
// operator-level flow); a missing directory is not an error.
func RemoveStoreFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if name != snapshotFile && !(strings.HasPrefix(name, "wal") && strings.HasSuffix(name, ".log")) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return (OsFS{}).SyncDir(dir)
}

// Term returns the primary fencing term this store has adopted.
func (s *Store) Term() uint64 {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	return s.term
}

// AdoptTerm durably raises the store's fencing term: the adoption is
// WAL-logged (OpNewTerm) and acknowledged only once fsynced, so a primary
// that asserted term T cannot forget it across a crash and accept writes
// under an older term. Adopting the current term again is a no-op append;
// adopting a lower term is an error.
func (s *Store) AdoptTerm(term uint64) error {
	if err := s.lockUsable(); err != nil {
		return err
	}
	if term < s.term {
		defer s.applyMu.Unlock()
		return fmt.Errorf("storage: cannot adopt term %d below current term %d", term, s.term)
	}
	s.term = term
	log := s.log
	mark, err := log.Stage(Record{Op: OpNewTerm, Args: []string{strconv.FormatUint(term, 10)}})
	s.applyMu.Unlock()
	return s.acknowledge(log, mark, err)
}

// Fence marks the store deposed by a higher term: every subsequent mutation
// fails with ErrDeposed, while reads and WAL access remain available for
// divergence quarantine. Returns true iff term exceeds the store's own
// adopted term (a genuine deposition — also when already fenced by that or
// a lower term); terms at or below the store's own are ignored, because a
// primary is never deposed by its past.
func (s *Store) Fence(term uint64) bool {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if term <= s.term {
		return false
	}
	if term > s.fenced.Load() {
		s.fenced.Store(term)
	}
	return true
}

// FencedBy returns the term that deposed this store, or zero if it has not
// been fenced.
func (s *Store) FencedBy() uint64 { return s.fenced.Load() }

// Takeover returns the divergence point recorded when this store was
// materialized by a replica's promotion: the position (in the previous
// primary's epoch numbering) up to which the promoting replica had applied.
// Zero values mean the store was never promoted from a replica.
func (s *Store) Takeover() (epoch uint64, offset int64) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	return s.takeoverEpoch, s.takeoverOffset
}

// Database exposes the underlying catalog for queries. Mutations should go
// through Store methods so they are logged.
func (s *Store) Database() *catalog.Database { return s.db }

// ReadLocked runs fn with the apply lock held, giving it a mutation-free
// window over the in-memory database: every logged mutation serializes on
// the same lock, so fn can evaluate shared hierarchy structures without
// racing writers. Intended for subsystems that read concurrently with
// writers (view maintenance); fn must not call mutating Store methods.
func (s *Store) ReadLocked(fn func(db *catalog.Database) error) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	return fn(s.db)
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// lockUsable takes applyMu on a store that accepts mutations; on error the
// lock is not held. The unlocked check is a fast path, the locked one
// orders the caller against a concurrent Close.
func (s *Store) lockUsable() error {
	if err := s.usable(); err != nil {
		return err
	}
	s.applyMu.Lock()
	if err := s.usable(); err != nil {
		s.applyMu.Unlock()
		return err
	}
	return nil
}

// acknowledge finishes a mutation after applyMu is released: it waits until
// the records staged up to mark are durable, then wakes WaitChange
// subscribers. Concurrent committers waiting here share one flush (group
// commit). err is the outcome of the final Stage call; a stage or sync
// failure poisons the store, because memory is now ahead of disk.
func (s *Store) acknowledge(log *Log, mark int64, err error) error {
	if err == nil {
		err = log.Sync(mark)
	}
	if err != nil {
		s.failed.Store(true)
		return fmt.Errorf("%w: %v", ErrStoreFailed, err)
	}
	s.notify()
	return nil
}

// Apply is the store's one write path: it applies the ops, returning their
// warnings, and acknowledges only once their records are fsynced.
//
//   - A single op other than a transaction's — a bare tuple update or any
//     other kind — validates by applying in memory, then stages its one bare
//     record; a failed application stages nothing.
//   - A transaction (one or more assert/deny/retract ops not marked Bare) is
//     write-ahead: its records are staged inside a tx_begin bracket, then
//     applied, and the bracket is closed with tx_commit — or, if the apply
//     rejects the transaction, with tx_abort so recovery discards it. No
//     other op can share its batch: the log could not make the mix atomic.
//   - An empty list changes and stages nothing.
func (s *Store) Apply(ops []catalog.TxOp) ([]string, error) {
	if len(ops) > 1 {
		for _, o := range ops {
			if !o.InTx() {
				return nil, fmt.Errorf("storage: %s cannot share a batch; only the assert, deny and retract ops of one transaction can", o.Kind)
			}
		}
	}
	bracket := len(ops) > 0 && ops[0].InTx()
	if err := s.lockUsable(); err != nil {
		return nil, err
	}
	// Capture the log while holding applyMu: Checkpoint may rotate s.log,
	// and a mark is only meaningful against the log that issued it.
	log := s.log
	recs := make([]Record, 0, len(ops)+1)
	for _, o := range ops {
		recs = append(recs, Record{Op: Op(o.Kind), Target: o.Relation, Args: o.Values})
	}
	// A transaction's records go out ahead of the apply, leaving its
	// tx_commit to stage afterwards where a bare op stages its record.
	if bracket {
		if _, err := log.Stage(append([]Record{{Op: OpTxBegin}}, recs...)...); err != nil {
			s.applyMu.Unlock()
			return nil, s.acknowledge(log, 0, err)
		}
		recs = []Record{{Op: OpTxCommit}}
	}
	warnings, err := s.db.Apply(ops)
	if err != nil {
		if bracket {
			// The staged bracket must not commit. The abort need not be
			// fsynced here — if it is lost to a crash, the bracket is
			// unterminated and OpenLog discards it anyway.
			if _, aerr := log.Stage(Record{Op: OpTxAbort}); aerr != nil {
				s.failed.Store(true)
			}
		}
		s.applyMu.Unlock()
		return nil, err
	}
	if len(recs) == 0 {
		s.applyMu.Unlock()
		return warnings, nil
	}
	mark, err := log.Stage(recs...)
	s.applyMu.Unlock()
	if err := s.acknowledge(log, mark, err); err != nil {
		return nil, err
	}
	return warnings, nil
}

// ApplyTx is Apply without the warnings.
func (s *Store) ApplyTx(ops []catalog.TxOp) error {
	_, err := s.Apply(ops)
	return err
}

// apply is Apply of one bare op, its warning dropped; the typed methods
// below are spelled with it.
func (s *Store) apply(kind, target string, values ...string) error {
	_, err := s.Apply([]catalog.TxOp{{Kind: kind, Relation: target, Values: values, Bare: true}})
	return err
}

// CreateHierarchy creates and logs a hierarchy.
func (s *Store) CreateHierarchy(domain string) error {
	return s.apply(catalog.KindCreateHierarchy, domain)
}

// AddClass adds and logs a class.
func (s *Store) AddClass(domain, name string, parents ...string) error {
	return s.apply(catalog.KindAddClass, domain, append([]string{name}, parents...)...)
}

// AddInstance adds and logs an instance.
func (s *Store) AddInstance(domain, name string, parents ...string) error {
	return s.apply(catalog.KindAddInstance, domain, append([]string{name}, parents...)...)
}

// AddEdge adds and logs an extra is-a edge.
func (s *Store) AddEdge(domain, parent, child string) error {
	return s.apply(catalog.KindAddEdge, domain, parent, child)
}

// Prefer adds and logs a preference edge.
func (s *Store) Prefer(domain, stronger, weaker string) error {
	return s.apply(catalog.KindPrefer, domain, stronger, weaker)
}

// CreateRelation creates and logs a relation.
func (s *Store) CreateRelation(name string, attrs ...catalog.AttrSpec) error {
	args := make([]string, 0, 2*len(attrs))
	for _, a := range attrs {
		args = append(args, a.Name, a.Domain)
	}
	return s.apply(catalog.KindCreateRelation, name, args...)
}

// DropRelation drops and logs the removal of a relation.
func (s *Store) DropRelation(name string) error { return s.apply(catalog.KindDropRelation, name) }

// Assert inserts and logs a positive tuple.
func (s *Store) Assert(rel string, values ...string) error {
	return s.apply(catalog.KindAssert, rel, values...)
}

// Deny inserts and logs a negated tuple.
func (s *Store) Deny(rel string, values ...string) error {
	return s.apply(catalog.KindDeny, rel, values...)
}

// Retract removes and logs.
func (s *Store) Retract(rel string, values ...string) error {
	return s.apply(catalog.KindRetract, rel, values...)
}

// Consolidate consolidates and logs.
func (s *Store) Consolidate(rel string) error { return s.apply(catalog.KindConsolidate, rel) }

// Explicate explicates and logs.
func (s *Store) Explicate(rel string, attrs ...string) error {
	return s.apply(catalog.KindExplicate, rel, attrs...)
}

// DropNode removes a childless, unreferenced hierarchy node and logs it.
func (s *Store) DropNode(domain, name string) error {
	return s.apply(catalog.KindDropNode, domain, name)
}

// SetMode switches a relation's preemption semantics and logs it.
func (s *Store) SetMode(rel string, mode core.Preemption) error {
	return s.apply(catalog.KindSetMode, rel, mode.String())
}

// Checkpoint writes a snapshot of the current database and rotates to a
// fresh, empty WAL. The sequence is crash-safe at every step:
//
//  1. The snapshot (stamped with the next log epoch) is written to a temp
//     file, fsynced, renamed over the old snapshot, and the directory is
//     fsynced. A crash before the rename leaves the old snapshot + old log.
//  2. A new, empty WAL named for the next epoch is created, fsynced, and
//     the directory is fsynced. A crash between 1 and 2 is benign: Open
//     reads the new snapshot and creates the (empty) new-epoch log itself;
//     the old log is superseded and removed lazily.
//  3. The old log is closed and removed, and the directory is fsynced so
//     the removal is durable (otherwise a crash can resurrect a WAL from
//     two epochs ago that Open's lazy epoch-1 cleanup never reclaims).
//
// A failure after step 1 may leave the directory referencing the new
// epoch while this process still holds the old log, so the store is
// poisoned and must be reopened. A failure in step 3 does NOT poison the
// store — the rotation itself is complete and the new log is live — but
// it is reported (wrapped in ErrCheckpointGC) so callers know the
// superseded WAL may still be on disk.
func (s *Store) Checkpoint() error {
	if err := s.lockUsable(); err != nil {
		return err
	}
	defer s.applyMu.Unlock()
	start := time.Now()
	newEpoch := s.epoch + 1
	spec := SnapshotDatabase(s.db)
	spec.LogEpoch = newEpoch
	// Carry the fencing lineage forward: a checkpoint supersedes the WAL
	// (including any OpNewTerm records), so the snapshot must preserve the
	// adopted term and the takeover divergence point.
	spec.PrimaryTerm = s.term
	spec.TakeoverEpoch, spec.TakeoverOffset = s.takeoverEpoch, s.takeoverOffset
	if err := WriteSnapshotFS(s.fs, filepath.Join(s.dir, snapshotFile), spec); err != nil {
		// The rename may or may not have landed; this process can no
		// longer know which log the directory designates.
		s.failed.Store(true)
		return fmt.Errorf("%w: %v", ErrStoreFailed, err)
	}
	newLog, err := createLog(s.fs, s.dir, filepath.Join(s.dir, walName(newEpoch)))
	if err != nil {
		s.failed.Store(true)
		return fmt.Errorf("%w: %v", ErrStoreFailed, err)
	}
	old, oldEpoch := s.log, s.epoch
	_, oldEnd := old.StagedMark()
	s.log, s.epoch = newLog, newEpoch
	// The retired epoch ends where its staged bytes end: old.Close below
	// flushes everything staged, and nothing can stage more (s.log has been
	// swapped under applyMu).
	s.epochEnds[oldEpoch] = oldEnd
	s.notify()
	metricCheckpoints.Inc()
	metricCheckpointNS.ObserveDuration(time.Since(start))
	// Step 3: garbage-collect the superseded log. Failures here are
	// reported but do not poison — the new snapshot and log are durable.
	_ = old.Close()
	if err := s.fs.Remove(filepath.Join(s.dir, walName(oldEpoch))); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: remove %s: %v", ErrCheckpointGC, walName(oldEpoch), err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("%w: dir sync after removing %s: %v", ErrCheckpointGC, walName(oldEpoch), err)
	}
	return nil
}

// LogSize returns the durable WAL size in bytes.
func (s *Store) LogSize() (int64, error) {
	s.applyMu.Lock()
	log := s.log
	s.applyMu.Unlock()
	return log.Size()
}

// LogStats returns the number of WAL records staged and fsyncs issued since
// the log was opened; group commit shows up as syncs < records.
func (s *Store) LogStats() (records, syncs uint64) {
	s.applyMu.Lock()
	log := s.log
	s.applyMu.Unlock()
	return log.Stats()
}

// usable rejects mutations on a closed, poisoned or fenced store (see
// lockUsable).
func (s *Store) usable() error {
	if s.closed.Load() {
		return ErrStoreClosed
	}
	if s.failed.Load() {
		return ErrStoreFailed
	}
	if s.fenced.Load() != 0 {
		return ErrDeposed
	}
	return nil
}

// Close flushes staged WAL frames and closes the store's files. Close is
// safe to call concurrently with committers: the closed flag is set under
// applyMu, so no committer can begin staging afterwards, and the log's own
// Close flushes everything already staged — an Apply waiting for its
// durability mark therefore still acknowledges (and its records survive).
// Only the first call closes; subsequent calls — and any mutation after
// the first Close — return ErrStoreClosed.
func (s *Store) Close() error {
	s.applyMu.Lock()
	if s.closed.Load() {
		s.applyMu.Unlock()
		return ErrStoreClosed
	}
	s.closed.Store(true)
	log := s.log
	s.applyMu.Unlock()
	// Wake WaitChange subscribers so replication streams observe the close
	// instead of blocking until their heartbeat deadline.
	s.notify()
	return log.Close()
}

// notify wakes every WaitChange subscriber by closing the current watch
// channel and installing a fresh one.
func (s *Store) notify() {
	s.watchMu.Lock()
	close(s.watch)
	s.watch = make(chan struct{})
	s.watchMu.Unlock()
}
