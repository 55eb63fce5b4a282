package storage

import (
	"errors"
	"fmt"

	"hrdb/internal/catalog"
)

// bracketFold folds a WAL record stream into committed batches: a record
// outside a bracket is a batch of its own, the records between tx_begin and
// tx_commit are one batch, and a bracket closed by tx_abort is dropped. It
// is the one reading of bracket structure, shared by the Applier (recovery,
// replicas) and the Tailer (view maintenance).
type bracketFold struct {
	open []Record // records inside the open bracket
	inTx bool
}

// push consumes one record; done reports that it completed a committed
// batch (empty, for an empty bracket). A bracket marker that does not fit
// the state — a nested tx_begin, a tx_commit outside a bracket — is
// ErrCorrupt: no writer produces one.
func (f *bracketFold) push(rec Record) (batch []Record, done bool, err error) {
	switch rec.Op {
	case OpTxBegin:
		if f.inTx {
			return nil, false, fmt.Errorf("%w: nested tx bracket", ErrCorrupt)
		}
		f.inTx = true
		return nil, false, nil
	case OpTxAbort:
		f.inTx, f.open = false, nil
		return nil, false, nil
	case OpTxCommit:
		if !f.inTx {
			return nil, false, fmt.Errorf("%w: commit outside bracket", ErrCorrupt)
		}
		batch, f.inTx, f.open = f.open, false, nil
		return batch, true, nil
	}
	if f.inTx {
		f.open = append(f.open, rec)
		return nil, false, nil
	}
	return []Record{rec}, true, nil
}

// Applier consumes a WAL record stream in log order and applies the
// committed state to a catalog database, one committed batch at a time
// through catalog.ApplyOps — a record logged outside a bracket as the bare
// op it was, a bracket's tuple updates as one transaction (an individual
// record of a batch may be inconsistent on its own, §3.1's whole point) —
// and an aborted bracket leaves no trace.
//
// The Applier is the single replay semantics of the system: Store recovery
// and the replication follower (internal/repl) both feed records through
// it, so a replica converges to exactly the state a crash recovery of the
// primary would produce. An Applier is not safe for concurrent use.
type Applier struct {
	db   *catalog.Database
	fold bracketFold
}

// NewApplier creates an applier over db.
func NewApplier(db *catalog.Database) *Applier { return &Applier{db: db} }

// InTx reports whether the applier is inside an open transaction bracket.
// Positions inside a bracket are not resumable: a replication follower
// acknowledges (and resumes from) only record boundaries where InTx is
// false.
func (a *Applier) InTx() bool { return a.fold.inTx }

// Pending returns the number of records buffered inside the open bracket —
// received but not yet applied (they apply at tx_commit or vanish at
// tx_abort).
func (a *Applier) Pending() int { return len(a.fold.open) }

// Apply consumes one record. Bracketed records are buffered; everything
// else (and a closing tx_commit's buffered batch) is applied immediately.
func (a *Applier) Apply(rec Record) error {
	batch, done, err := a.fold.push(rec)
	if err != nil || !done {
		return err
	}
	bare := rec.Op != OpTxCommit
	ops := make([]catalog.TxOp, 0, len(batch))
	for _, rec := range batch {
		// Fencing metadata, not catalog state: Store recovery reads the term
		// out of the record stream itself; replicas learn terms from stream
		// frames. Either way the catalog is untouched.
		if rec.Op == OpNewTerm {
			continue
		}
		ops = append(ops, catalog.TxOp{Kind: string(rec.Op), Relation: rec.Target, Values: rec.Args, Bare: bare})
	}
	err = a.db.ApplyOps(ops)
	if errors.Is(err, catalog.ErrBadOp) {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return err
}
