package catalog

import (
	"fmt"

	"hrdb/internal/core"
)

// opKind is the kind of a staged transaction operation.
type opKind int

const (
	opInsert opKind = iota
	opRetract
)

// op is one staged update.
type op struct {
	kind opKind
	rel  string
	item core.Item
	sign bool
}

// undo records how to reverse an applied operation.
type undo struct {
	rel string
	// reinsert, when non-nil, is the tuple to restore; otherwise the item
	// is removed.
	remove   *core.Item
	reinsert *core.Tuple
}

// Tx is a transaction: updates are staged and applied atomically at Commit,
// where the ambiguity constraint is checked over every touched relation.
// This implements §3.1's rule that a conflict-creating update must be
// packaged with its resolving updates in one transaction.
//
// A Tx is not safe for concurrent use.
type Tx struct {
	db   *Database
	ops  []op
	done bool
}

// Begin starts a transaction.
func (db *Database) Begin() *Tx { return &Tx{db: db} }

// TxOp is a serializable description of one transactional update, used by
// layers (query language, write-ahead log) that stage operations before
// applying them through a transaction.
type TxOp struct {
	Kind     string // "assert" | "deny" | "retract"
	Relation string
	Values   []string
}

// ApplyOps runs the described operations in one transaction.
//
// ApplyOps is the replay contract of the storage layer's write-ahead log:
// a committed transaction is persisted as its TxOp list and re-applied here
// during crash recovery. It is deterministic — given equal database states,
// the same ops yield the same resulting state and the same accept/reject
// outcome — so replaying a logged commit cannot diverge from the original
// run. Either every operation takes effect and the ambiguity constraint
// holds over every touched relation, or the database is unchanged.
func (db *Database) ApplyOps(ops []TxOp) error {
	tx := db.Begin()
	for _, o := range ops {
		switch o.Kind {
		case "assert":
			tx.Assert(o.Relation, o.Values...)
		case "deny":
			tx.Deny(o.Relation, o.Values...)
		case "retract":
			tx.Retract(o.Relation, o.Values...)
		default:
			tx.Rollback()
			return fmt.Errorf("catalog: unknown tx op %q", o.Kind)
		}
	}
	return tx.Commit()
}

// Assert stages a positive tuple insertion.
func (tx *Tx) Assert(rel string, values ...string) *Tx {
	tx.ops = append(tx.ops, op{kind: opInsert, rel: rel, item: core.Item(values).Clone(), sign: true})
	return tx
}

// Deny stages a negated tuple insertion.
func (tx *Tx) Deny(rel string, values ...string) *Tx {
	tx.ops = append(tx.ops, op{kind: opInsert, rel: rel, item: core.Item(values).Clone(), sign: false})
	return tx
}

// Retract stages removal of the tuple on exactly the given item.
func (tx *Tx) Retract(rel string, values ...string) *Tx {
	tx.ops = append(tx.ops, op{kind: opRetract, rel: rel, item: core.Item(values).Clone()})
	return tx
}

// Len returns the number of staged operations.
func (tx *Tx) Len() int { return len(tx.ops) }

// Rollback discards the staged operations. Safe to call after Commit (it
// then does nothing).
func (tx *Tx) Rollback() {
	tx.done = true
	tx.ops = nil
}

// Commit applies all staged operations atomically: every operation is
// applied in order (with exception-policy checks), then every touched
// relation is checked for ambiguity conflicts. On any failure all applied
// operations are undone and the database is unchanged.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	db := tx.db
	db.mu.Lock()
	defer db.mu.Unlock()

	var undos []undo
	rollback := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			u := undos[i]
			r := db.relations[u.rel]
			if u.remove != nil {
				r.Retract(*u.remove)
			}
			if u.reinsert != nil {
				// Reinsertion of a previously present tuple cannot fail.
				if err := r.Insert(u.reinsert.Item, u.reinsert.Sign); err != nil {
					panic(fmt.Sprintf("catalog: rollback reinsert failed: %v", err))
				}
			}
		}
	}

	// Per touched relation: whether it was verified consistent before the
	// batch's first mutation, and the items the batch mutated. order lists
	// the relations as first touched, so a batch that breaks two of them
	// always reports the same one.
	type delta struct {
		verified bool
		changed  []core.Item
	}
	touched := map[string]*delta{}
	var order []string
	for _, o := range tx.ops {
		r, ok := db.relations[o.rel]
		if !ok {
			rollback()
			return fmt.Errorf("%w: relation %q", ErrNotFound, o.rel)
		}
		d := touched[o.rel]
		if d == nil {
			d = &delta{verified: r.VerifiedConsistent()}
			touched[o.rel] = d
			order = append(order, o.rel)
		}
		switch o.kind {
		case opInsert:
			// Within a transaction the exception policy still applies, but
			// tuple-level contradictions (same item, opposite sign) are
			// treated as a replacement so a transaction can flip a sign.
			if old, present := r.Lookup(o.item); present {
				if old.Sign == o.sign {
					continue
				}
				r.Retract(o.item)
				undos = append(undos, undo{rel: o.rel, reinsert: &core.Tuple{Item: old.Item, Sign: old.Sign}})
			}
			if err := db.checkException(r, o.item, o.sign); err != nil {
				rollback()
				return err
			}
			if err := r.Insert(o.item, o.sign); err != nil {
				rollback()
				return err
			}
			it := o.item.Clone()
			undos = append(undos, undo{rel: o.rel, remove: &it})
			d.changed = append(d.changed, o.item)
		case opRetract:
			if old, present := r.Lookup(o.item); present {
				r.Retract(o.item)
				undos = append(undos, undo{rel: o.rel, reinsert: &core.Tuple{Item: old.Item, Sign: old.Sign}})
				d.changed = append(d.changed, o.item)
			}
		}
	}

	// Ambiguity constraint over every touched relation.
	for _, rel := range order {
		d := touched[rel]
		if err := checkAfter(db.relations[rel], d.verified, d.changed...); err != nil {
			rollback()
			return err
		}
	}
	return nil
}
