package catalog

import (
	"fmt"

	"hrdb/internal/core"
)

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
	ops  []TxOp // assert, deny and retract only
	done bool
}

// Begin starts a transaction.
func (db *Database) Begin() *Tx { return &Tx{db: db} }

// stage appends one tuple update, with its own copy of the values.
func (tx *Tx) stage(kind, rel string, values []string) *Tx {
	tx.ops = append(tx.ops, TxOp{Kind: kind, Relation: rel, Values: core.Item(values).Clone()})
	return tx
}

// Assert stages a positive tuple insertion.
func (tx *Tx) Assert(rel string, values ...string) *Tx { return tx.stage(KindAssert, rel, values) }

// Deny stages a negated tuple insertion.
func (tx *Tx) Deny(rel string, values ...string) *Tx { return tx.stage(KindDeny, rel, values) }

// Retract stages removal of the tuple on exactly the given item.
func (tx *Tx) Retract(rel string, values ...string) *Tx { return tx.stage(KindRetract, rel, values) }

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
		r, ok := db.relations[o.Relation]
		if !ok {
			rollback()
			return fmt.Errorf("%w: relation %q", ErrNotFound, o.Relation)
		}
		d := touched[o.Relation]
		if d == nil {
			d = &delta{verified: r.VerifiedConsistent()}
			touched[o.Relation] = d
			order = append(order, o.Relation)
		}
		item, sign := core.Item(o.Values), o.Kind == KindAssert
		switch o.Kind {
		case KindAssert, KindDeny:
			// Within a transaction the exception policy still applies, but
			// tuple-level contradictions (same item, opposite sign) are
			// treated as a replacement so a transaction can flip a sign.
			if old, present := r.Lookup(item); present {
				if old.Sign == sign {
					continue
				}
				r.Retract(item)
				undos = append(undos, undo{rel: o.Relation, reinsert: &core.Tuple{Item: old.Item, Sign: old.Sign}})
			}
			if err := db.checkException(r, item, sign); err != nil {
				rollback()
				return err
			}
			if err := r.Insert(item, sign); err != nil {
				rollback()
				return err
			}
			undos = append(undos, undo{rel: o.Relation, remove: &item})
			d.changed = append(d.changed, item)
		case KindRetract:
			if old, present := r.Lookup(item); present {
				r.Retract(item)
				undos = append(undos, undo{rel: o.Relation, reinsert: &core.Tuple{Item: old.Item, Sign: old.Sign}})
				d.changed = append(d.changed, item)
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
