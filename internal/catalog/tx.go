package catalog

import (
	"fmt"
	"slices"

	"hrdb/internal/core"
)

// undo records how to reverse an applied operation: remove the item, or,
// when reinsert.Item is non-nil, restore that tuple.
type undo struct {
	rel      string
	remove   core.Item
	reinsert core.Tuple
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
	_, err := tx.commit()
	return err
}

// commit is Commit returning the exception warnings, none on failure.
func (tx *Tx) commit() ([]string, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	tx.done = true
	w, _, err := tx.db.commit(tx.ops)
	return w, err
}

// commit applies tuple updates as one unit: every op in order, with
// exception-policy checks, then the ambiguity constraint over every
// relation they changed. On any failure every applied op is undone and the
// database is unchanged. An op of a transaction replaces a stored tuple of
// the opposite sign; a Bare op refuses to, with core.ErrContradiction. A
// restated tuple changes nothing, but its relation is still checked; a bare
// retraction of an absent tuple is not even checked. It returns the
// exception warnings and the number of ops that changed a tuple, none on
// failure.
func (db *Database) commit(ops []TxOp) ([]string, int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()

	var ubuf [1]undo // a bare op, the common unit, allocates no list
	undos := ubuf[:0]
	rollback := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			u := undos[i]
			r := db.relations[u.rel]
			if u.remove != nil {
				r.Retract(u.remove)
			}
			if u.reinsert.Item != nil {
				// Reinsertion of a previously present tuple cannot fail.
				if err := r.Insert(u.reinsert.Item, u.reinsert.Sign); err != nil {
					panic(fmt.Sprintf("catalog: rollback reinsert failed: %v", err))
				}
			}
		}
	}

	// Per touched relation, in the order first touched (so a unit that
	// breaks two of them always reports the same one): whether it was
	// verified consistent before the unit's first mutation, and the items
	// the unit mutated.
	type delta struct {
		rel      string
		verified bool
		changed  []core.Item
	}
	var tbuf [1]delta
	touched := tbuf[:0]
	var warnings []string
	n := 0
	for _, o := range ops {
		r, ok := db.relations[o.Relation]
		if !ok {
			rollback()
			return nil, 0, fmt.Errorf("%w: relation %q", ErrNotFound, o.Relation)
		}
		item, sign := core.Item(o.Values), o.Kind == KindAssert
		old, present := r.Lookup(item)
		if o.Bare && o.Kind == KindRetract && !present {
			continue // a bare RETRACT of nothing is a no-op, left unchecked even on an unverified relation
		}
		d := slices.IndexFunc(touched, func(d delta) bool { return d.rel == o.Relation })
		if d < 0 {
			d = len(touched)
			touched = append(touched, delta{rel: o.Relation, verified: r.VerifiedConsistent()})
		}
		switch o.Kind {
		case KindAssert, KindDeny:
			// A restated tuple changes nothing. The exception policy applies
			// to every insertion. A stored tuple of the opposite sign is
			// replaced in a transaction, so it can flip a sign; a bare op
			// leaves it for Insert to refuse.
			if present && old.Sign == sign {
				continue
			}
			if present && !o.Bare {
				r.Retract(item)
				undos = append(undos, undo{rel: o.Relation, reinsert: old})
			}
			w, err := db.checkException(r, item, sign)
			if err != nil {
				rollback()
				return nil, 0, err
			}
			if err := r.Insert(item, sign); err != nil {
				rollback()
				return nil, 0, err
			}
			warnings = append(warnings, w...)
			undos = append(undos, undo{rel: o.Relation, remove: item})
		case KindRetract:
			if !present {
				continue
			}
			r.Retract(item)
			undos = append(undos, undo{rel: o.Relation, reinsert: old})
		}
		touched[d].changed = append(touched[d].changed, item)
		n++
	}

	// Ambiguity constraint over every changed relation.
	for _, d := range touched {
		if err := checkAfter(db.relations[d.rel], d.verified, d.changed...); err != nil {
			rollback()
			return nil, 0, err
		}
	}
	return warnings, n, nil
}
