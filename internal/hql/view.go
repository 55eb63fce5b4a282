package hql

import (
	"context"
	"errors"
	"fmt"

	"hrdb/internal/algebra"
	"hrdb/internal/core"
)

// ErrNoViews reports a view statement executed against a Target that does
// not maintain materialized views (for example the plain MemTarget, or a
// replica session).
var ErrNoViews = errors.New("hql: target does not support materialized views")

// ViewCatalog is the optional interface a Target implements to support
// materialized views (CREATE/DROP/SHOW MATERIALIZED VIEW and reads that
// name a view where a relation is expected). The canonical implementation
// is internal/view's Target wrapper; the Target interface itself stays
// frozen — view support is detected by assertion.
type ViewCatalog interface {
	// CreateView registers a materialized view over a canonical defining
	// query (the Query of a CreateViewStmt), computes it, and starts
	// incremental maintenance.
	CreateView(name, query string) error
	// DropView unregisters a view.
	DropView(name string) error
	// ViewRead calls fn with the relation holding the view's current
	// contents, for reads that treat the view as a relation. The relation
	// is the maintained one, under a lock that holds maintenance off: as
	// with catalog.Database.Read, fn must not modify or keep it, and must
	// not call ViewRead again. Views without a relation form (COUNT)
	// return an error without calling fn.
	ViewRead(name string, fn func(*core.Relation) error) error
	// ViewNames lists registered views, sorted.
	ViewNames() []string
	// ViewStatus renders one view's definition and maintenance state.
	ViewStatus(name string) (string, error)
}

// Materializable reports whether a statement may define a materialized
// view: a side-effect-free query over one base relation whose result is a
// row set the view layer knows how to maintain — SELECT without AS,
// EXTENSION, or COUNT.
func Materializable(st Stmt) error {
	switch st := st.(type) {
	case SelectStmt:
		if st.As != "" {
			return fmt.Errorf("hql: a view query must be read-only; drop the AS clause")
		}
		return nil
	case ExtensionStmt, CountStmt:
		return nil
	default:
		return fmt.Errorf("hql: %T cannot define a materialized view (want SELECT, EXTENSION or COUNT)", st)
	}
}

// viewCatalog returns the target's view catalog, or ErrNoViews.
func (s *Session) viewCatalog() (ViewCatalog, error) {
	if vc, ok := s.target.(ViewCatalog); ok {
		return vc, nil
	}
	return nil, ErrNoViews
}

// read is the one way a statement reads relation data: it returns what fn
// computes from the relation called name. A TupleSource target serves the
// tuples the scope can reach. Any other target runs fn on its live relation
// inside catalog.Database.Read, so evaluation shares the relation's table,
// falling back to ViewCatalog.ViewRead when the catalog has no such
// relation: this is what exposes materialized views to every read as
// ordinary relations. fn runs under a lock either way: it must not keep
// the relation, write (an `… AS` result is attached after read returns) or
// read again (a nested lock deadlocks, at once or behind a queued writer).
func read[T any](ctx context.Context, s *Session, name string, scope Scope, fn func(r *core.Relation) (T, error)) (T, error) {
	return readFrom(ctx, s, name, scope, nil, fn)
}

// readFrom is read that, given a non-nil due, leaves the scope's
// verification to fn: it sets *due to whether fn's relation is a catalog
// relation whose stale consistency stamp scope.verify asks to renew.
func readFrom[T any](ctx context.Context, s *Session, name string, scope Scope, due *bool, fn func(r *core.Relation) (T, error)) (out T, err error) {
	if src, ok := s.target.(TupleSource); ok {
		r, err := src.Tuples(ctx, name, scope)
		if err != nil {
			return out, err
		}
		return fn(r)
	}
	found := false
	run := func(r *core.Relation) error {
		found = true
		out, err = fn(r)
		return err
	}
	err = s.target.Database().Read(name, func(r *core.Relation) error {
		stale := scope.verify && !r.VerifiedConsistent()
		if due != nil {
			*due = stale
		} else if stale {
			// The check only reads r, so the read lock suffices; over a
			// relation that fails it, SELECT repairs its result as before.
			_ = r.CheckConsistency()
		}
		return run(r)
	})
	if vc, ok := s.target.(ViewCatalog); ok && !found {
		// A view that reads sets err through run; any other keeps the
		// catalog's not-found error.
		_ = vc.ViewRead(name, run)
	}
	return out, err
}

// answer is read for a statement whose text is a function of the relation's
// state and of key(r): it is kept in the relation's table
// (core.Relation.Answer), so derive runs once per state, and so does the
// scope's verification, which only derive needs. key and derive run under
// read's lock, so a kept answer is of the state its stamp names. A
// relation a TupleSource builds per read and a WithForceScan reference run
// bypass the table; a canceled ctx neither reads nor fills it.
func answer(ctx context.Context, s *Session, name string, scope Scope, key, derive func(r *core.Relation) (string, error)) (string, error) {
	_, perRead := s.target.(TupleSource)
	due := false
	return readFrom(ctx, s, name, scope, &due, func(r *core.Relation) (string, error) {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		miss := func() (string, error) {
			if due {
				_ = r.CheckConsistency() // as read does, but for a miss alone
			}
			return derive(r)
		}
		if perRead || algebra.ScanForced(ctx) {
			return miss()
		}
		k, err := key(r)
		if err != nil {
			return "", err
		}
		return r.Answer(k, miss)
	})
}

// snapshot returns a private copy of a relation, for statements that keep
// it past the read: binary operators and INFER hold several at once, and
// Dump takes each relation from a getter.
func (s *Session) snapshot(ctx context.Context, name string) (*core.Relation, error) {
	return read(ctx, s, name, Scope{}, func(r *core.Relation) (*core.Relation, error) { return r.Clone(), nil })
}
