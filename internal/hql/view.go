package hql

import (
	"context"
	"errors"
	"fmt"

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
	// ViewSnapshot returns an immutable relation holding the view's
	// current contents, for reads that treat the view as a relation.
	// Views without a relation form (COUNT) return an error.
	ViewSnapshot(name string) (*core.Relation, error)
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

// read is the one way a statement reads relation data. A TupleSource
// target serves the tuples the scope can reach. Any other target reads its
// own catalog, falling back to the view catalog when the catalog has no
// such relation: this is what exposes materialized views to every read as
// ordinary relations. A point read (Scope.Items) also yields the verdict of
// its item; a local one evaluates in place, with no snapshot.
func (s *Session) read(ctx context.Context, name string, scope Scope) (*core.Relation, core.Verdict, error) {
	var r *core.Relation
	var v core.Verdict
	var err error
	src, remote := s.target.(TupleSource)
	switch {
	case remote:
		r, err = src.Tuples(ctx, name, scope)
	case len(scope.Items) > 0:
		if v, err = s.target.Database().Evaluate(name, scope.Items[0]...); err == nil {
			return nil, v, nil
		}
	default:
		r, err = s.target.Database().Snapshot(name)
	}
	if err != nil && !remote {
		if vr := s.viewSnapshot(name); vr != nil {
			r, err = vr, nil
		}
	}
	if err != nil || len(scope.Items) == 0 {
		return r, core.Verdict{}, err
	}
	v, err = r.Evaluate(scope.Items[0])
	return r, v, err
}

// viewSnapshot returns the materialized view called name, or nil.
func (s *Session) viewSnapshot(name string) *core.Relation {
	if vc, ok := s.target.(ViewCatalog); ok {
		if vr, err := vc.ViewSnapshot(name); err == nil {
			return vr
		}
	}
	return nil
}
