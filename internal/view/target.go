package view

import (
	"fmt"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/hql"
)

// Target wraps any hql.Target with a view Manager, implementing the
// optional hql.ViewCatalog interface so sessions over it can run
// CREATE MATERIALIZED VIEW / DROP VIEW / SHOW VIEWS and read views as
// relations. Mutations pass through its Apply to the wrapped target.
type Target struct {
	hql.Target
	Views *Manager
}

// NewTarget wraps base with view support from m.
func NewTarget(base hql.Target, m *Manager) Target {
	return Target{Target: base, Views: m}
}

var _ hql.ViewCatalog = Target{}

// Apply refuses to create a relation under a name already taken by a view —
// views are read through the relation namespace, so the two must not
// collide.
func (t Target) Apply(ops []hql.TxOp) ([]string, error) {
	for _, o := range ops {
		if o.Kind == catalog.KindCreateRelation && t.Views.Has(o.Relation) {
			return nil, fmt.Errorf("view: %q is a materialized view; drop it first", o.Relation)
		}
	}
	return t.Target.Apply(ops)
}

// CreateView implements hql.ViewCatalog.
func (t Target) CreateView(name, query string) error { return t.Views.Create(name, query) }

// DropView implements hql.ViewCatalog.
func (t Target) DropView(name string) error { return t.Views.Drop(name) }

// ViewRead implements hql.ViewCatalog.
func (t Target) ViewRead(name string, fn func(*core.Relation) error) error {
	return t.Views.Read(name, fn)
}

// ViewNames implements hql.ViewCatalog.
func (t Target) ViewNames() []string { return t.Views.Names() }

// ViewStatus implements hql.ViewCatalog.
func (t Target) ViewStatus(name string) (string, error) { return t.Views.Status(name) }
