package view

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

// savedView is the on-disk form of one view: its definition always, plus a
// snapshot of an extension or select view's relation form stamped with the
// WAL position it reflects. On reload the snapshot is adopted only when that
// position equals the store's current position (clean shutdown, no writes
// since); otherwise — and for a count view — the definition alone is kept
// and the contents recomputed. Rows are rendered from the relation, never
// stored (a "rows" field in an older file is ignored).
type savedView struct {
	Name   string     `json:"name"`
	Query  string     `json:"query"`
	Epoch  uint64     `json:"epoch"`
	Offset int64      `json:"offset"`
	Items  [][]string `json:"items,omitempty"` // relation form: tuple items…
	Signs  []bool     `json:"signs,omitempty"` // …and their signs
}

func (m *Manager) viewsPath() string {
	return filepath.Join(m.opts.Dir, "views.json")
}

// saveLocked persists every view definition (and relation form) atomically.
// No-op without a Dir.
func (m *Manager) saveLocked() error {
	if m.opts.Dir == "" {
		return nil
	}
	out := make([]savedView, 0, len(m.views))
	for _, name := range sortedKeys(m.views) {
		v := m.views[name]
		sv := savedView{
			Name:   v.name,
			Query:  v.query,
			Epoch:  v.pos.Epoch,
			Offset: v.pos.Offset,
		}
		if v.rel != nil && v.def.kind != kindCount {
			for _, t := range v.rel.Tuples() {
				sv.Items = append(sv.Items, append([]string(nil), t.Item...))
				sv.Signs = append(sv.Signs, t.Sign)
			}
		}
		out = append(out, sv)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(m.opts.Dir, 0o755); err != nil {
		return err
	}
	tmp := m.viewsPath() + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, m.viewsPath())
}

// load restores persisted views at Open time. Definitions always survive;
// a relation snapshot is adopted only when it was taken at the store's exact
// current WAL position, else the view is recomputed once here.
func (m *Manager) load() error {
	if m.opts.Dir == "" {
		return nil
	}
	data, err := os.ReadFile(m.viewsPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var saved []savedView
	if err := json.Unmarshal(data, &saved); err != nil {
		return fmt.Errorf("view: corrupt %s: %w", m.viewsPath(), err)
	}
	for _, sv := range saved {
		d, err := compile(sv.Query)
		if err != nil {
			return fmt.Errorf("view: persisted view %q: %w", sv.Name, err)
		}
		v := &view{
			name:  sv.Name,
			query: sv.Query,
			def:   d,
			pos:   m.pos,
			floor: m.pos,
		}
		if sv.Epoch == m.pos.Epoch && sv.Offset == m.pos.Offset && m.adopt(v, sv) {
			m.views[sv.Name] = v
			continue
		}
		m.recomputeLocked(v, m.pos, nil, nil)
		// Restoration is not a change: the journal starts empty.
		v.journal, v.jbytes, v.floor = nil, 0, v.pos
		m.views[sv.Name] = v
	}
	return nil
}

// adopt installs a clean-shutdown snapshot, rebuilding the relation form
// from the persisted tuples. A count view, whose counters are not saved, and
// any mismatch with the current schema report false and the caller
// recomputes instead.
func (m *Manager) adopt(v *view, sv savedView) bool {
	if v.def.kind == kindCount || len(sv.Items) != len(sv.Signs) {
		return false
	}
	return m.store.ReadLocked(func(db *catalog.Database) error {
		src, err := db.Relation(v.def.source)
		if err != nil {
			return err
		}
		rel := core.NewRelation(v.name, src.Schema())
		for i, item := range sv.Items {
			if err := rel.Insert(core.Item(item), sv.Signs[i]); err != nil {
				return err
			}
		}
		v.rel, v.domains = rel, domainsOf(src.Schema())
		return nil
	}) == nil
}

func sortedKeys(m map[string]*view) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
