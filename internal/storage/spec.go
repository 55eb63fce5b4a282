// Package storage persists hierarchical relational databases: versioned,
// checksummed binary snapshots plus an append-only operation log (WAL) with
// crash recovery. Together with the catalog package it turns the in-memory
// model of the paper into a durable store.
package storage

import (
	"errors"
	"fmt"
	"sort"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/hierarchy"
)

// ErrCorrupt indicates a snapshot or log whose checksum, magic, or
// structure is invalid.
var ErrCorrupt = errors.New("storage: corrupt data")

// ErrVersion indicates an unsupported format version.
var ErrVersion = errors.New("storage: unsupported format version")

// NodeSpec describes one hierarchy node: its direct parents (possibly
// including deliberately redundant edges) and whether it is an instance.
type NodeSpec struct {
	Name     string
	Instance bool
	Parents  []string
}

// HierarchySpec is the serializable form of a hierarchy.
type HierarchySpec struct {
	Domain string
	// Nodes are listed in a topological order (parents before children).
	Nodes []NodeSpec
	// Prefs are (stronger, weaker) preference pairs.
	Prefs [][2]string
}

// TupleSpec is one signed tuple.
type TupleSpec struct {
	Item []string
	Sign bool
}

// RelationAttr names one relation attribute and its domain.
type RelationAttr struct {
	Name   string
	Domain string
}

// RelationSpec is the serializable form of a relation.
type RelationSpec struct {
	Name   string
	Attrs  []RelationAttr
	Mode   int
	Tuples []TupleSpec
}

// DatabaseSpec is the serializable form of a whole database.
type DatabaseSpec struct {
	Policy      int
	Hierarchies []HierarchySpec
	Relations   []RelationSpec
	// LogEpoch names the WAL generation this snapshot supersedes: recovery
	// replays only wal file of this epoch. Zero (also the value decoded
	// from pre-epoch snapshots) selects the legacy "wal.log" name.
	LogEpoch uint64
	// PrimaryTerm is the monotonic fencing term under which this state was
	// written (see Store.Term). It rises by one per failover promotion and
	// never falls; a node holding a lower term than its peers has been
	// deposed and must not accept writes. Zero on pre-term snapshots.
	PrimaryTerm uint64
	// TakeoverEpoch/TakeoverOffset record, on a store materialized by a
	// replica's promotion, the replication position (in the *previous*
	// primary's epoch numbering) up to which the promoting replica had
	// applied. A deposed primary rejoining uses it as the divergence point:
	// everything in its own WAL past this position was never replicated and
	// is quarantined rather than silently discarded. Zero on stores that
	// were never promoted from a replica.
	TakeoverEpoch  uint64
	TakeoverOffset int64
}

// SnapshotHierarchy converts a hierarchy to its spec.
func SnapshotHierarchy(h *hierarchy.Hierarchy) HierarchySpec {
	spec := HierarchySpec{Domain: h.Domain()}
	for _, n := range h.TopoNodes() {
		if n == h.Domain() {
			continue
		}
		spec.Nodes = append(spec.Nodes, NodeSpec{
			Name:     n,
			Instance: h.IsInstance(n),
			Parents:  h.Parents(n),
		})
	}
	spec.Prefs = h.Preferences()
	return spec
}

// BuildHierarchy reconstructs a hierarchy from its spec.
func BuildHierarchy(spec HierarchySpec) (*hierarchy.Hierarchy, error) {
	h := hierarchy.New(spec.Domain)
	for _, n := range spec.Nodes {
		var err error
		if n.Instance {
			err = h.AddInstance(n.Name, n.Parents...)
		} else {
			err = h.AddClass(n.Name, n.Parents...)
		}
		if err != nil {
			return nil, fmt.Errorf("storage: rebuild hierarchy %q: %w", spec.Domain, err)
		}
	}
	for _, p := range spec.Prefs {
		if err := h.Prefer(p[0], p[1]); err != nil {
			return nil, fmt.Errorf("storage: rebuild hierarchy %q: %w", spec.Domain, err)
		}
	}
	return h, nil
}

// SnapshotRelation converts a relation to its spec.
func SnapshotRelation(r *core.Relation) RelationSpec {
	s := r.Schema()
	spec := RelationSpec{Name: r.Name(), Mode: int(r.Mode())}
	for i := 0; i < s.Arity(); i++ {
		a := s.Attr(i)
		spec.Attrs = append(spec.Attrs, RelationAttr{Name: a.Name, Domain: a.Domain.Domain()})
	}
	for _, t := range r.Tuples() {
		spec.Tuples = append(spec.Tuples, TupleSpec{Item: append([]string(nil), t.Item...), Sign: t.Sign})
	}
	return spec
}

// Fingerprint renders a database's logical state in a canonical form: the
// snapshot spec with every order-insensitive collection sorted and the
// physical LogEpoch zeroed. Two databases with equal fingerprints hold the
// same facts — the convergence check used by crash-recovery tests, the
// replication acceptance tests, and the replication benchmark.
func Fingerprint(db *catalog.Database) string {
	spec := SnapshotDatabase(db)
	// Physical/lineage details, not logical state: two replicas hold the
	// same facts regardless of which epoch, term, or takeover produced them.
	spec.LogEpoch = 0
	spec.PrimaryTerm = 0
	spec.TakeoverEpoch, spec.TakeoverOffset = 0, 0
	for i := range spec.Hierarchies {
		h := &spec.Hierarchies[i]
		for j := range h.Nodes {
			sort.Strings(h.Nodes[j].Parents)
		}
		sort.Slice(h.Nodes, func(a, b int) bool { return h.Nodes[a].Name < h.Nodes[b].Name })
		sort.Slice(h.Prefs, func(a, b int) bool {
			if h.Prefs[a][0] != h.Prefs[b][0] {
				return h.Prefs[a][0] < h.Prefs[b][0]
			}
			return h.Prefs[a][1] < h.Prefs[b][1]
		})
	}
	sort.Slice(spec.Hierarchies, func(a, b int) bool {
		return spec.Hierarchies[a].Domain < spec.Hierarchies[b].Domain
	})
	for i := range spec.Relations {
		r := &spec.Relations[i]
		sort.Slice(r.Tuples, func(a, b int) bool {
			return fmt.Sprint(r.Tuples[a]) < fmt.Sprint(r.Tuples[b])
		})
	}
	sort.Slice(spec.Relations, func(a, b int) bool {
		return spec.Relations[a].Name < spec.Relations[b].Name
	})
	return fmt.Sprintf("%+v", spec)
}

// SnapshotDatabase converts a whole database to its spec: one consistent
// cut, taken under the catalog's read lock.
func SnapshotDatabase(db *catalog.Database) DatabaseSpec {
	var spec DatabaseSpec
	db.ReadAll(func(p catalog.ExceptionPolicy, hs []*hierarchy.Hierarchy, rs []*core.Relation) {
		spec.Policy = int(p)
		for _, h := range hs {
			spec.Hierarchies = append(spec.Hierarchies, SnapshotHierarchy(h))
		}
		for _, r := range rs {
			spec.Relations = append(spec.Relations, SnapshotRelation(r))
		}
	})
	return spec
}

// BuildDatabase reconstructs a database from its spec.
func BuildDatabase(spec DatabaseSpec) (*catalog.Database, error) {
	// A policy, like a mode below, arrives as a bare number: refuse what no
	// writer stores rather than load a policy that acts as allow and that
	// DUMP cannot name.
	policy := catalog.ExceptionPolicy(spec.Policy)
	if policy < catalog.AllowExceptions || policy > catalog.ForbidExceptions {
		return nil, fmt.Errorf("%w: exception policy %d", ErrCorrupt, spec.Policy)
	}
	db := catalog.New()
	db.SetPolicy(policy)
	for _, hs := range spec.Hierarchies {
		h, err := BuildHierarchy(hs)
		if err != nil {
			return nil, err
		}
		if err := db.AttachHierarchy(h); err != nil {
			return nil, err
		}
	}
	for _, rs := range spec.Relations {
		// The one place a mode arrives as a bare number: refuse what no
		// writer stores, rather than fail on some later read.
		mode := core.Preemption(rs.Mode)
		if mode < core.OffPath || mode > core.NoPreemption {
			return nil, fmt.Errorf("%w: relation %q has preemption mode %d", ErrCorrupt, rs.Name, rs.Mode)
		}
		attrs := make([]catalog.AttrSpec, len(rs.Attrs))
		for i, a := range rs.Attrs {
			attrs[i] = catalog.AttrSpec{Name: a.Name, Domain: a.Domain}
		}
		r, err := db.CreateRelation(rs.Name, attrs...)
		if err != nil {
			return nil, err
		}
		r.SetMode(mode)
		for _, t := range rs.Tuples {
			if err := r.Insert(core.Item(t.Item), t.Sign); err != nil {
				return nil, fmt.Errorf("storage: rebuild relation %q: %w", rs.Name, err)
			}
		}
	}
	return db, nil
}
