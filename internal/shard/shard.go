// Package shard partitions a hierarchical-relational database horizontally
// across N primaries while keeping every query semantically identical to a
// single-node database.
//
// The partitioning rule exploits the hierarchy model's own structure. The
// catalog — hierarchies, relation schemas, policies, modes — is replicated
// to every shard (every DDL statement broadcasts). Tuples split by the kind
// of values they carry:
//
//   - A local tuple has an instance at every coordinate. Instances are
//     enforced leaves of their hierarchies, so an instance value subsumes
//     only itself: a local tuple can bind only the one item equal to it.
//     Local tuples hash to a home shard by relation name and item key.
//   - A global tuple has at least one class coordinate. It is replicated to
//     every shard (writes go through two-phase commit).
//
// This placement makes per-shard evaluation exact. Any binder of a
// class-containing query item must itself contain classes (an instance
// cannot subsume a class), so it is global and present on every shard; any
// binder of an all-instance query item is either the identical local tuple
// (on its home shard) or global (everywhere). Either way the home shard of
// the query item sees every applicable tuple, so keyed HOLDS/WHY route to
// one shard, selections scatter and merge without cross-shard conflict
// resolution, and per-shard CONSOLIDATE removes exactly the globally
// redundant tuples.
//
// The one operation the invariant cannot distribute is EXPLICATE, which
// rewrites class tuples into their instance extensions — turning global
// tuples into local ones that would then live on the wrong shard. The
// coordinator rejects it on clusters with more than one shard.
package shard

import (
	"hash/fnv"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

// HomeShard returns the shard owning a local tuple of the relation: FNV-1a
// over the relation name, 0x1f and the item key, reduced modulo the shard
// count.
// Keyed reads use the same function for all-instance items; class-containing
// items are answerable on any shard, so hashing them too is harmless and
// spreads the read load.
func HomeShard(rel string, values []string, count int) int {
	if count <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(rel + "\x1f" + core.Item(values).Key()))
	return int(h.Sum32() % uint32(count))
}

// Placement classifies a keyed write against the catalog: local (every
// value is a hierarchy instance in its attribute's domain) or global. The
// relation must exist in the given catalog; values of the wrong arity or
// outside their domains classify as global, so the resulting broadcast
// surfaces the same validation error every shard would produce.
func Placement(db *catalog.Database, rel string, values []string) (local bool, err error) {
	r, err := db.Relation(rel)
	if err != nil {
		return false, err
	}
	s := r.Schema()
	if len(values) != s.Arity() {
		return false, nil
	}
	for i, v := range values {
		h := s.Attr(i).Domain
		if !h.Has(v) || !h.IsInstance(v) {
			return false, nil
		}
	}
	return true, nil
}
