// Package catalog provides the database layer of the hierarchical
// relational model: a synchronized registry of named hierarchies and
// relations, the exception policies of §2.1 of the paper (a front end may
// freely permit exceptions, issue warnings, or prevent them), and
// transactions whose commit enforces the ambiguity constraint of §3.1 —
// "whenever an update is made we require that the update does not create an
// unresolved conflict; if an update creates a conflict, within the same
// transaction, before the update is committed, other updates must be made
// that resolve the conflict."
package catalog

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"hrdb/internal/core"
	"hrdb/internal/hierarchy"
)

// Sentinel errors of the catalog package.
var (
	// ErrExists indicates a duplicate hierarchy or relation name.
	ErrExists = errors.New("catalog: already exists")
	// ErrNotFound indicates a missing hierarchy or relation.
	ErrNotFound = errors.New("catalog: not found")
	// ErrExceptionForbidden indicates an update that would override an
	// inherited value while the policy is ForbidExceptions.
	ErrExceptionForbidden = errors.New("catalog: exception forbidden by policy")
	// ErrTxDone indicates use of a committed or rolled-back transaction.
	ErrTxDone = errors.New("catalog: transaction already finished")
)

// ExceptionPolicy selects how the database treats updates that override an
// inherited value (§2.1).
type ExceptionPolicy int

const (
	// AllowExceptions freely permits exceptions (the default).
	AllowExceptions ExceptionPolicy = iota
	// WarnExceptions permits exceptions but records a warning for each.
	WarnExceptions
	// ForbidExceptions rejects any update that contradicts an inherited
	// value — turning generalizations into hard integrity constraints.
	ForbidExceptions
)

// String names the policy.
func (p ExceptionPolicy) String() string {
	switch p {
	case AllowExceptions:
		return "allow"
	case WarnExceptions:
		return "warn"
	case ForbidExceptions:
		return "forbid"
	default:
		return fmt.Sprintf("ExceptionPolicy(%d)", int(p))
	}
}

// Database is a synchronized collection of hierarchies and hierarchical
// relations with integrity enforcement. The zero value is not usable; call
// New.
type Database struct {
	mu          sync.RWMutex
	hierarchies map[string]*hierarchy.Hierarchy
	relations   map[string]*core.Relation
	policy      ExceptionPolicy
	warnings    []string
}

// New creates an empty database with AllowExceptions policy.
func New() *Database {
	return &Database{
		hierarchies: map[string]*hierarchy.Hierarchy{},
		relations:   map[string]*core.Relation{},
	}
}

// SetPolicy selects the exception policy for subsequent updates.
func (db *Database) SetPolicy(p ExceptionPolicy) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.policy = p
}

// Policy returns the current exception policy.
func (db *Database) Policy() ExceptionPolicy {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.policy
}

// Warnings returns and clears the accumulated exception warnings.
func (db *Database) Warnings() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	w := db.warnings
	db.warnings = nil
	return w
}

// CreateHierarchy registers a new domain hierarchy and returns it.
func (db *Database) CreateHierarchy(domain string) (*hierarchy.Hierarchy, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.hierarchies[domain]; ok {
		return nil, fmt.Errorf("%w: hierarchy %q", ErrExists, domain)
	}
	h := hierarchy.New(domain)
	db.hierarchies[domain] = h
	return h, nil
}

// AttachHierarchy registers an externally built hierarchy (used by the
// storage package during recovery).
func (db *Database) AttachHierarchy(h *hierarchy.Hierarchy) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.hierarchies[h.Domain()]; ok {
		return fmt.Errorf("%w: hierarchy %q", ErrExists, h.Domain())
	}
	db.hierarchies[h.Domain()] = h
	return nil
}

// Hierarchy returns the named hierarchy.
func (db *Database) Hierarchy(domain string) (*hierarchy.Hierarchy, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	h, ok := db.hierarchies[domain]
	if !ok {
		return nil, fmt.Errorf("%w: hierarchy %q", ErrNotFound, domain)
	}
	return h, nil
}

// Hierarchies returns the registered domain names, sorted.
func (db *Database) Hierarchies() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.hierarchies))
	for d := range db.hierarchies {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// AttrSpec names one relation attribute and its domain hierarchy.
type AttrSpec struct {
	Name   string
	Domain string
}

// CreateRelation registers a new relation over previously created
// hierarchies.
func (db *Database) CreateRelation(name string, attrs ...AttrSpec) (*core.Relation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.relations[name]; ok {
		return nil, fmt.Errorf("%w: relation %q", ErrExists, name)
	}
	cattrs := make([]core.Attribute, len(attrs))
	for i, a := range attrs {
		h, ok := db.hierarchies[a.Domain]
		if !ok {
			return nil, fmt.Errorf("%w: hierarchy %q", ErrNotFound, a.Domain)
		}
		cattrs[i] = core.Attribute{Name: a.Name, Domain: h}
	}
	s, err := core.NewSchema(cattrs...)
	if err != nil {
		return nil, err
	}
	r := core.NewRelation(name, s)
	db.relations[name] = r
	return r, nil
}

// AttachRelation registers an externally built relation (storage recovery).
// Its schema's hierarchies must already be attached.
func (db *Database) AttachRelation(r *core.Relation) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.relations[r.Name()]; ok {
		return fmt.Errorf("%w: relation %q", ErrExists, r.Name())
	}
	db.relations[r.Name()] = r
	return nil
}

// DropRelation removes a relation.
func (db *Database) DropRelation(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.relations[name]; !ok {
		return fmt.Errorf("%w: relation %q", ErrNotFound, name)
	}
	delete(db.relations, name)
	return nil
}

// Relation returns the named live relation. Callers must not mutate it
// directly; use Assert/Deny/Retract or a transaction so integrity and
// policy checks run.
func (db *Database) Relation(name string) (*core.Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.relations[name]
	if !ok {
		return nil, fmt.Errorf("%w: relation %q", ErrNotFound, name)
	}
	return r, nil
}

// Relations returns the relation names, sorted.
func (db *Database) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.relations))
	for n := range db.relations {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns an isolated deep copy of a relation for lock-free
// reading.
func (db *Database) Snapshot(name string) (*core.Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.relations[name]
	if !ok {
		return nil, fmt.Errorf("%w: relation %q", ErrNotFound, name)
	}
	return r.Clone(), nil
}

// IndexStats returns the per-column secondary-index statistics of a
// relation (cardinality, distinct stored values, label-index warmth) — the
// inputs the algebra cost model plans from.
func (db *Database) IndexStats(name string) ([]core.IndexStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.relations[name]
	if !ok {
		return nil, fmt.Errorf("%w: relation %q", ErrNotFound, name)
	}
	return r.Stats(), nil
}

// WarmIndexes eagerly builds the O(1) subsumption label indexes of every
// hierarchy in the database, so a following query burst starts with warm
// indexes instead of paying the build inside its first scans. Typically
// called after a bulk load or on server start.
func (db *Database) WarmIndexes() {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, h := range db.hierarchies {
		h.Warm()
	}
}

// checkException applies the exception policy to an insertion, returning an
// error under ForbidExceptions and recording a warning under
// WarnExceptions. An exception is an update whose sign contradicts the
// item's currently inherited (non-default) value.
func (db *Database) checkException(r *core.Relation, item core.Item, sign bool) error {
	v, err := r.Evaluate(item)
	if err != nil {
		// The relation is already in conflict at this item; the insertion
		// itself may be the resolution, so let it through.
		return nil
	}
	if v.Default || v.Exact || v.Value == sign {
		return nil
	}
	switch db.policy {
	case ForbidExceptions:
		return fmt.Errorf("%w: %v with sign %v contradicts inherited value %v in %q",
			ErrExceptionForbidden, item, sign, v.Value, r.Name())
	case WarnExceptions:
		db.warnings = append(db.warnings,
			fmt.Sprintf("exception: %v asserted %v against inherited %v in %q",
				item, sign, v.Value, r.Name()))
	}
	return nil
}

// Assert inserts a positive tuple, enforcing the exception policy and the
// ambiguity constraint: if the insertion creates an unresolved conflict it
// is rolled back and the InconsistencyError returned (use a transaction to
// batch the update with its conflict resolution).
func (db *Database) Assert(rel string, values ...string) error {
	return db.update(rel, core.Item(values), true)
}

// Deny inserts a negated tuple under the same rules as Assert.
func (db *Database) Deny(rel string, values ...string) error {
	return db.update(rel, core.Item(values), false)
}

func (db *Database) update(rel string, item core.Item, sign bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.relations[rel]
	if !ok {
		return fmt.Errorf("%w: relation %q", ErrNotFound, rel)
	}
	if err := db.checkException(r, item, sign); err != nil {
		return err
	}
	verified := r.VerifiedConsistent()
	_, restated := r.Lookup(item) // Insert admits only the stored sign: a no-op, with nothing to undo
	if err := r.Insert(item, sign); err != nil {
		return err
	}
	if err := checkAfter(r, verified, item); err != nil {
		if !restated {
			r.Retract(item)
		}
		return err
	}
	return nil
}

// checkAfter enforces the ambiguity constraint on r after its tuples on the
// changed items were mutated. verified is r.VerifiedConsistent() as read
// before the first mutation: from a verified state the check covers only
// the region the changed items overlap; from any other (first write after a
// load, hierarchy surgery, a direct Relation mutation, a rolled-back batch)
// it is the full check. Either one, passing, verifies the new state.
func checkAfter(r *core.Relation, verified bool, changed ...core.Item) error {
	if verified {
		return r.CheckConsistencyUnder(changed)
	}
	return r.CheckConsistency()
}

// Retract removes the tuple on exactly the given item.
func (db *Database) Retract(rel string, values ...string) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.relations[rel]
	if !ok {
		return false, fmt.Errorf("%w: relation %q", ErrNotFound, rel)
	}
	item := core.Item(values)
	old, present := r.Lookup(item)
	if !present {
		return false, nil
	}
	verified := r.VerifiedConsistent()
	r.Retract(item)
	// A retraction can expose a previously resolved conflict (§3.2: a
	// conflict-resolving tuple cannot simply be removed).
	if err := checkAfter(r, verified, item); err != nil {
		if rerr := r.Insert(old.Item, old.Sign); rerr != nil {
			return false, rerr
		}
		return false, err
	}
	return true, nil
}

// Holds evaluates an atomic query under a read lock.
func (db *Database) Holds(rel string, values ...string) (bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.relations[rel]
	if !ok {
		return false, fmt.Errorf("%w: relation %q", ErrNotFound, rel)
	}
	return r.Holds(values...)
}

// Evaluate runs a full evaluation under a read lock.
func (db *Database) Evaluate(rel string, values ...string) (core.Verdict, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.relations[rel]
	if !ok {
		return core.Verdict{}, fmt.Errorf("%w: relation %q", ErrNotFound, rel)
	}
	return r.Evaluate(core.Item(values))
}

// EvaluateBatch bulk-evaluates many items against one relation under a
// single read lock, fanning the work across cores (core.EvaluateBatch).
// Writers are excluded for the duration of the batch, so the verdicts are a
// consistent snapshot.
func (db *Database) EvaluateBatch(ctx context.Context, rel string, items []core.Item, opts ...core.BatchOption) ([]core.Verdict, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.relations[rel]
	if !ok {
		return nil, fmt.Errorf("%w: relation %q", ErrNotFound, rel)
	}
	return r.EvaluateBatch(ctx, items, opts...)
}

// HoldsBatch is EvaluateBatch reduced to closed-world truth values.
func (db *Database) HoldsBatch(ctx context.Context, rel string, items []core.Item, opts ...core.BatchOption) ([]bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.relations[rel]
	if !ok {
		return nil, fmt.Errorf("%w: relation %q", ErrNotFound, rel)
	}
	return r.HoldsBatch(ctx, items, opts...)
}

// Consolidate replaces the named relation with its consolidated form and
// returns the number of tuples removed.
func (db *Database) Consolidate(rel string) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.relations[rel]
	if !ok {
		return 0, fmt.Errorf("%w: relation %q", ErrNotFound, rel)
	}
	c := r.Consolidate()
	removed := r.Len() - c.Len()
	db.relations[rel] = c
	return removed, nil
}

// ErrInUse indicates a hierarchy node referenced by stored tuples.
var ErrInUse = errors.New("catalog: node referenced by tuples")

// DropNode removes a childless hierarchy node after verifying no stored
// tuple references it — the referential-integrity side of schema
// evolution. (Removing a node only shrinks relation extensions; tuples
// that name it would dangle, so they must be retracted first.)
func (db *Database) DropNode(domain, name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	h, ok := db.hierarchies[domain]
	if !ok {
		return fmt.Errorf("%w: hierarchy %q", ErrNotFound, domain)
	}
	for _, rname := range db.relationNamesLocked() {
		r := db.relations[rname]
		s := r.Schema()
		for i := 0; i < s.Arity(); i++ {
			if s.Attr(i).Domain != h {
				continue
			}
			for _, t := range r.Tuples() {
				if t.Item[i] == name {
					return fmt.Errorf("%w: %q in relation %q", ErrInUse, name, rname)
				}
			}
		}
	}
	return h.RemoveLeaf(name)
}

// relationNamesLocked returns relation names sorted; caller holds db.mu.
func (db *Database) relationNamesLocked() []string {
	out := make([]string, 0, len(db.relations))
	for n := range db.relations {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetMode switches a relation's preemption semantics (paper appendix).
func (db *Database) SetMode(rel string, mode core.Preemption) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.relations[rel]
	if !ok {
		return fmt.Errorf("%w: relation %q", ErrNotFound, rel)
	}
	r.SetMode(mode)
	return nil
}

// Explicate replaces the named relation with its explication over the given
// attributes (all when none are named).
func (db *Database) Explicate(rel string, attrs ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.relations[rel]
	if !ok {
		return fmt.Errorf("%w: relation %q", ErrNotFound, rel)
	}
	e, err := r.Explicate(attrs...)
	if err != nil {
		return err
	}
	db.relations[rel] = e
	return nil
}
