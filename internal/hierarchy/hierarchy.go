// Package hierarchy implements the per-domain class hierarchies of
// Jagadish's hierarchical relational model (SIGMOD '89, §2.1).
//
// A Hierarchy is a rooted directed acyclic graph. The root is the domain
// itself; internal nodes are classes; instances are leaves (we follow the
// paper in treating an instance as a singleton class when convenient).
// Membership is transitive: x ∈ C iff there is a directed path C → x.
//
// Two kinds of edges exist:
//
//   - is-a edges, which denote set inclusion and define membership; and
//   - preference edges (appendix of the paper), which do NOT denote set
//     inclusion but participate in tuple binding, letting one class's
//     assertions preempt another's.
//
// The paper's default (off-path) preemption semantics assume the is-a graph
// is irredundant (a transitive reduction). Redundant edges are nevertheless
// meaningful in the model — they weaken preemption — so AddEdge permits them
// and Irredundant/StripRedundant let callers enforce the default.
package hierarchy

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hrdb/internal/dag"
)

// Sentinel errors reported by hierarchy operations.
var (
	// ErrDuplicate indicates that a node with the given name already exists.
	ErrDuplicate = errors.New("hierarchy: duplicate node name")
	// ErrUnknown indicates that a referenced node does not exist.
	ErrUnknown = errors.New("hierarchy: unknown node")
	// ErrCycle indicates that an edge would create a cycle (the paper's
	// type-irredundancy constraint, §3.1).
	ErrCycle = errors.New("hierarchy: edge would create a cycle")
	// ErrInstanceParent indicates an attempt to give children to an
	// instance (instances are leaves).
	ErrInstanceParent = errors.New("hierarchy: instances cannot have children")
	// ErrEmptyName indicates a node with an empty name.
	ErrEmptyName = errors.New("hierarchy: empty node name")
)

// Hierarchy is a named, rooted DAG of classes and instances. The zero value
// is not usable; call New.
//
// A hierarchy that is not being mutated is safe for concurrent readers: the
// lazily built derived structures (the binding graph and its irredundancy
// flag) are published atomically and built under a mutex. Mutation is
// single-writer with no concurrent readers, as with the dag package.
type Hierarchy struct {
	domain   string
	isa      *dag.Graph
	ids      map[string]int
	names    []string
	instance []bool
	root     int
	prefs    [][2]int // preference edges: weaker → stronger (binding only)

	// gen counts mutations; the core package folds it into verdict-cache
	// stamps so cached evaluations are fenced against hierarchy edits.
	gen atomic.Uint64

	// bindMu serializes lazy builds of the derived state below.
	bindMu sync.Mutex
	// bind is the is-a graph plus preference edges, built lazily.
	bind atomic.Pointer[dag.Graph]
	// bindIrr caches BindingIrredundant: 0 unknown, 1 true, -1 false.
	bindIrr atomic.Int32
}

// invalidate drops the lazily derived state and bumps the mutation
// generation; called by every mutating operation.
func (h *Hierarchy) invalidate() {
	h.bind.Store(nil)
	h.bindIrr.Store(0)
	h.gen.Add(1)
}

// Generation returns a counter incremented by every mutation of the
// hierarchy (nodes, edges, preferences). Callers that memoize results
// derived from the hierarchy can use it as a cheap validity fence.
func (h *Hierarchy) Generation() uint64 { return h.gen.Load() }

// Warm eagerly builds the lazily derived structures — the binding graph,
// the reachability index of each graph, and the irredundancy flag — so that
// a following fan-out of concurrent readers shares them instead of
// duplicating the work. Without preferences the binding graph is the is-a
// graph, so one index is built. No-op when already warm.
func (h *Hierarchy) Warm() {
	h.isa.Warm()
	h.bindGraph().Warm()
	h.BindingIrredundant()
}

// IndexWarm reports whether the is-a graph's subsumption index (the dag
// compressed closure) is currently built, i.e. whether Subsumes is a span
// compare rather than a graph walk. The query planner uses this as its
// label-index-warmth cost signal.
func (h *Hierarchy) IndexWarm() bool { return h.isa.LabelsWarm() }

// New creates a hierarchy whose root class is the domain itself.
func New(domain string) *Hierarchy {
	h := &Hierarchy{
		domain: domain,
		isa:    dag.New(),
		ids:    map[string]int{},
	}
	h.root = h.isa.AddNode()
	h.ids[domain] = h.root
	h.names = append(h.names, domain)
	h.instance = append(h.instance, false)
	return h
}

// Domain returns the domain (root class) name.
func (h *Hierarchy) Domain() string { return h.domain }

// Has reports whether name is a node of the hierarchy.
func (h *Hierarchy) Has(name string) bool {
	_, ok := h.ids[name]
	return ok
}

// IsInstance reports whether name is an instance (leaf by construction).
func (h *Hierarchy) IsInstance(name string) bool {
	id, ok := h.ids[name]
	return ok && h.instance[id]
}

// Len returns the number of nodes, including the root.
func (h *Hierarchy) Len() int { return h.isa.Len() }

// Nodes returns all node names, sorted.
func (h *Hierarchy) Nodes() []string {
	out := make([]string, 0, len(h.ids))
	for name := range h.ids {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// addNode inserts a node under the given parents (default: the root).
func (h *Hierarchy) addNode(name string, isInstance bool, parents []string) error {
	if name == "" {
		return ErrEmptyName
	}
	if _, ok := h.ids[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	pids := make([]int, 0, len(parents))
	if len(parents) == 0 {
		pids = append(pids, h.root)
	}
	for _, p := range parents {
		pid, ok := h.ids[p]
		if !ok {
			return fmt.Errorf("%w: parent %q", ErrUnknown, p)
		}
		if h.instance[pid] {
			return fmt.Errorf("%w: parent %q", ErrInstanceParent, p)
		}
		pids = append(pids, pid)
	}
	id := h.isa.AddNode()
	h.ids[name] = id
	h.names = append(h.names, name)
	h.instance = append(h.instance, isInstance)
	for _, pid := range pids {
		if err := h.isa.AddEdge(pid, id); err != nil {
			// Cannot happen: the new node has no outgoing edges.
			return err
		}
	}
	h.invalidate()
	return nil
}

// AddClass creates a class under the given parent classes. With no parents
// the class is placed directly under the domain root.
func (h *Hierarchy) AddClass(name string, parents ...string) error {
	return h.addNode(name, false, parents)
}

// AddInstance creates an instance (leaf) under the given parent classes.
// With no parents the instance is placed directly under the domain root.
func (h *Hierarchy) AddInstance(name string, parents ...string) error {
	return h.addNode(name, true, parents)
}

// AddEdge records that child is additionally a member/subclass of parent
// (multiple inheritance). Redundant edges are permitted — they are
// semantically meaningful under the paper's preemption rules — but can be
// detected with Irredundant and removed with StripRedundant.
func (h *Hierarchy) AddEdge(parent, child string) error {
	pid, ok := h.ids[parent]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, parent)
	}
	cid, ok := h.ids[child]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, child)
	}
	if h.instance[pid] {
		return fmt.Errorf("%w: parent %q", ErrInstanceParent, parent)
	}
	// The edge must keep the binding graph acyclic too: a preference edge
	// installed earlier may already make parent reachable from child there,
	// and a later rebuild of the binding graph must never hit a cycle.
	if len(h.prefs) > 0 && h.bindGraph().HasPath(cid, pid) {
		return fmt.Errorf("%w: %q → %q (via preference edges)", ErrCycle, parent, child)
	}
	if err := h.isa.AddEdge(pid, cid); err != nil {
		if errors.Is(err, dag.ErrCycle) {
			return fmt.Errorf("%w: %q → %q", ErrCycle, parent, child)
		}
		return err
	}
	h.invalidate()
	return nil
}

// Prefer installs a preference edge making assertions on stronger preempt
// assertions on weaker wherever both apply (paper appendix). The edge is
// used only for tuple binding, never for membership. It must not create a
// cycle in the binding graph.
func (h *Hierarchy) Prefer(stronger, weaker string) error {
	sid, ok := h.ids[stronger]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, stronger)
	}
	wid, ok := h.ids[weaker]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, weaker)
	}
	// Binding edges run general → specific, so "weaker → stronger" makes
	// the stronger node reachable from the weaker one; the edge closes a
	// cycle iff the stronger node already reaches the weaker one. The check
	// only reads the binding graph, which may be the is-a graph itself.
	if sid == wid || h.bindGraph().HasPath(sid, wid) {
		return fmt.Errorf("%w: preference %q over %q", ErrCycle, stronger, weaker)
	}
	h.prefs = append(h.prefs, [2]int{wid, sid})
	// Force a rebuild so the preference-induced transitive reduction runs.
	h.invalidate()
	return nil
}

// Preferences returns the preference edges as (stronger, weaker) name pairs
// in insertion order.
func (h *Hierarchy) Preferences() [][2]string {
	out := make([][2]string, 0, len(h.prefs))
	for _, p := range h.prefs {
		out = append(out, [2]string{h.names[p[1]], h.names[p[0]]})
	}
	return out
}

// HasPreferences reports whether any preference edge is installed, so that
// binding order may differ from is-a order.
func (h *Hierarchy) HasPreferences() bool { return len(h.prefs) > 0 }

// bindGraph returns the is-a graph plus preference edges (lazily built).
// Without preferences that is the is-a graph itself, shared rather than
// cloned, so one reachability index serves membership and binding; callers
// must only read it.
//
// The paper's appendix says that after preference edges are introduced "the
// semantics of off-path preemption apply", and off-path preemption requires
// an irredundant graph. So any is-a edge that a preference edge makes
// transitively redundant is dropped from the binding graph — this is
// exactly what lets the preferred class preempt the dispreferred one.
// Is-a edges that were already redundant before preferences are kept: the
// appendix treats deliberately redundant links as meaningful (they weaken
// preemption), and membership is never affected either way.
func (h *Hierarchy) bindGraph() *dag.Graph {
	if bg := h.bind.Load(); bg != nil {
		return bg
	}
	h.bindMu.Lock()
	defer h.bindMu.Unlock()
	if bg := h.bind.Load(); bg != nil {
		return bg
	}
	if len(h.prefs) == 0 {
		h.bind.Store(h.isa)
		return h.isa
	}
	bg := h.isa.Clone()
	for _, p := range h.prefs {
		if err := bg.AddEdge(p[0], p[1]); err != nil {
			// Preference edges were validated when installed.
			panic(err)
		}
	}
	for _, e := range h.isa.Edges() {
		if bg.IsRedundantEdge(e[0], e[1]) && !h.isa.IsRedundantEdge(e[0], e[1]) {
			bg.RemoveEdge(e[0], e[1])
		}
	}
	h.bind.Store(bg)
	return bg
}

// BindChildren returns the direct successors of name in the binding graph
// (is-a children plus nodes this one is dispreferred to), sorted.
func (h *Hierarchy) BindChildren(name string) []string {
	id, err := h.id(name)
	if err != nil {
		return nil
	}
	return h.namesOf(h.bindGraph().Succ(id))
}

// BindParents returns the direct predecessors of name in the binding graph,
// sorted.
func (h *Hierarchy) BindParents(name string) []string {
	id, err := h.id(name)
	if err != nil {
		return nil
	}
	return h.namesOf(h.bindGraph().Pred(id))
}

// BindReachSet returns the set of node ids reachable from name in the
// binding graph (including name itself), for bulk subsumption checks. The
// set describes the hierarchy as of the call.
func (h *Hierarchy) BindReachSet(name string) (dag.Set, bool) {
	set, err := h.bindGraph().Reach(h.IDOf(name))
	return set, err == nil
}

// BindAncestorIDs is AncestorIDs over the binding graph.
func (h *Hierarchy) BindAncestorIDs(id int) []int { return h.bindGraph().Ancestors(id) }

// BindingIrredundant reports whether the binding graph (is-a plus preference
// edges) is a transitive reduction. When true, the fast minimal-applicable
// evaluation path of the core package coincides with the paper's tuple-
// binding-graph construction. The result is cached until the next mutation.
func (h *Hierarchy) BindingIrredundant() bool {
	if v := h.bindIrr.Load(); v != 0 {
		return v > 0
	}
	bg := h.bindGraph()
	irr := true
	for _, e := range bg.Edges() {
		if bg.IsRedundantEdge(e[0], e[1]) {
			irr = false
			break
		}
	}
	// Concurrent callers may race to store the same value; that is benign
	// because the computation is a pure read of the (stable) binding graph.
	if irr {
		h.bindIrr.Store(1)
	} else {
		h.bindIrr.Store(-1)
	}
	return irr
}

// id returns the node id for name.
func (h *Hierarchy) id(name string) (int, error) {
	id, ok := h.ids[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return id, nil
}

// MustID is like id but panics on unknown names; used by trusted internal
// callers that have already validated the name.
func (h *Hierarchy) MustID(name string) int {
	id, ok := h.ids[name]
	if !ok {
		panic(fmt.Sprintf("hierarchy: unknown node %q", name))
	}
	return id
}

// IDOf returns the node id of name, or -1 when name is not a node. The
// id-level methods (SubsumesID, OverlapsID, LeafIDs, BindSubsumesID) treat
// -1 as the string methods treat an unknown name: it never subsumes,
// overlaps or expands to anything.
func (h *Hierarchy) IDOf(name string) int {
	if id, ok := h.ids[name]; ok {
		return id
	}
	return -1
}

// IDLimit returns one more than the largest node id ever allocated.
func (h *Hierarchy) IDLimit() int { return h.isa.MaxID() }

// NameOf returns the name of a node id (inverse of MustID). Ids that do not
// name a live node — negative, never allocated, or removed — return "",
// matching the "unknown names never subsume" convention used elsewhere.
func (h *Hierarchy) NameOf(id int) string {
	if id < 0 || id >= len(h.names) || !h.isa.Has(id) {
		return ""
	}
	return h.names[id]
}

// Subsumes reports whether ancestor subsumes descendant: they are equal or
// there is a directed is-a path ancestor → descendant. Unknown names never
// subsume anything.
func (h *Hierarchy) Subsumes(ancestor, descendant string) bool {
	return h.SubsumesID(h.IDOf(ancestor), h.IDOf(descendant))
}

// SubsumesID is Subsumes by node id.
func (h *Hierarchy) SubsumesID(ancestor, descendant int) bool {
	return h.isa.HasPath(ancestor, descendant)
}

// StrictlySubsumes reports ancestor ⊐ descendant (subsumes and not equal).
func (h *Hierarchy) StrictlySubsumes(ancestor, descendant string) bool {
	return ancestor != descendant && h.Subsumes(ancestor, descendant)
}

// BindSubsumes is Subsumes computed over the binding graph (is-a plus
// preference edges). Used for tuple binding, never for membership.
func (h *Hierarchy) BindSubsumes(ancestor, descendant string) bool {
	return h.BindSubsumesID(h.IDOf(ancestor), h.IDOf(descendant))
}

// BindSubsumesID is BindSubsumes by node id.
func (h *Hierarchy) BindSubsumesID(ancestor, descendant int) bool {
	return h.bindGraph().HasPath(ancestor, descendant)
}

// Parents returns the direct is-a parents of name, sorted.
func (h *Hierarchy) Parents(name string) []string {
	id, err := h.id(name)
	if err != nil {
		return nil
	}
	return h.namesOf(h.isa.Pred(id))
}

// Children returns the direct is-a children of name, sorted.
func (h *Hierarchy) Children(name string) []string {
	id, err := h.id(name)
	if err != nil {
		return nil
	}
	return h.namesOf(h.isa.Succ(id))
}

// AncestorIDs returns the ids of every strict ancestor of id, ascending;
// nil when id names no live node. The slice is shared: do not modify it.
func (h *Hierarchy) AncestorIDs(id int) []int { return h.isa.Ancestors(id) }

// Reach is BindReach over the is-a graph: the ids id subsumes, itself
// included; empty when id names no live node.
func (h *Hierarchy) Reach(id int) dag.Set {
	set, _ := h.isa.Reach(id)
	return set
}

// Leaves returns the leaf nodes subsumed by name (name itself if it is a
// leaf), sorted. These are the atomic elements the class expands to under
// explication (§3.3.2).
func (h *Hierarchy) Leaves(name string) []string {
	leaves := h.LeafIDs(h.IDOf(name), nil)
	if len(leaves) == 0 {
		return nil
	}
	return h.namesOf(leaves)
}

// LeafIDs is Leaves by node id: it appends the ids of the leaves under id to
// dst, ascending, and returns the extended slice.
func (h *Hierarchy) LeafIDs(id int, dst []int) []int { return h.isa.LeavesUnder(id, dst) }

// AllLeaves returns every leaf of the hierarchy, sorted.
func (h *Hierarchy) AllLeaves() []string { return h.Leaves(h.domain) }

// IsLeaf reports whether name has no is-a children.
func (h *Hierarchy) IsLeaf(name string) bool { return h.isa.IsLeaf(h.IDOf(name)) }

// Overlaps reports whether the classes a and b can share members: one
// subsumes the other, or they have a common descendant. This is the
// "optimistic" overlap evidence of §3.1 — two classes are assumed disjoint
// unless the hierarchy proves otherwise.
func (h *Hierarchy) Overlaps(a, b string) bool { return h.OverlapsID(h.IDOf(a), h.IDOf(b)) }

// OverlapsID is Overlaps by node id.
func (h *Hierarchy) OverlapsID(a, b int) bool { return h.isa.Overlap(a, b) }

// OverlapRegion returns every node n with Overlaps(n, name): the nodes at or
// below name, and every ancestor of one of those. It walks the hierarchy
// from name instead of testing candidates, so its cost follows the region,
// not the number of values a caller would otherwise test one by one.
//
// ok is false, with nothing enumerated, when more than maxBelow nodes sit at
// or below name (or name is unknown): the region is at least that large, and
// a caller holding fewer candidates than that does better calling Overlaps
// on each.
func (h *Hierarchy) OverlapRegion(name string, maxBelow int) (region []string, ok bool) {
	id, err := h.id(name)
	if err != nil {
		return nil, false
	}
	ids, ok := h.isa.OverlapRegion(id, maxBelow)
	if !ok {
		return nil, false
	}
	region = make([]string, len(ids))
	for i, n := range ids {
		region[i] = h.names[n]
	}
	return region, true
}

// Meets returns the maximal common descendants of a and b: if one subsumes
// the other the result is the more specific of the two; otherwise it is the
// set of nodes subsumed by both and subsumed by no other such node. This is
// the per-attribute building block of the paper's complete/minimal conflict
// resolution sets (§3.1). The result is empty iff a and b do not overlap.
func (h *Hierarchy) Meets(a, b string) []string {
	if h.Subsumes(a, b) {
		return []string{b}
	}
	if h.Subsumes(b, a) {
		return []string{a}
	}
	aid, ok := h.ids[a]
	if !ok {
		return nil
	}
	bid, ok := h.ids[b]
	if !ok {
		return nil
	}
	common := h.isa.MaximalCommon(aid, bid)
	if len(common) == 0 {
		return nil
	}
	return h.namesOf(common)
}

// Irredundant reports whether the is-a graph is a transitive reduction
// (the precondition for the paper's off-path preemption semantics).
func (h *Hierarchy) Irredundant() bool {
	for _, e := range h.isa.Edges() {
		if h.isa.IsRedundantEdge(e[0], e[1]) {
			return false
		}
	}
	return true
}

// RedundantEdges returns the transitively redundant is-a edges as
// (parent, child) name pairs, deterministic order.
func (h *Hierarchy) RedundantEdges() [][2]string {
	var out [][2]string
	for _, e := range h.isa.Edges() {
		if h.isa.IsRedundantEdge(e[0], e[1]) {
			out = append(out, [2]string{h.names[e[0]], h.names[e[1]]})
		}
	}
	return out
}

// StripRedundant removes all transitively redundant is-a edges, restoring
// the transitive reduction the paper's default semantics assume.
func (h *Hierarchy) StripRedundant() error {
	if err := h.isa.TransitiveReduction(); err != nil {
		return err
	}
	h.invalidate()
	return nil
}

// ErrHasChildren indicates an attempt to remove a node that still has
// children.
var ErrHasChildren = errors.New("hierarchy: node still has children")

// ErrIsRoot indicates an attempt to remove the domain root.
var ErrIsRoot = errors.New("hierarchy: cannot remove the domain root")

// RemoveLeaf removes a childless node (class or instance) together with
// its incoming edges and any preference edges touching it. Nodes with
// children must be emptied first; the root cannot be removed. The caller
// (the catalog layer) is responsible for checking that no relation tuple
// references the node.
func (h *Hierarchy) RemoveLeaf(name string) error {
	id, ok := h.ids[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	if id == h.root {
		return fmt.Errorf("%w: %q", ErrIsRoot, name)
	}
	if len(h.isa.Succ(id)) > 0 {
		return fmt.Errorf("%w: %q", ErrHasChildren, name)
	}
	h.isa.RemoveNode(id)
	delete(h.ids, name)
	// Drop preference edges touching the node.
	kept := h.prefs[:0]
	for _, p := range h.prefs {
		if p[0] != id && p[1] != id {
			kept = append(kept, p)
		}
	}
	h.prefs = kept
	h.invalidate()
	return nil
}

// TopoIndex returns a map from node name to its position in a deterministic
// topological order of the binding graph (general classes first). Items can
// be sorted most-specific-last using these indices.
func (h *Hierarchy) TopoIndex() map[string]int {
	order, err := h.bindGraph().Topo()
	if err != nil {
		// The binding graph is acyclic by construction.
		panic(err)
	}
	out := make(map[string]int, len(order))
	for i, id := range order {
		out[h.names[id]] = i
	}
	return out
}

// Graph returns a clone of the is-a graph together with the id→name mapping,
// for callers (such as the explicit product-graph construction in tests and
// the on-path evaluator) that need raw graph access.
func (h *Hierarchy) Graph() (*dag.Graph, func(int) string) {
	return h.isa.Clone(), func(id int) string { return h.names[id] }
}

// BindingGraphClone returns a clone of the binding graph (is-a plus
// preference edges) with the id→name mapping.
func (h *Hierarchy) BindingGraphClone() (*dag.Graph, func(int) string) {
	return h.bindGraph().Clone(), func(id int) string { return h.names[id] }
}

// DOT renders the is-a graph in Graphviz syntax.
func (h *Hierarchy) DOT() string {
	return h.isa.DOT(h.domain, func(id int) string { return h.names[id] })
}

func (h *Hierarchy) namesOf(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = h.names[id]
	}
	sort.Strings(out)
	return out
}
