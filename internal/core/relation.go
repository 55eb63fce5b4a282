// Package core implements the hierarchical relational model of
// H. V. Jagadish, "Incorporating Hierarchy in a Relational Model of Data"
// (SIGMOD 1989): relations whose attribute values may be classes drawn from
// per-domain hierarchies, with positive and negated tuples, inheritance with
// exceptions, conflict detection (the ambiguity constraint), and the two new
// operators the paper introduces, Consolidate and Explicate.
//
// Every hierarchical relation is equivalent to a unique flat relation — its
// extension — and all operations preserve that equivalence. Evaluate is the
// single source of truth for the model's semantics: it implements the
// paper's tuple-binding-graph rule under the three preemption semantics of
// the appendix (off-path, on-path, and no preemption).
package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"hrdb/internal/dag"
	"hrdb/internal/hierarchy"
)

// Attribute names one column of a relation and the hierarchy its values are
// drawn from.
type Attribute struct {
	Name   string
	Domain *hierarchy.Hierarchy
}

// Schema is an ordered list of attributes with unique names.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique and non-empty, and every attribute needs a domain hierarchy.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("%w: schema needs at least one attribute", ErrSchema)
	}
	s := &Schema{index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("%w: attribute %d has an empty name", ErrSchema, i)
		}
		if a.Domain == nil {
			return nil, fmt.Errorf("%w: attribute %q has no domain hierarchy", ErrSchema, a.Name)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate attribute %q", ErrSchema, a.Name)
		}
		s.index[a.Name] = i
		s.attrs = append(s.attrs, a)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests and
// examples with static schemas.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Names returns the attribute names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Equal reports whether two schemas have the same attribute names, in the
// same order, over the same hierarchy objects.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i].Name != o.attrs[i].Name || s.attrs[i].Domain != o.attrs[i].Domain {
			return false
		}
	}
	return true
}

// Item is one hierarchy node name per attribute, in schema order. A node may
// be a class (the paper's ∀C values) or an instance; an item whose every
// coordinate is a hierarchy leaf is atomic.
type Item []string

// Key returns a canonical map key for the item. Node names never contain
// the separator byte.
func (it Item) Key() string { return strings.Join(it, "\x1f") }

// CompareItems orders items exactly as strings.Compare orders their keys,
// without building either key. Where one name is a prefix of the other, the
// shorter key goes on with the separator, or ends.
func CompareItems(a, b Item) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		x, y := a[i], b[i]
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		switch {
		case len(x) < len(y):
			return keyGoesOn(i+1 < len(a), y[n])
		case len(x) > len(y):
			return -keyGoesOn(i+1 < len(b), x[n])
		}
	}
	return cmp.Compare(len(a), len(b))
}

// keyGoesOn compares a key that ended a name where the other key reads c.
func keyGoesOn(more bool, c byte) int {
	if !more {
		return -1
	}
	return cmp.Compare(0x1f, c)
}

// compareTuples is CompareItems on the tuples' items.
func compareTuples(a, b Tuple) int { return CompareItems(a.Item, b.Item) }

// Equal reports componentwise equality.
func (it Item) Equal(o Item) bool {
	if len(it) != len(o) {
		return false
	}
	for i := range it {
		if it[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the item.
func (it Item) Clone() Item { return append(Item(nil), it...) }

// Product returns every item whose i-th coordinate is drawn from perAttr[i],
// the last coordinate varying fastest; none when some coordinate has no value.
func Product(perAttr [][]string) []Item {
	var out []Item
	var rec func(prefix Item, i int)
	rec = func(prefix Item, i int) {
		if i == len(perAttr) {
			out = append(out, prefix.Clone())
			return
		}
		for _, n := range perAttr[i] {
			rec(append(prefix, n), i+1)
		}
	}
	rec(make(Item, 0, len(perAttr)), 0)
	return out
}

// String renders the item as (a, b, …).
func (it Item) String() string { return "(" + strings.Join(it, ", ") + ")" }

// Tuple is an item together with its truth value: Sign true for a positive
// (normal) tuple, false for a negated tuple (§2.1).
type Tuple struct {
	Item Item
	Sign bool
}

// String renders the tuple with a +/− prefix, classes marked ∀.
func (t Tuple) String() string {
	sign := "+"
	if !t.Sign {
		sign = "-"
	}
	return sign + " " + t.Item.String()
}

// Relation is a hierarchical relation: a set of signed tuples over a schema.
// Relations are safe for concurrent reads but not concurrent mutation; the
// catalog package provides a synchronized layer.
type Relation struct {
	name   string
	schema *Schema
	tuples map[string]Tuple
	mode   Preemption

	// idx[i] buckets tuple keys by their i-th attribute value (a posting
	// list per stored class), so Applicable and the algebra planner can
	// probe the buckets of a query coordinate's ancestors — or of the
	// values overlapping a selection region — instead of scanning every
	// tuple. Maintained by Insert/Retract under the relation epoch.
	idx []map[string][]string

	// epoch counts mutations (Insert/Retract/SetMode); what the relation
	// keeps per state is stamped with it so no post-mutation read can be
	// stale.
	epoch    uint64
	cacheOff bool

	// What the state determines, kept under its stamp (cache.go): verdicts
	// and answers in the table, and memoized, the extension as ids in
	// kernel order and the binding order.
	cache table
	ext   atomic.Pointer[memo[[]int]]
	order atomic.Pointer[memo[[]Tuple]]

	// verified is the stamp of the last state a consistency check passed
	// on; the catalog runs the delta check only from such a state. Atomic
	// because CheckConsistency is a read as far as callers are concerned.
	verified atomic.Pointer[cacheStamp]
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema *Schema) *Relation { return newRelation(name, schema, 0) }

// newRelation is NewRelation with room for n tuples.
func newRelation(name string, schema *Schema, n int) *Relation {
	idx := make([]map[string][]string, schema.Arity())
	for i := range idx {
		idx[i] = map[string][]string{}
	}
	return &Relation{
		name:   name,
		schema: schema,
		tuples: make(map[string]Tuple, n),
		mode:   OffPath,
		idx:    idx,
		cache:  table{budget: cacheBudget},
	}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of stored tuples (not the extension size).
func (r *Relation) Len() int { return len(r.tuples) }

// Mode returns the preemption semantics in force (§appendix).
func (r *Relation) Mode() Preemption { return r.mode }

// SetMode selects the preemption semantics used by Evaluate.
func (r *Relation) SetMode(m Preemption) {
	r.mode = m
	r.epoch++
	r.dropMemos()
}

// Epoch returns the relation's mutation counter. It increases on every
// Insert, Retract, and SetMode; two calls returning the same epoch bracket a
// window in which the stored tuples did not change.
func (r *Relation) Epoch() uint64 { return r.epoch }

// SetCache enables or disables what the relation keeps per state: the
// table of verdicts and answers, and the memoized extension and binding
// order. Disabling also drops them. The cache is enabled by default.
func (r *Relation) SetCache(enabled bool) {
	r.cacheOff = !enabled
	if !enabled {
		r.dropMemos()
	}
}

// CacheEnabled reports whether the relation keeps anything per state.
func (r *Relation) CacheEnabled() bool { return !r.cacheOff }

// stamp captures the relation and hierarchy state a kept value depends on:
// the relation's epoch (which SetMode moves too) and the sum of the
// attribute hierarchies' mutation generations.
func (r *Relation) stamp() cacheStamp {
	var hgen uint64
	for _, a := range r.schema.attrs {
		hgen += a.Domain.Generation()
	}
	return cacheStamp{epoch: r.epoch, hgen: hgen}
}

// validateItem checks arity and that every coordinate names a node of its
// attribute's hierarchy.
func (r *Relation) validateItem(item Item) error {
	if len(item) != r.schema.Arity() {
		return fmt.Errorf("%w: item %v has arity %d, relation %q has %d",
			ErrArity, item, len(item), r.name, r.schema.Arity())
	}
	for i, v := range item {
		if !r.schema.attrs[i].Domain.Has(v) {
			return fmt.Errorf("%w: %q is not in domain %q of attribute %q",
				ErrUnknownValue, v, r.schema.attrs[i].Domain.Domain(), r.schema.attrs[i].Name)
		}
	}
	return nil
}

// Insert stores a tuple. Re-inserting an identical tuple is a no-op;
// inserting an item that is already present with the opposite sign returns
// ErrContradiction (use Retract first to flip a tuple's sign).
func (r *Relation) Insert(item Item, sign bool) error {
	if err := r.validateItem(item); err != nil {
		return err
	}
	k := item.Key()
	if old, ok := r.tuples[k]; ok {
		if old.Sign == sign {
			return nil
		}
		return fmt.Errorf("%w: item %v is already asserted with sign %v in %q",
			ErrContradiction, item, old.Sign, r.name)
	}
	r.put(k, Tuple{Item: item.Clone(), Sign: sign})
	return nil
}

// put stores t under its item key k, which the relation must not hold yet.
func (r *Relation) put(k string, t Tuple) {
	r.tuples[k] = t
	for i, v := range t.Item {
		r.idx[i][v] = append(r.idx[i][v], k)
	}
	r.epoch++
	r.dropMemos()
}

// Assert inserts a positive tuple (the relation holds for every element of
// the item).
func (r *Relation) Assert(values ...string) error { return r.Insert(Item(values), true) }

// Deny inserts a negated tuple (for every element of the item, the relation
// does not hold).
func (r *Relation) Deny(values ...string) error { return r.Insert(Item(values), false) }

// Retract removes the tuple on exactly this item, reporting whether one was
// present.
func (r *Relation) Retract(item Item) bool {
	k := item.Key()
	_, ok := r.tuples[k]
	if !ok {
		return false
	}
	delete(r.tuples, k)
	for i, v := range item {
		bucket := r.idx[i][v]
		for j, bk := range bucket {
			if bk == k {
				r.idx[i][v] = append(bucket[:j], bucket[j+1:]...)
				break
			}
		}
		if len(r.idx[i][v]) == 0 {
			delete(r.idx[i], v)
		}
	}
	r.epoch++
	r.dropMemos()
	return true
}

// Lookup returns the tuple stored on exactly this item, if any.
func (r *Relation) Lookup(item Item) (Tuple, bool) {
	t, ok := r.tuples[item.Key()]
	return t, ok
}

// VisitTuples calls visit with every stored tuple, in no particular order:
// Tuples without the sort, for a caller that orders what it builds itself.
func (r *Relation) VisitTuples(visit func(Tuple)) {
	for _, t := range r.tuples {
		visit(t)
	}
}

// Tuples returns all tuples sorted by item key (deterministic).
func (r *Relation) Tuples() []Tuple {
	keys := make([]string, 0, len(r.tuples))
	for k := range r.tuples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, len(keys))
	for i, k := range keys {
		out[i] = r.tuples[k]
	}
	return out
}

// Clone returns a deep copy of the relation (sharing the schema and
// hierarchies, which are treated as immutable by convention once relations
// are populated). The copy of a VerifiedConsistent relation is verified at
// its own state.
func (r *Relation) Clone() *Relation {
	c := newRelation(r.name, r.schema, len(r.tuples))
	c.mode = r.mode
	c.cacheOff = r.cacheOff
	k := r.schema.Arity()
	names := make([]string, 0, len(r.tuples)*k)
	for key, t := range r.tuples {
		names = append(names, t.Item...)
		n := len(names)
		c.tuples[key] = Tuple{Item: names[n-k : n : n], Sign: t.Sign}
	}
	for i, postings := range r.idx {
		c.idx[i] = make(map[string][]string, len(postings))
		for v, keys := range postings {
			c.idx[i][v] = slices.Clone(keys)
		}
	}
	if r.VerifiedConsistent() {
		s := c.stamp()
		c.verified.Store(&s)
	}
	return c
}

// WithName returns a shallow-renamed clone.
func (r *Relation) WithName(name string) *Relation {
	c := r.Clone()
	c.name = name
	return c
}

// Subsumes reports whether item a subsumes item b: componentwise, every
// coordinate of a is an is-a ancestor of (or equal to) the corresponding
// coordinate of b. In the never-materialized product hierarchy this is
// exactly "b is reachable from a" (§2.2).
func (r *Relation) Subsumes(a, b Item) bool {
	for i := range a {
		if !r.schema.attrs[i].Domain.Subsumes(a[i], b[i]) {
			return false
		}
	}
	return true
}

// StrictlySubsumes reports a ⊐ b.
func (r *Relation) StrictlySubsumes(a, b Item) bool {
	return !a.Equal(b) && r.Subsumes(a, b)
}

// BindSubsumes is Subsumes over the binding graphs (is-a plus preference
// edges); it orders tuples by binding strength but never defines
// membership.
func (r *Relation) BindSubsumes(a, b Item) bool {
	for i := range a {
		if !r.schema.attrs[i].Domain.BindSubsumes(a[i], b[i]) {
			return false
		}
	}
	return true
}

// IsAtomic reports whether every coordinate of the item is a hierarchy leaf.
func (r *Relation) IsAtomic(item Item) bool {
	for i, v := range item {
		if !r.schema.attrs[i].Domain.IsLeaf(v) {
			return false
		}
	}
	return true
}

// Applicable returns the tuples relevant to item: those whose items subsume
// it (including a tuple exactly on the item), sorted by item key. These are
// the nodes of the paper's tuple-binding graph for the item.
//
// A subsuming tuple's i-th coordinate is necessarily an ancestor of (or
// equal to) item[i], so the ancestor buckets of the attribute with the
// smallest ones yield a superset of the answer that holds on that column;
// the other columns are checked per candidate by node id. (The ablation
// BenchmarkAblationIndexVsScan measures the win; applicableByScan is the
// reference implementation.)
func (r *Relation) Applicable(item Item) []Tuple {
	var buf [8]int
	ids, bestAttr, bestCost := buf[:0], -1, len(r.tuples)+1
	for i, a := range r.schema.attrs {
		if ids = append(ids, a.Domain.IDOf(item[i])); ids[i] < 0 {
			return nil
		}
		cost := len(r.idx[i][item[i]])
		for _, p := range a.Domain.AncestorIDs(ids[i]) {
			cost += len(r.idx[i][a.Domain.NameOf(p)])
		}
		if cost < bestCost {
			bestAttr, bestCost = i, cost
		}
	}
	h, out := r.schema.attrs[bestAttr].Domain, make([]Tuple, 0, bestCost)
	probe := func(v string) {
	candidates:
		for _, k := range r.idx[bestAttr][v] {
			t := r.tuples[k]
			for i, a := range r.schema.attrs {
				if i != bestAttr && !a.Domain.SubsumesID(a.Domain.IDOf(t.Item[i]), ids[i]) {
					continue candidates
				}
			}
			out = append(out, t)
		}
	}
	probe(item[bestAttr])
	for _, p := range h.AncestorIDs(ids[bestAttr]) {
		probe(h.NameOf(p))
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, compareTuples)
	return out
}

// internTuples returns the node ids of the tuples' coordinates: ids[i*k+a]
// for attribute a of tuple i, -1 where a hierarchy no longer has the name.
func (r *Relation) internTuples(ts []Tuple) []int {
	k := r.schema.Arity()
	ids := make([]int, len(ts)*k)
	for i, t := range ts {
		for a, v := range t.Item {
			ids[i*k+a] = r.schema.attrs[a].Domain.IDOf(v)
		}
	}
	return ids
}

// reachRows returns, per interned item, the is-a reach set of each
// coordinate, so pair tests on the items are set lookups. The rows are nil
// while some column's reachability index is cold: a check leaves building
// it to HasPath's own policy.
func (r *Relation) reachRows(ids []int) [][]dag.Set {
	k := r.schema.Arity()
	rows := make([][]dag.Set, len(ids)/k)
	for _, a := range r.schema.attrs {
		if !a.Domain.IndexWarm() {
			return rows
		}
	}
	sets := make([]dag.Set, len(ids))
	for j, id := range ids {
		sets[j] = r.schema.attrs[j%k].Domain.Reach(id)
		rows[j/k] = sets[j/k*k : j+1]
	}
	return rows
}

// subsumesRows is Subsumes on interned items, by a's reach rows ra when
// there are any.
func (r *Relation) subsumesRows(ra []dag.Set, a, b []int) bool {
	for i := range a {
		if ra != nil && !ra[i].Has(b[i]) || ra == nil && !r.schema.attrs[i].Domain.SubsumesID(a[i], b[i]) {
			return false
		}
	}
	return true
}

// overlapsRows is Overlaps on every coordinate pair of interned items, by
// their reach rows when both have them.
func (r *Relation) overlapsRows(ra, rb []dag.Set, a, b []int) bool {
	for i := range a {
		if ra != nil && rb != nil && !ra[i].Overlaps(rb[i]) || (ra == nil || rb == nil) && !r.schema.attrs[i].Domain.OverlapsID(a[i], b[i]) {
			return false
		}
	}
	return true
}

// bindMatrix returns the tuples' subsumption graph in the binding order
// (is-a plus preference edges) as a bit matrix on interned node ids:
// sub[i].Get(j) iff ts[i] strictly bind-subsumes ts[j]. The tuples above
// ts[j] are looked up by the first coordinate among its own and its binding
// ancestors, so the pairs tested follow the graph's edges, not n².
func (r *Relation) bindMatrix(ts []Tuple) []dag.Bitset {
	n, k := len(ts), r.schema.Arity()
	ids := r.internTuples(ts)
	words := (n + 63) / 64
	matrix := make([]uint64, n*words)
	sub := make([]dag.Bitset, n)
	byFirst := make([]int, n) // positions by first coordinate
	for i := range ts {
		sub[i] = matrix[i*words : (i+1)*words : (i+1)*words]
		byFirst[i] = i
	}
	slices.SortFunc(byFirst, func(a, b int) int { return cmp.Compare(ids[a*k], ids[b*k]) })
	above := func(x, j int) {
		lo, _ := slices.BinarySearchFunc(byFirst, x, func(p, x int) int { return cmp.Compare(ids[p*k], x) })
	next:
		for _, i := range byFirst[lo:] {
			if ids[i*k] != x {
				return
			}
			equal := x == ids[j*k]
			for a := 1; a < k; a++ {
				if !r.schema.attrs[a].Domain.BindSubsumesID(ids[i*k+a], ids[j*k+a]) {
					continue next
				}
				equal = equal && ids[i*k+a] == ids[j*k+a]
			}
			if !equal {
				sub[i].Set(j)
			}
		}
	}
	h := r.schema.attrs[0].Domain
	for j := range ts {
		if x := ids[j*k]; x >= 0 { // -1: not a node, above nothing
			above(x, j)
			for _, y := range h.BindAncestorIDs(x) {
				above(y, j)
			}
		}
	}
	return sub
}

// predecessors returns, ascending, the immediate predecessors of tuple i in
// the subsumption graph sub — the minimal tuples strictly above it — leaving
// out every j with gone[j] (gone may be short or nil).
func predecessors(sub []dag.Bitset, i int, gone []bool) []int {
	var above, preds []int
	for j := range sub {
		if sub[j].Get(i) && !(j < len(gone) && gone[j]) {
			above = append(above, j)
		}
	}
next:
	for _, a := range above {
		for _, b := range above {
			if sub[a].Get(b) {
				continue next
			}
		}
		preds = append(preds, a)
	}
	return preds
}

// bindOrder is Kahn's algorithm over the tuples' subsumption graph. It
// returns the positions of ts, which must be sorted by item key, general
// first — a tuple precedes every tuple it strictly bind-subsumes, so a
// dispreferred tuple also precedes the one preferred to it, and among the
// tuples free to go next the smallest key goes first — together with the
// graph it ordered. Explicate walks the order backwards (most specific
// first), Table and Reconsolidate forwards, and Consolidate also reads the
// graph.
func (r *Relation) bindOrder(ts []Tuple) (order []int, sub []dag.Bitset) {
	sub = r.bindMatrix(ts)
	return kahn(sub, nil), sub
}

// kahn is Kahn's algorithm over sub restricted to the positions not gone
// (gone may be nil), the smallest free position first. sub restricted to a
// subset is the subset's own graph, so this is the subset's bindOrder.
func kahn(sub []dag.Bitset, gone []bool) []int {
	n := len(sub)
	skip := func(i int) bool { return gone != nil && gone[i] }
	indeg := make([]int, n)
	for i := range sub {
		if skip(i) {
			continue
		}
		for w, word := range sub[i] {
			for ; word != 0; word &= word - 1 {
				indeg[w*64+bits.TrailingZeros64(word)]++
			}
		}
	}
	frontier := make([]int, 0, n)
	for j := range sub {
		if indeg[j] == 0 && !skip(j) {
			frontier = append(frontier, j)
		}
	}
	order := make([]int, 0, n)
	for len(frontier) > 0 {
		i := frontier[0]
		frontier = frontier[1:]
		order = append(order, i)
		for w, word := range sub[i] {
			for ; word != 0; word &= word - 1 {
				j := w*64 + bits.TrailingZeros64(word)
				if indeg[j]--; indeg[j] == 0 && !skip(j) {
					frontier = append(frontier, j)
				}
			}
		}
		sortInts(frontier)
	}
	return order
}

// TuplesGeneralFirst returns the stored tuples in binding order: a tuple
// precedes every tuple it strictly bind-subsumes. The order is memoized per
// state; the slice is the caller's.
func (r *Relation) TuplesGeneralFirst() []Tuple { return slices.Clone(r.generalFirst()) }

// generalFirst is TuplesGeneralFirst's memoized slice, not to be modified.
func (r *Relation) generalFirst() []Tuple {
	ts, _ := memoized(r, &r.order, func() ([]Tuple, error) { return r.sortGeneralFirst(r.Tuples()), nil })
	return ts
}

// sortGeneralFirst returns ts, which must be sorted by item key, in
// bindOrder.
func (r *Relation) sortGeneralFirst(ts []Tuple) []Tuple {
	order, _ := r.bindOrder(ts)
	out := make([]Tuple, len(order))
	for n, i := range order {
		out[n] = ts[i]
	}
	return out
}

// sortInts sorts a small int slice ascending (insertion sort: a Kahn
// frontier is sorted but for the few ids just appended).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
