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
	"maps"
	"math/bits"
	"slices"
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
	mode   Preemption

	// Row n holds a tuple, as inserted, in rows[n] and its node ids in
	// ids[n*k : n*k+k]; a retracted row's slot (Item nil) is listed in free
	// for reuse. post[i] lists the ascending rows per node id of column i,
	// so Applicable and the planner probe the postings of a coordinate's
	// ancestors, or of the nodes that overlap a region, and rowOf those of
	// the item's own ids, not every row. A name keeps its id in its
	// hierarchy, so the id of a node removed since is dead to every
	// id-level query until the name is added again, and then reads right.
	rows []Tuple
	ids  []int32
	free []int32
	post []map[int32][]int32

	// epoch counts mutations (Insert/Retract/SetMode); what the relation
	// keeps per state is stamped with it so no post-mutation read can be
	// stale.
	epoch    uint64
	cacheOff bool

	// What the state determines, kept under its stamp (cache.go): verdicts
	// and answers in the table, and memoized, the extension as ids in
	// kernel order and the rows in binding order.
	cache table
	ext   atomic.Pointer[memo[[]int]]
	order atomic.Pointer[memo[[]int32]]

	// verified is the stamp of the last state a consistency check passed
	// on; the catalog runs the delta check only from such a state. Atomic
	// because CheckConsistency is a read as far as callers are concerned.
	verified atomic.Pointer[cacheStamp]
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema *Schema) *Relation { return newRelation(name, schema, 0) }

// newRelation is NewRelation with room for n tuples.
func newRelation(name string, schema *Schema, n int) *Relation {
	post := make([]map[int32][]int32, schema.Arity())
	for i := range post {
		post[i] = map[int32][]int32{}
	}
	return &Relation{
		name:   name,
		schema: schema,
		mode:   OffPath,
		rows:   make([]Tuple, 0, n),
		ids:    make([]int32, 0, n*schema.Arity()),
		post:   post,
		cache:  table{budget: cacheBudget},
	}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of stored tuples (not the extension size).
func (r *Relation) Len() int { return len(r.rows) - len(r.free) }

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

// stamp captures the relation and hierarchy state a kept value depends on:
// the relation's epoch (which SetMode moves too) and the sum of the
// attribute hierarchies' mutation generations.
func (r *Relation) stamp() cacheStamp {
	s := cacheStamp{epoch: r.epoch}
	for _, a := range r.schema.attrs {
		s.hgen += a.Domain.Generation()
	}
	return s
}

// validateItem checks arity and that every coordinate names a node of its
// attribute's hierarchy, and appends the coordinates' node ids to dst.
func (r *Relation) validateItem(item Item, dst []int32) ([]int32, error) {
	if len(item) != r.schema.Arity() {
		return nil, fmt.Errorf("%w: item %v has arity %d, relation %q has %d",
			ErrArity, item, len(item), r.name, r.schema.Arity())
	}
	for i, v := range item {
		id := r.schema.attrs[i].Domain.IDOf(v)
		if id < 0 {
			return nil, r.unknownValue(i, v)
		}
		dst = append(dst, int32(id))
	}
	return dst, nil
}

// unknownValue is the error for a coordinate v of attribute i naming no node.
func (r *Relation) unknownValue(i int, v string) error {
	a := r.schema.attrs[i]
	return fmt.Errorf("%w: %q is not in domain %q of attribute %q",
		ErrUnknownValue, v, a.Domain.Domain(), a.Name)
}

// rowIDs returns row n's node ids, capped so an append copies.
func (r *Relation) rowIDs(n int32) []int32 {
	k := r.schema.Arity()
	return r.ids[int(n)*k : int(n)*k+k : int(n)*k+k]
}

// rowOf returns the row whose coordinates have exactly these node ids, from
// the shortest of their posting lists.
func (r *Relation) rowOf(ids []int32) (int32, bool) {
	rows := r.post[0][ids[0]]
	for i, id := range ids[1:] {
		if p := r.post[i+1][id]; len(p) < len(rows) {
			rows = p
		}
	}
	for _, n := range rows {
		if slices.Equal(r.rowIDs(n), ids) {
			return n, true
		}
	}
	return 0, false
}

// find returns the row stored on exactly item. A row may name a node
// removed since, so the item's names are looked up by the ids they keep.
func (r *Relation) find(item Item) (int32, bool) {
	if len(item) != r.schema.Arity() {
		return 0, false
	}
	var buf [8]int32
	ids := buf[:0]
	for i, v := range item {
		id := r.schema.attrs[i].Domain.KeptID(v)
		if id < 0 {
			return 0, false
		}
		ids = append(ids, int32(id))
	}
	return r.rowOf(ids)
}

// Insert stores a tuple. Re-inserting an identical tuple is a no-op;
// inserting an item that is already present with the opposite sign returns
// ErrContradiction (use Retract first to flip a tuple's sign).
func (r *Relation) Insert(item Item, sign bool) error {
	var buf [8]int32
	ids, err := r.validateItem(item, buf[:0])
	if err != nil {
		return err
	}
	if n, ok := r.rowOf(ids); ok {
		if old := r.rows[n]; old.Sign != sign {
			return fmt.Errorf("%w: item %v is already asserted with sign %v in %q",
				ErrContradiction, item, old.Sign, r.name)
		}
		return nil
	}
	r.put(Tuple{Item: item.Clone(), Sign: sign}, ids)
	return nil
}

// put stores t, whose coordinates have the node ids ids, in a free slot or
// a new row, and returns the row. The relation must not hold ids yet.
func (r *Relation) put(t Tuple, ids []int32) int32 {
	n := int32(len(r.rows))
	if last := len(r.free) - 1; last >= 0 {
		n, r.free = r.free[last], r.free[:last]
		r.rows[n] = t
		copy(r.rowIDs(n), ids)
	} else {
		r.rows = append(r.rows, t)
		r.ids = append(r.ids, ids...)
	}
	r.index(n)
	r.epoch++
	r.dropMemos()
	return n
}

// index enters row n in the postings of its ids.
func (r *Relation) index(n int32) {
	for i, id := range r.rowIDs(n) {
		post := r.post[i][id]
		at, _ := slices.BinarySearch(post, n)
		r.post[i][id] = slices.Insert(post, at, n)
	}
}

// unindex is index undone.
func (r *Relation) unindex(n int32) {
	for i, id := range r.rowIDs(n) {
		post := r.post[i][id]
		at, _ := slices.BinarySearch(post, n)
		if post = slices.Delete(post, at, at+1); len(post) == 0 {
			delete(r.post[i], id)
		} else {
			r.post[i][id] = post
		}
	}
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
	n, ok := r.find(item)
	if !ok {
		return false
	}
	r.unindex(n)
	r.rows[n] = Tuple{}
	r.free = append(r.free, n)
	r.epoch++
	r.dropMemos()
	return true
}

// Lookup returns the tuple stored on exactly this item, if any.
func (r *Relation) Lookup(item Item) (Tuple, bool) {
	if n, ok := r.find(item); ok {
		return r.rows[n], true
	}
	return Tuple{}, false
}

// VisitTuples calls visit with every stored tuple, in no particular order:
// Tuples without the sort, for a caller that orders what it builds itself.
func (r *Relation) VisitTuples(visit func(Tuple)) {
	for _, t := range r.rows {
		if t.Item != nil {
			visit(t)
		}
	}
}

// Tuples returns all tuples sorted by item key (deterministic).
func (r *Relation) Tuples() []Tuple { return r.tuplesOf(r.sortedRows()) }

// tuplesOf returns the rows' tuples in a new slice, nil for no rows.
func (r *Relation) tuplesOf(rows []int32) []Tuple {
	if len(rows) == 0 {
		return nil
	}
	out := make([]Tuple, len(rows))
	for i, n := range rows {
		out[i] = r.rows[n]
	}
	return out
}

// sortedRows returns every stored row, in item-key order.
func (r *Relation) sortedRows() []int32 {
	rows := make([]int32, 0, r.Len())
	for n, t := range r.rows {
		if t.Item != nil {
			rows = append(rows, int32(n))
		}
	}
	r.sortRows(rows)
	return rows
}

// sortRows orders rows by their items' keys, and rows of equal items by row.
func (r *Relation) sortRows(rows []int32) {
	slices.SortFunc(rows, func(a, b int32) int {
		return cmp.Or(CompareItems(r.rows[a].Item, r.rows[b].Item), cmp.Compare(a, b))
	})
}

// Clone returns a deep copy of the relation (sharing the schema and
// hierarchies, which are treated as immutable by convention once relations
// are populated, and the tuples' items, which are never written in place).
// The copy of a VerifiedConsistent relation is verified at its own state.
func (r *Relation) Clone() *Relation {
	c := newRelation(r.name, r.schema, 0)
	c.mode, c.cacheOff = r.mode, r.cacheOff
	c.rows, c.ids, c.free = slices.Clone(r.rows), slices.Clone(r.ids), slices.Clone(r.free)
	for i, post := range r.post {
		c.post[i] = maps.Clone(post)
		for id, rows := range post {
			c.post[i][id] = slices.Clone(rows)
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

// bindSubsumes is Subsumes on rows over the binding graphs (is-a plus
// preference edges), which order tuples but never define membership.
func (r *Relation) bindSubsumes(a, b int32) bool {
	x, y := r.rowIDs(a), r.rowIDs(b)
	for i, at := range r.schema.attrs {
		if !at.Domain.BindSubsumesID(int(x[i]), int(y[i])) {
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
func (r *Relation) Applicable(item Item) []Tuple {
	var buf [8]int32
	ids, err := r.validateItem(item, buf[:0])
	if err != nil {
		return nil
	}
	var rows [32]int32
	return r.tuplesOf(r.applicable(ids, rows[:0]))
}

// applicable appends to dst, in item-key order, the rows whose items subsume
// the item with node ids ids. Such a row's i-th id is ids[i] or an ancestor,
// so the postings of the column whose ancestors' are shortest yield the
// candidates, and the other columns are checked per candidate.
// (BenchmarkAblationIndexVsScan measures the win; applicableByScan is the
// reference.)
func (r *Relation) applicable(ids, dst []int32) []int32 {
	bestAttr, bestCost := 0, -1
	for i, a := range r.schema.attrs {
		post := r.post[i]
		cost := len(post[ids[i]])
		for _, p := range a.Domain.AncestorIDs(int(ids[i])) {
			cost += len(post[int32(p)])
		}
		if bestCost < 0 || cost < bestCost {
			bestAttr, bestCost = i, cost
		}
	}
	start := len(dst)
	h, post := r.schema.attrs[bestAttr].Domain, r.post[bestAttr]
	probe := func(v int32) {
	candidates:
		for _, n := range post[v] {
			at := r.rowIDs(n)
			for i, a := range r.schema.attrs {
				if i != bestAttr && !a.Domain.SubsumesID(int(at[i]), int(ids[i])) {
					continue candidates
				}
			}
			dst = append(dst, n)
		}
	}
	probe(ids[bestAttr])
	for _, p := range h.AncestorIDs(int(ids[bestAttr])) {
		probe(int32(p))
	}
	r.sortRows(dst[start:])
	return dst
}

// reachRows returns, per row, the is-a reach set of each coordinate, so
// pair tests on the rows are set lookups. The sets are nil while some
// column's reachability index is cold: a check leaves building it to
// HasPath's own policy.
func (r *Relation) reachRows(rows []int32) [][]dag.Set {
	k := r.schema.Arity()
	out := make([][]dag.Set, len(rows))
	for _, a := range r.schema.attrs {
		if !a.Domain.IndexWarm() {
			return out
		}
	}
	sets := make([]dag.Set, len(rows)*k)
	for p, n := range rows {
		for i, id := range r.rowIDs(n) {
			sets[p*k+i] = r.schema.attrs[i].Domain.Reach(int(id))
		}
		out[p] = sets[p*k : (p+1)*k]
	}
	return out
}

// subsumesRows is Subsumes on node ids, by a's reach sets ra when there are
// any.
func (r *Relation) subsumesRows(ra []dag.Set, a, b []int32) bool {
	for i := range a {
		if ra != nil && !ra[i].Has(int(b[i])) || ra == nil && !r.schema.attrs[i].Domain.SubsumesID(int(a[i]), int(b[i])) {
			return false
		}
	}
	return true
}

// overlapsRows is Overlaps on every coordinate pair of node ids, by their
// reach sets when both have them.
func (r *Relation) overlapsRows(ra, rb []dag.Set, a, b []int32) bool {
	for i := range a {
		if ra != nil && rb != nil && !ra[i].Overlaps(rb[i]) || (ra == nil || rb == nil) && !r.schema.attrs[i].Domain.OverlapsID(int(a[i]), int(b[i])) {
			return false
		}
	}
	return true
}

// bindMatrix returns the rows' subsumption graph in the binding order (is-a
// plus preference edges) as a bit matrix over their positions:
// sub[i].Get(j) iff rows[i] strictly bind-subsumes rows[j]. The rows above
// rows[j] are looked up by the first coordinate among its own and its
// binding ancestors, so the pairs tested follow the graph's edges, not n².
func (r *Relation) bindMatrix(rows []int32) []dag.Bitset {
	n, k := len(rows), r.schema.Arity()
	first := func(p int) int32 { return r.ids[int(rows[p])*k] }
	words := (n + 63) / 64
	matrix := make([]uint64, n*words)
	sub := make([]dag.Bitset, n)
	byFirst := make([]int, n) // positions by first coordinate
	for i := range rows {
		sub[i] = matrix[i*words : (i+1)*words : (i+1)*words]
		byFirst[i] = i
	}
	slices.SortFunc(byFirst, func(a, b int) int { return cmp.Compare(first(a), first(b)) })
	above := func(x int32, j int) {
		lo, _ := slices.BinarySearchFunc(byFirst, x, func(p int, x int32) int { return cmp.Compare(first(p), x) })
		below := r.rowIDs(rows[j])
	next:
		for _, i := range byFirst[lo:] {
			if first(i) != x {
				return
			}
			at := r.rowIDs(rows[i])
			equal := x == below[0]
			for a := 1; a < k; a++ {
				if !r.schema.attrs[a].Domain.BindSubsumesID(int(at[a]), int(below[a])) {
					continue next
				}
				equal = equal && at[a] == below[a]
			}
			if !equal {
				sub[i].Set(j)
			}
		}
	}
	h := r.schema.attrs[0].Domain
	for j := range rows {
		if x := first(j); h.HasID(int(x)) { // a removed node is above nothing
			above(x, j)
			for _, y := range h.BindAncestorIDs(int(x)) {
				above(int32(y), j)
			}
		}
	}
	return sub
}

// predecessors returns, ascending, the immediate predecessors of position i
// in the subsumption graph sub — the minimal rows strictly above it —
// leaving out every j with gone[j] (gone may be short or nil).
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

// bindOrder is Kahn's algorithm over the rows' subsumption graph. It returns
// positions in rows, which must be in item-key order, general first — a row
// precedes every row it strictly bind-subsumes, so a dispreferred tuple also
// precedes the one preferred to it, and among the rows free to go next the
// smallest key goes first — together with the graph it ordered. Explicate
// walks the order backwards (most specific first), Table and Reconsolidate
// forwards, and Consolidate also reads the graph.
func (r *Relation) bindOrder(rows []int32) (order []int, sub []dag.Bitset) {
	sub = r.bindMatrix(rows)
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
		slices.Sort(frontier) // sorted but for the few positions just appended
	}
	return order
}

// TuplesGeneralFirst returns the stored tuples in binding order: a tuple
// precedes every tuple it strictly bind-subsumes. The order is memoized per
// state; the slice is the caller's.
func (r *Relation) TuplesGeneralFirst() []Tuple { return r.tuplesOf(r.generalFirst()) }

// generalFirst is the stored rows in binding order, memoized per state; not
// to be modified.
func (r *Relation) generalFirst() []int32 {
	rows, _ := memoized(r, &r.order, func() ([]int32, error) {
		rows := r.sortedRows()
		order, _ := r.bindOrder(rows)
		out := make([]int32, len(order))
		for n, i := range order {
			out[n] = rows[i]
		}
		return out, nil
	})
	return rows
}
