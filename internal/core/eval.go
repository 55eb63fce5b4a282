package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"hrdb/internal/dag"
)

// Preemption selects which of the paper's inheritance semantics Evaluate
// uses to pick the strongest-binding tuples (appendix of the paper).
type Preemption int

const (
	// OffPath is the paper's default: a tuple i binds more strongly than j
	// iff there is a path from j to i in the tuple-binding graph. With an
	// irredundant hierarchy this makes the minimal (most specific)
	// applicable tuples the binders.
	OffPath Preemption = iota
	// OnPath: i binds more strongly than j iff every path from j to the
	// item passes through i. Operationally, redundant edges are retained
	// during node elimination.
	OnPath
	// NoPreemption: the transitive closure of the hierarchy is used, so
	// every applicable tuple is an immediate predecessor and any sign
	// disagreement (absent an exact tuple) is a conflict.
	NoPreemption
)

// String names the preemption mode.
func (p Preemption) String() string {
	switch p {
	case OffPath:
		return "off-path"
	case OnPath:
		return "on-path"
	case NoPreemption:
		return "none"
	default:
		return fmt.Sprintf("Preemption(%d)", int(p))
	}
}

// maxProductNodes bounds the explicit product-graph construction used by
// the general (non-fast-path) evaluator.
const maxProductNodes = 1 << 17

// Verdict is the result of evaluating an item against a relation.
type Verdict struct {
	// Value is the truth value of the item under the closed-world
	// assumption: true iff the relation holds for (every element of) the
	// item.
	Value bool
	// Default is true when no tuple applies and the value was decided by
	// the universal negated tuple (§3.3.1) — under an open world the value
	// would be "unknown" rather than false.
	Default bool
	// Exact is true when a tuple is associated with the item itself.
	Exact bool
	// Binders are the strongest-binding tuples that determined the value.
	Binders []Tuple
	// Applicable is every tuple relevant to the item — the nodes of the
	// item's tuple-binding graph — serving as the justification of the
	// answer (Fig. 9 of the paper).
	Applicable []Tuple
}

// Evaluate computes the truth value of an item under the relation's
// preemption mode. It returns a *ConflictError when the item's strongest-
// binding tuples disagree (the ambiguity constraint, §3.1).
//
// Results are kept in the relation's table (see cache.go): repeated
// Evaluate calls on an unchanged relation are a map lookup. Any mutation of
// the relation or of an attribute hierarchy invalidates them by changing
// the table's stamp, never by relying on eviction.
//
// The table is probed before validation: a hit can only exist for an item
// that validated at the same state, and the mode is part of that state, so
// skipping re-validation is sound.
func (r *Relation) Evaluate(item Item) (Verdict, error) {
	if r.cacheOff {
		return r.evaluateUncached(item)
	}
	k, s := cacheKey{kind: Verdicts, key: item.Key()}, r.stamp()
	if e, ok := r.cache.get(k, s); ok {
		if ce, isConflict := e.err.(*ConflictError); isConflict {
			// Hand each caller its own copy, so that no caller's
			// annotation (a resolution, say) reaches the kept error.
			cp := *ce
			return e.v, &cp
		}
		return e.v, e.err
	}
	v, err := r.evaluateUncached(item)
	r.cache.put(k, entry{v: v, err: err}, s)
	return v, err
}

// evaluateUncached wraps the real evaluator with the engine metrics: an
// always-on per-mode evaluation counter, per-mode latency sampled 1 in
// (evalSampleMask+1) calls (the counter's post-increment value decides, so
// sampling itself costs nothing extra), and a conflict counter.
func (r *Relation) evaluateUncached(item Item) (Verdict, error) {
	mi := modeIndex(r.mode)
	var v Verdict
	var err error
	if metricEvals[mi].Inc()&evalSampleMask == 0 {
		start := time.Now()
		v, err = r.evaluateBare(item)
		metricEvalNS[mi].ObserveDuration(time.Since(start))
	} else {
		v, err = r.evaluateBare(item)
	}
	if _, ok := err.(*ConflictError); ok {
		metricConflicts.Inc()
	}
	return v, err
}

// evaluateBare runs the paper's evaluation procedure with no memo.
func (r *Relation) evaluateBare(item Item) (Verdict, error) {
	var idBuf [8]int32
	ids, err := r.validateItem(item, idBuf[:0])
	if err != nil {
		return Verdict{}, err
	}
	var rowBuf [32]int32
	rows := r.applicable(ids, rowBuf[:0])
	if len(rows) == 0 {
		return Verdict{Value: false, Default: true}, nil
	}
	var posBuf [8]int
	at, err := r.binders(item, ids, rows, posBuf[:0])
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Applicable: r.tuplesOf(rows), Binders: make([]Tuple, len(at))}
	for n, p := range at {
		v.Binders[n] = v.Applicable[p]
	}
	v.Value, v.Exact = v.Binders[0].Sign, slices.Equal(r.rowIDs(rows[at[0]]), ids)
	for _, b := range v.Binders[1:] {
		if b.Sign != v.Value {
			return Verdict{}, &ConflictError{Relation: r.name, Item: item.Clone(), Binders: v.Binders}
		}
	}
	return v, nil
}

// binders appends to dst the positions in rows — the applicable rows of the
// item whose coordinates have the node ids ids, in item-key order — of the
// strongest-binding tuples under the relation's preemption mode, ascending.
func (r *Relation) binders(item Item, ids, rows []int32, dst []int) ([]int, error) {
	if n, ok := r.rowOf(ids); ok {
		// A tuple on the item itself always binds strongest (§2.1).
		return append(dst, slices.Index(rows, n)), nil
	}
	switch r.mode {
	case NoPreemption:
		for p := range rows {
			dst = append(dst, p)
		}
		return dst, nil
	case OffPath:
		if r.fastPathOK() {
			return r.minimal(rows, dst), nil
		}
		return r.eliminate(item, ids, rows, false)
	case OnPath:
		return r.eliminate(item, ids, rows, true)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownMode, int(r.mode))
	}
}

// Holds is Evaluate reduced to the closed-world truth value.
func (r *Relation) Holds(values ...string) (bool, error) {
	v, err := r.Evaluate(Item(values))
	return v.Value, err // the verdict is zero beside an error
}

// fastPathOK reports whether the minimal-applicable shortcut coincides with
// the paper's tuple-binding-graph construction: every attribute's binding
// graph must be irredundant (a transitive reduction), which is the paper's
// stated precondition for off-path preemption.
func (r *Relation) fastPathOK() bool {
	for _, a := range r.schema.attrs {
		if !a.Domain.BindingIrredundant() {
			return false
		}
	}
	return true
}

// minimal appends to dst the positions of the rows that are minimal under
// the strict binding order (no other of the rows lies strictly below them).
// These are the immediate predecessors of the item in its tuple-binding
// graph when the hierarchies are irredundant.
func (r *Relation) minimal(rows []int32, dst []int) []int {
next:
	for i, a := range rows {
		for j, b := range rows {
			if i != j && r.bindSubsumes(a, b) {
				continue next
			}
		}
		dst = append(dst, i)
	}
	return dst
}

// eliminate implements the paper's tuple-binding-graph construction
// literally: materialize the relevant slice of the product hierarchy (every
// product node that subsumes the item in the binding graphs), then
// eliminate every node that carries no tuple — preserving irredundancy for
// off-path preemption, or retaining redundant edges for on-path preemption
// — and read off the immediate predecessors of the item, whose coordinates
// have the node ids ids, as positions in rows, its applicable rows in
// item-key order.
func (r *Relation) eliminate(item Item, ids, rows []int32, keepRedundant bool) ([]int, error) {
	// Per attribute, the item's coordinate and its binding-graph ancestors,
	// ordered by name so that the graph, and the order its nodes are
	// eliminated in, follows the names alone; and each one's position there.
	// Product node n has the coordinates at the positions of n's mixed-radix
	// digits, the last attribute's varying fastest.
	k := r.schema.Arity()
	relevant, pos, stride := make([][]int, k), make([]map[int]int, k), make([]int, k)
	size := 1
	for i := k - 1; i >= 0; i-- {
		h := r.schema.attrs[i].Domain
		relevant[i] = append([]int{int(ids[i])}, h.BindAncestorIDs(int(ids[i]))...)
		slices.SortFunc(relevant[i], func(a, b int) int { return strings.Compare(h.NameOf(a), h.NameOf(b)) })
		pos[i] = make(map[int]int, len(relevant[i]))
		for p, id := range relevant[i] {
			pos[i][id] = p
		}
		stride[i] = size
		if size *= len(relevant[i]); size > maxProductNodes {
			return nil, fmt.Errorf("%w: binding graph for %v needs more than %d product nodes",
				ErrTooLarge, item, maxProductNodes)
		}
	}
	node := func(ids []int32) (int, bool) {
		n := 0
		for i, id := range ids {
			p, ok := pos[i][int(id)]
			if !ok {
				return 0, false
			}
			n += p * stride[i]
		}
		return n, true
	}

	// The product graph: an edge per single-coordinate binding-graph edge.
	g := dag.New()
	for n := 0; n < size; n++ {
		g.AddNode()
	}
	for n := 0; n < size; n++ {
		for i, nodes := range relevant {
			d := n / stride[i] % len(nodes)
			for _, c := range r.schema.attrs[i].Domain.BindChildIDs(nodes[d]) {
				if p, ok := pos[i][c]; ok {
					if err := g.AddEdge(n, n+(p-d)*stride[i]); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Tuple nodes: product nodes carrying an applicable tuple. Applicability
	// is is-a subsumption; a node reachable only through preference edges is
	// treated as an intermediate (preferences order binding, they do not
	// extend membership).
	tupleAt := map[int]int{}
	for p, n := range rows {
		if at, ok := node(r.rowIDs(n)); ok {
			tupleAt[at] = p
		}
	}
	itemAt, _ := node(ids)

	// Eliminate every non-tuple, non-item node in topological order.
	order, err := g.Topo()
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		if _, isTuple := tupleAt[n]; isTuple || n == itemAt || !g.Has(n) {
			continue
		}
		if err := g.Eliminate(n, keepRedundant); err != nil {
			return nil, err
		}
	}

	preds := g.Pred(itemAt)
	binders := make([]int, 0, len(preds))
	for _, n := range preds {
		binders = append(binders, tupleAt[n])
	}
	slices.Sort(binders)
	if len(binders) == 0 {
		// All applicable tuples were cut off from the item by elimination;
		// cannot happen for off-path (paths are preserved), but guard.
		return nil, fmt.Errorf("core: internal: no binders for %v despite %d applicable tuples",
			item, len(rows))
	}
	return binders, nil
}

// BindingGraph describes an item's tuple-binding graph for display and
// justification: its nodes are the applicable tuples plus the item, and its
// edges the immediate-predecessor links after node elimination (Fig. 1d).
type BindingGraph struct {
	Item  Item
	Nodes []Tuple
	// Edges are (from, to) indices into Nodes; the item itself is index -1
	// as a destination.
	Edges [][2]int
	// Binders are indices into Nodes of the strongest-binding tuples.
	Binders []int
}

// TupleBindingGraph computes the explicit tuple-binding graph for an item
// under the relation's preemption mode.
func (r *Relation) TupleBindingGraph(item Item) (*BindingGraph, error) {
	var buf [8]int32
	ids, err := r.validateItem(item, buf[:0])
	if err != nil {
		return nil, err
	}
	rows := r.applicable(ids, nil)
	bg := &BindingGraph{Item: item.Clone(), Nodes: r.tuplesOf(rows)}
	if len(rows) > 0 {
		// Determine binder indices via the same machinery as Evaluate.
		if bg.Binders, err = r.binders(item, ids, rows, nil); err != nil {
			return nil, err
		}
	}

	// Edges among tuples: the transitive reduction of the binding order on
	// the applicable tuples, plus edges from each binder to the item (-1).
	sub := r.bindMatrix(rows)
	for j := range rows {
		for _, i := range predecessors(sub, j, nil) {
			bg.Edges = append(bg.Edges, [2]int{i, j})
		}
	}
	slices.SortFunc(bg.Edges, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	for _, b := range bg.Binders {
		bg.Edges = append(bg.Edges, [2]int{b, -1})
	}
	return bg, nil
}
