package core

import (
	"fmt"
	"sort"
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
// Results are memoized in the relation's verdict cache (see cache.go):
// repeated Evaluate calls on an unchanged relation are a map lookup. Any
// mutation of the relation or of an attribute hierarchy invalidates the
// memo by changing its stamp, never by relying on eviction.
func (r *Relation) Evaluate(item Item) (Verdict, error) {
	return r.evaluate(item, r.mode, !r.cacheOff)
}

// EvaluateMode is Evaluate under an explicit preemption mode, overriding the
// relation's own setting for this call only.
func (r *Relation) EvaluateMode(item Item, mode Preemption) (Verdict, error) {
	return r.evaluate(item, mode, !r.cacheOff)
}

// evaluate is the memoizing front of the evaluator. The cache is probed
// before validation: a hit can only exist for an item that validated under
// the same relation epoch, hierarchy generations, and mode, so skipping
// re-validation is sound.
func (r *Relation) evaluate(item Item, mode Preemption, useCache bool) (Verdict, error) {
	if !useCache {
		return r.evaluateUncached(item, mode)
	}
	key := item.Key()
	stamp := r.stamp(mode)
	if e, ok := r.cache.get(key, stamp); ok {
		if ce, isConflict := e.err.(*ConflictError); isConflict {
			// Conflicts() annotates the error with a resolution in place;
			// hand each caller its own copy so hits never share state.
			cp := *ce
			return e.v, &cp
		}
		return e.v, e.err
	}
	v, err := r.evaluateUncached(item, mode)
	r.cache.put(key, cacheEntry{stamp: stamp, v: v, err: err})
	return v, err
}

// evaluateUncached wraps the real evaluator with the engine metrics: an
// always-on per-mode evaluation counter, per-mode latency sampled 1 in
// (evalSampleMask+1) calls (the counter's post-increment value decides, so
// sampling itself costs nothing extra), and a conflict counter.
func (r *Relation) evaluateUncached(item Item, mode Preemption) (Verdict, error) {
	mi := modeIndex(mode)
	var v Verdict
	var err error
	if metricEvals[mi].Inc()&evalSampleMask == 0 {
		start := time.Now()
		v, err = r.evaluateBare(item, mode)
		metricEvalNS[mi].ObserveDuration(time.Since(start))
	} else {
		v, err = r.evaluateBare(item, mode)
	}
	if _, ok := err.(*ConflictError); ok {
		metricConflicts.Inc()
	}
	return v, err
}

// evaluateBare runs the paper's evaluation procedure with no memo.
func (r *Relation) evaluateBare(item Item, mode Preemption) (Verdict, error) {
	if err := r.validateItem(item); err != nil {
		return Verdict{}, err
	}
	applicable := r.Applicable(item)

	// A tuple on the item itself always binds strongest (§2.1).
	if t, ok := r.Lookup(item); ok {
		return Verdict{Value: t.Sign, Exact: true, Binders: []Tuple{t}, Applicable: applicable}, nil
	}
	if len(applicable) == 0 {
		return Verdict{Value: false, Default: true, Applicable: applicable}, nil
	}

	binders, err := r.bindersFor(item, applicable, mode)
	if err != nil {
		return Verdict{}, err
	}

	value := binders[0].Sign
	for _, b := range binders[1:] {
		if b.Sign != value {
			return Verdict{}, &ConflictError{Relation: r.name, Item: item.Clone(), Binders: binders}
		}
	}
	return Verdict{Value: value, Binders: binders, Applicable: applicable}, nil
}

// bindersFor selects the strongest-binding tuples among the applicable ones
// under the given preemption mode.
func (r *Relation) bindersFor(item Item, applicable []Tuple, mode Preemption) ([]Tuple, error) {
	switch mode {
	case NoPreemption:
		return applicable, nil
	case OffPath:
		if r.fastPathOK() {
			return r.minimalTuples(applicable), nil
		}
		return r.bindersByElimination(item, applicable, false)
	case OnPath:
		return r.bindersByElimination(item, applicable, true)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownMode, int(mode))
	}
}

// Holds is Evaluate reduced to the closed-world truth value.
func (r *Relation) Holds(values ...string) (bool, error) {
	v, err := r.Evaluate(Item(values))
	if err != nil {
		return false, err
	}
	return v.Value, nil
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

// minimalTuples returns the tuples of ts that are minimal under the strict
// binding order (no other tuple in ts lies strictly below them). These are
// the immediate predecessors of the item in its tuple-binding graph when
// the hierarchies are irredundant.
func (r *Relation) minimalTuples(ts []Tuple) []Tuple {
	var out []Tuple
	for i, t := range ts {
		minimal := true
		for j, u := range ts {
			if i == j {
				continue
			}
			if !u.Item.Equal(t.Item) && r.BindSubsumes(t.Item, u.Item) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, t)
		}
	}
	return out
}

// bindersByElimination implements the paper's tuple-binding-graph
// construction literally: materialize the relevant slice of the product
// hierarchy (every product node that subsumes the item in the binding
// graphs), then eliminate every node that carries no tuple — preserving
// irredundancy for off-path preemption, or retaining redundant edges for
// on-path preemption — and read off the immediate predecessors of the item.
func (r *Relation) bindersByElimination(item Item, applicable []Tuple, keepRedundant bool) ([]Tuple, error) {
	k := r.schema.Arity()

	// Per-attribute relevant nodes: binding-graph ancestors of the item's
	// coordinate, plus the coordinate itself.
	relevant := make([][]string, k)
	size := 1
	for i := 0; i < k; i++ {
		h := r.schema.attrs[i].Domain
		nodes := []string{item[i]}
		for _, n := range h.Nodes() {
			if n != item[i] && h.BindSubsumes(n, item[i]) {
				nodes = append(nodes, n)
			}
		}
		sort.Strings(nodes)
		relevant[i] = nodes
		size *= len(nodes)
		if size > maxProductNodes {
			return nil, fmt.Errorf("%w: binding graph for %v needs more than %d product nodes",
				ErrTooLarge, item, maxProductNodes)
		}
	}

	// Enumerate product vectors and build the product graph: an edge per
	// single-coordinate binding-graph edge.
	g := dag.New()
	index := map[string]int{}
	vectors := Product(relevant)
	for _, v := range vectors {
		index[v.Key()] = g.AddNode()
	}
	for _, v := range vectors {
		from := index[v.Key()]
		for i := 0; i < k; i++ {
			h := r.schema.attrs[i].Domain
			for _, c := range h.BindChildren(v[i]) {
				w := v.Clone()
				w[i] = c
				to, ok := index[w.Key()]
				if !ok {
					continue // child outside the relevant slice
				}
				if err := g.AddEdge(from, to); err != nil {
					return nil, err
				}
			}
		}
	}

	// Tuple nodes: vectors carrying an applicable tuple. Applicability is
	// is-a subsumption; a vector reachable only through preference edges is
	// treated as an intermediate (preferences order binding, they do not
	// extend membership).
	tupleAt := map[int]Tuple{}
	for _, t := range applicable {
		if id, ok := index[t.Item.Key()]; ok {
			tupleAt[id] = t
		}
	}
	itemID := index[item.Key()]

	// Eliminate every non-tuple, non-item node in topological order.
	order, err := g.Topo()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		if id == itemID {
			continue
		}
		if _, isTuple := tupleAt[id]; isTuple {
			continue
		}
		if !g.Has(id) {
			continue
		}
		if err := g.Eliminate(id, keepRedundant); err != nil {
			return nil, err
		}
	}

	predIDs := g.Pred(itemID)
	binders := make([]Tuple, 0, len(predIDs))
	for _, p := range predIDs {
		binders = append(binders, tupleAt[p])
	}
	sort.Slice(binders, func(i, j int) bool { return binders[i].Item.Key() < binders[j].Item.Key() })
	if len(binders) == 0 {
		// All applicable tuples were cut off from the item by elimination;
		// cannot happen for off-path (paths are preserved), but guard.
		return nil, fmt.Errorf("core: internal: no binders for %v despite %d applicable tuples",
			item, len(applicable))
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
	if err := r.validateItem(item); err != nil {
		return nil, err
	}
	applicable := r.Applicable(item)
	bg := &BindingGraph{Item: item.Clone(), Nodes: applicable}

	idx := map[string]int{}
	for i, t := range applicable {
		idx[t.Item.Key()] = i
	}

	// Determine binder indices via the same machinery as Evaluate.
	var binders []Tuple
	if t, ok := r.Lookup(item); ok {
		binders = []Tuple{t}
	} else if len(applicable) > 0 {
		var err error
		binders, err = r.bindersFor(item, applicable, r.mode)
		if err != nil {
			return nil, err
		}
	}
	for _, b := range binders {
		bg.Binders = append(bg.Binders, idx[b.Item.Key()])
	}

	// Edges among tuples: the transitive reduction of the binding order on
	// the applicable tuples, plus edges from each binder to the item (-1).
	sub := r.bindMatrix(applicable)
	for j := range applicable {
		for _, i := range predecessors(sub, j, nil) {
			bg.Edges = append(bg.Edges, [2]int{i, j})
		}
	}
	sort.Slice(bg.Edges, func(x, y int) bool {
		a, b := bg.Edges[x], bg.Edges[y]
		return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
	})
	for _, b := range bg.Binders {
		bg.Edges = append(bg.Edges, [2]int{b, -1})
	}
	return bg, nil
}
