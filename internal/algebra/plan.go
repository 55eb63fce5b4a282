package algebra

import (
	"context"
	"fmt"
	"strings"

	"hrdb/internal/core"
)

// This file is the cost-based planner for the candidate-enumeration phase
// of Select and Join. Signing candidates is pointwise and already fans out
// through the core batch evaluator; what the planner chooses is how the
// candidates are found — a full scan of the stored tuples, or a probe of
// the secondary per-attribute posting lists with one overlap test per
// distinct stored value. Either path enumerates the same candidate set, so
// plans never change results, only work.

// Access names the candidate-enumeration strategy an operator uses.
type Access string

const (
	// FullScan enumerates candidates from every stored tuple.
	FullScan Access = "full-scan"
	// IndexProbe enumerates candidates from secondary-index posting lists,
	// testing one representative per distinct stored value.
	IndexProbe Access = "index-probe"
)

// Cost-model constants. Units are arbitrary "work" (roughly one subsumption
// test); only ratios matter. An overlap test against a warm label index is
// the baseline; a cold index amortizes its build into the first probes; an
// enumerated candidate pays for its meets computation and its share of the
// batch evaluation, which dwarfs a label compare.
const (
	costOverlapWarm = 1.0
	costOverlapCold = 4.0
	costCandidate   = 8.0
	// joinSelectivity estimates the fraction of inner tuples whose shared
	// coordinate overlaps a given outer value.
	joinSelectivity = 0.25
	// minIndexLen is the relation size below which planning is pointless:
	// a scan of a handful of tuples beats any probe bookkeeping.
	minIndexLen = 8
)

// Plan describes how one operator enumerates its candidates: the access
// path the cost model chose and the estimates that drove the choice. It is
// what EXPLAIN renders.
type Plan struct {
	Op       string // select, join, union, intersect, difference
	Relation string // relation the access path probes or scans
	Access   Access
	Attr     string  // probe attribute (IndexProbe only)
	Class    string  // probe class (select; join probes vary per outer tuple)
	Outer    string  // join only: the side iterated on the outside
	EstRows  int     // estimated candidates enumerated by the chosen path
	Cost     float64 // estimated cost of the chosen path
	ScanCost float64 // estimated cost of the full-scan alternative
	Warm     bool    // probe domain's label index was warm at plan time
	Note     string

	// execution details (attribute positions) not part of the rendering
	attr        int  // probe column in the probed relation
	outAttr     int  // join: matching column in the outer relation
	outerIsLeft bool // join: outer side is the left argument
}

// String renders the plan in the stable, line-oriented format EXPLAIN
// returns over both wire protocols.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: %s", p.Op, p.Relation, p.Access)
	if p.Access == IndexProbe {
		fmt.Fprintf(&b, " on %s", p.Attr)
		if p.Class != "" {
			fmt.Fprintf(&b, " under %s", p.Class)
		}
	}
	if p.Outer != "" {
		fmt.Fprintf(&b, " (outer: %s)", p.Outer)
	}
	fmt.Fprintf(&b, "\n  est candidates: %d, cost: %.1f (full scan: %.1f)", p.EstRows, p.Cost, p.ScanCost)
	if p.Access == IndexProbe {
		if p.Warm {
			b.WriteString("\n  label index: warm")
		} else {
			b.WriteString("\n  label index: cold (built on first probe)")
		}
	}
	if p.Note != "" {
		fmt.Fprintf(&b, "\n  note: %s", p.Note)
	}
	return b.String()
}

// forceScanKey marks a context under which the planner is bypassed.
type forceScanKey struct{}

// WithForceScan returns a context under which SelectContext and JoinContext
// ignore the planner and enumerate candidates by full scan — the reference
// path that index-probe plans are verified against in tests.
func WithForceScan(ctx context.Context) context.Context {
	return context.WithValue(ctx, forceScanKey{}, true)
}

// ScanForced reports whether ctx comes from WithForceScan.
func ScanForced(ctx context.Context) bool {
	v, _ := ctx.Value(forceScanKey{}).(bool)
	return v
}

// planSelect chooses the access path for enumerating the tuples of r that
// overlap the selection region. An attribute is usable when its region
// coordinate actually constrains it (it is not the domain root).
func planSelect(r *core.Relation, region core.Item) *Plan {
	s := r.Schema()
	p := &Plan{
		Op:       "select",
		Relation: r.Name(),
		Access:   FullScan,
		ScanCost: float64(r.Len()) * costCandidate,
		EstRows:  r.Len(),
		attr:     -1,
	}
	p.Cost = p.ScanCost
	if r.Len() < minIndexLen {
		p.Note = fmt.Sprintf("relation below index threshold (%d tuples)", r.Len())
		return p
	}
	conditioned := false
	for i := 0; i < s.Arity(); i++ {
		h := s.Attr(i).Domain
		if region[i] == h.Domain() {
			continue // unconditioned column: every tuple overlaps
		}
		conditioned = true
		warm := h.IndexWarm()
		overlapCost := costOverlapCold
		if warm {
			overlapCost = costOverlapWarm
		}
		// Values that can overlap the region class by subsumption are its
		// ancestors, its descendants, and itself; overlap through a shared
		// descendant only adds multi-inheritance corner cases, so the
		// sub-hierarchy fraction is the row estimate.
		id := h.IDOf(region[i])
		frac := float64(h.Reach(id).Count()+len(h.AncestorIDs(id))) / float64(h.Len())
		rows := int(float64(r.Len())*frac) + 1
		cost := float64(r.DistinctValues(i))*overlapCost + float64(rows)*costCandidate
		if cost < p.Cost {
			p.Access = IndexProbe
			p.Attr = s.Attr(i).Name
			p.Class = region[i]
			p.Cost = cost
			p.EstRows = rows
			p.Warm = warm
			p.attr = i
		}
	}
	if !conditioned {
		p.Note = "no condition narrows a column: every tuple overlaps the region"
	}
	return p
}

// planJoin chooses the outer side and probe attribute for a natural join.
// With no shared attributes the cross product is unavoidable.
func planJoin(a, b *core.Relation, shared []sharedCol) *Plan {
	p := &Plan{
		Op:       "join",
		Relation: b.Name(),
		Outer:    a.Name(),
		Access:   FullScan,
		ScanCost: float64(a.Len()) * float64(b.Len()) * costCandidate,
		EstRows:  a.Len() * b.Len(),
		attr:     -1,
	}
	p.Cost = p.ScanCost
	if len(shared) == 0 {
		p.Note = "no shared attributes: cross product"
		return p
	}
	outer, inner := a, b
	outerIsLeft := true
	if b.Len() < a.Len() {
		outer, inner = b, a
		outerIsLeft = false
	}
	if inner.Len() < minIndexLen {
		p.Note = fmt.Sprintf("inner side below index threshold (%d tuples)", inner.Len())
		return p
	}
	for _, sc := range shared {
		innerAttr, outerAttr := sc.bi, sc.ai
		if !outerIsLeft {
			innerAttr, outerAttr = sc.ai, sc.bi
		}
		h := inner.Schema().Attr(innerAttr).Domain
		warm := h.IndexWarm()
		overlapCost := costOverlapCold
		if warm {
			overlapCost = costOverlapWarm
		}
		matches := float64(inner.Len())*joinSelectivity + 1
		cost := float64(outer.Len()) * (float64(inner.DistinctValues(innerAttr))*overlapCost + matches*costCandidate)
		if cost < p.Cost {
			p.Access = IndexProbe
			p.Relation = inner.Name()
			p.Outer = outer.Name()
			p.Attr = inner.Schema().Attr(innerAttr).Name
			p.Cost = cost
			p.EstRows = int(float64(outer.Len()) * matches)
			p.Warm = warm
			p.attr = innerAttr
			p.outAttr = outerAttr
			p.outerIsLeft = outerIsLeft
		}
	}
	return p
}

// SelectRegion folds a selection's conditions into one item: componentwise
// the narrowest class each attribute is restricted to (the domain root
// where unconditioned). Conditions on the same attribute intersect. Only
// the stored tuples overlapping the region can reach the selection.
func SelectRegion(r *core.Relation, conds ...Condition) (core.Item, error) {
	s := r.Schema()
	region := make(core.Item, s.Arity())
	for i := 0; i < s.Arity(); i++ {
		region[i] = s.Attr(i).Domain.Domain()
	}
	for _, c := range conds {
		i, ok := s.Index(c.Attr)
		if !ok {
			return nil, fmt.Errorf("%w: select: no attribute %q in %q", core.ErrUnknownAttribute, c.Attr, r.Name())
		}
		h := s.Attr(i).Domain
		if !h.Has(c.Class) {
			return nil, fmt.Errorf("%w: select: %q is not in domain %q", core.ErrUnknownValue, c.Class, h.Domain())
		}
		// Intersect with any previous condition on the same attribute.
		switch {
		case h.Subsumes(region[i], c.Class):
			region[i] = c.Class
		case h.Subsumes(c.Class, region[i]):
			// keep the narrower existing region
		default:
			meets := h.Meets(region[i], c.Class)
			if len(meets) != 1 {
				return nil, fmt.Errorf("%w: select: conditions %q and %q on %q do not intersect in a unique class",
					core.ErrIncompatible, region[i], c.Class, c.Attr)
			}
			region[i] = meets[0]
		}
	}
	return region, nil
}

// PlanSelect returns the plan SelectContext would execute for the given
// conditions, without running the query.
func PlanSelect(r *core.Relation, conds ...Condition) (*Plan, error) {
	region, err := SelectRegion(r, conds...)
	if err != nil {
		return nil, err
	}
	return planSelect(r, region), nil
}

// PlanJoin returns the plan JoinContext would execute, without running the
// join.
func PlanJoin(a, b *core.Relation) (*Plan, error) {
	shared, _, _, err := joinColumns(a, b)
	if err != nil {
		return nil, err
	}
	return planJoin(a, b, shared), nil
}

// PlanBinOp returns the plan for a binary operator by name: join plans its
// probe side, and the set operations — which must evaluate both operands at
// every candidate — always enumerate both argument tuple sets and their
// pairwise meets.
func PlanBinOp(op string, a, b *core.Relation) (*Plan, error) {
	if op == "join" {
		return PlanJoin(a, b)
	}
	if err := checkUnionCompatible(op, a, b); err != nil {
		return nil, err
	}
	n := a.Len() + b.Len() + a.Len()*b.Len()
	return &Plan{
		Op:       op,
		Relation: a.Name() + ", " + b.Name(),
		Access:   FullScan,
		EstRows:  n,
		Cost:     float64(n) * costCandidate,
		ScanCost: float64(n) * costCandidate,
		Note:     "set operation signs both operand tuple sets and their pairwise meets",
	}, nil
}
