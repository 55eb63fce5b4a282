package flat

import (
	"sort"
	"strings"
)

// MembershipBaseline implements the traditional design the paper's
// footnote 1 describes: "store the class membership in a separate relation
// and keep only a single tuple with a class name, in the standard
// relational model. The problem then is that repeated joins are required,
// causing a degradation in performance."
//
// Facts is a relation whose attribute values may name classes; IsA is the
// binary (parent, child) membership relation holding the DIRECT hierarchy
// edges. Query answering repeatedly joins IsA with itself to climb the
// hierarchy — exactly the repeated joins the paper warns about.
type MembershipBaseline struct {
	// Facts holds one row per stored (possibly class-valued) fact, plus a
	// final sign column "+" or "-".
	Facts *Relation
	// IsA holds the direct hierarchy edges per attribute domain, keyed by
	// the domain name.
	IsA map[string]*Relation
	// domains maps fact attributes to their domain names.
	domains map[string]string
}

// NewMembershipBaseline creates an empty baseline store. attrDomains maps
// each fact attribute to its domain name.
func NewMembershipBaseline(factAttrs []string, attrDomains map[string]string) *MembershipBaseline {
	mb := &MembershipBaseline{
		Facts: New("facts", append(append([]string(nil), factAttrs...), "sign")...),
		IsA:   map[string]*Relation{},
	}
	seen := map[string]bool{}
	for _, a := range factAttrs {
		d := attrDomains[a]
		if !seen[d] {
			seen[d] = true
			mb.IsA[d] = New("isa_"+d, "parent", "child")
		}
	}
	mb.domains = attrDomains
	return mb
}

// AddEdge records a direct is-a edge in the named domain.
func (mb *MembershipBaseline) AddEdge(domain, parent, child string) error {
	return mb.IsA[domain].Insert(parent, child)
}

// AddFact stores a signed fact row.
func (mb *MembershipBaseline) AddFact(sign bool, values ...string) error {
	s := "+"
	if !sign {
		s = "-"
	}
	return mb.Facts.Insert(append(append([]string(nil), values...), s)...)
}

// AncestorsByJoins computes the ancestors of x (including x) in the named
// domain with repeated self-joins of the IsA relation: the frontier
// relation F(node) is joined with IsA(parent, child=node) until a fixpoint
// — one join per hierarchy level, the paper's predicted cost.
//
// It returns the set of ancestors and the number of joins performed.
func (mb *MembershipBaseline) AncestorsByJoins(domain, x string) (map[string]bool, int) {
	isa := mb.IsA[domain]
	anc := map[string]bool{x: true}
	frontier := New("frontier", "child")
	_ = frontier.Insert(x)
	joins := 0
	for frontier.Len() > 0 {
		// frontier(child) ⋈ isa(parent, child) → parents of the frontier
		joined := frontier.NaturalJoin(isa)
		joins++
		next := New("frontier", "child")
		for _, row := range joined.Rows() {
			parent := row[1] // attrs: child, parent
			if !anc[parent] {
				anc[parent] = true
				_ = next.Insert(parent)
			}
		}
		frontier = next
	}
	return anc, joins
}

// Holds answers "does the relation hold for the atomic row x?" the way a
// flat system with a separate membership relation must: climb each
// attribute's hierarchy by repeated joins, gather every applicable fact,
// and apply most-specific-wins (which the flat system must re-implement in
// application code — the paper's point about pushing inference out of the
// database).
//
// attrOrder lists the fact attributes in schema order; depthOf must give
// each node's depth (distance from the domain root) so specificity can be
// compared. Returns the truth value and the total number of joins used.
func (mb *MembershipBaseline) Holds(attrOrder []string, x []string, depthOf func(attr, node string) int) (bool, int) {
	joins := 0
	ancestors := make([]map[string]bool, len(attrOrder))
	for i, attr := range attrOrder {
		a, j := mb.AncestorsByJoins(mb.domains[attr], x[i])
		ancestors[i] = a
		joins += j
	}
	best := -1
	value := false
	for _, row := range mb.Facts.Rows() {
		applicable := true
		depth := 0
		for i := range attrOrder {
			if !ancestors[i][row[i]] {
				applicable = false
				break
			}
			depth += depthOf(attrOrder[i], row[i])
		}
		if !applicable {
			continue
		}
		if depth > best {
			best = depth
			value = row[len(attrOrder)] == "+"
		}
	}
	return value, joins
}

// FactKey renders a fact row canonically (for tests).
func FactKey(values []string, sign bool) string {
	s := "+"
	if !sign {
		s = "-"
	}
	return strings.Join(append(append([]string(nil), values...), s), "\x1f")
}

// SortedDomainNames returns the baseline's domain names, sorted.
func (mb *MembershipBaseline) SortedDomainNames() []string {
	out := make([]string, 0, len(mb.IsA))
	for d := range mb.IsA {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
