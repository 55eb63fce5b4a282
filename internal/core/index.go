package core

import "slices"

// This file is the planner-facing surface of the secondary tuple indexes:
// per-attribute posting lists (class → tuple keys) maintained by
// Insert/Retract under the relation epoch. The algebra package's cost model
// reads the statistics here to choose between a full scan and an index
// probe, and OverlapCandidates is the probe itself.

// DistinctValues returns the number of distinct values stored in column
// attr across the relation's tuples — the number of posting lists an index
// probe on that column has to consider.
func (r *Relation) DistinctValues(attr int) int {
	if attr < 0 || attr >= len(r.idx) {
		return 0
	}
	return len(r.idx[attr])
}

// PostingCount returns how many stored tuples carry exactly value in column
// attr.
func (r *Relation) PostingCount(attr int, value string) int {
	if attr < 0 || attr >= len(r.idx) {
		return 0
	}
	return len(r.idx[attr][value])
}

// OverlapCandidates returns the tuples whose attr-th coordinate overlaps
// class (one subsumes the other, or they share a descendant), sorted by
// item key. It probes the secondary index and returns exactly the tuples a
// full scan filtered by Overlaps(t.Item[attr], class) would.
func (r *Relation) OverlapCandidates(attr int, class string) []Tuple {
	var out []Tuple
	for _, keys := range r.overlapPostings(attr, class) {
		for _, k := range keys {
			out = append(out, r.tuples[k])
		}
	}
	slices.SortFunc(out, compareTuples)
	return out
}

// overlapPostings returns the posting lists of column attr whose value
// overlaps class. When fewer nodes sit under class than the column has
// posting lists, the overlapping values are enumerated from the hierarchy
// and looked up; otherwise every stored value is tested with Overlaps. A
// write's delta consistency check on an instance-level item takes the first
// route, so it costs the item's ancestor chain however many tuples are
// stored.
func (r *Relation) overlapPostings(attr int, class string) [][]string {
	if attr < 0 || attr >= len(r.idx) {
		return nil
	}
	h := r.schema.attrs[attr].Domain
	if !h.Has(class) {
		return nil
	}
	var out [][]string
	if region, ok := h.OverlapRegion(class, len(r.idx[attr])); ok {
		for _, v := range region {
			if keys := r.idx[attr][v]; len(keys) > 0 {
				out = append(out, keys)
			}
		}
		return out
	}
	for v, keys := range r.idx[attr] {
		if h.Overlaps(v, class) {
			out = append(out, keys)
		}
	}
	return out
}

// TuplesOverlapping returns the stored tuples that overlap at least one of
// the items, sorted by item key. Each item probes the column whose overlapping
// posting lists are shortest and filters on the remaining coordinates.
func (r *Relation) TuplesOverlapping(items []Item) []Tuple {
	seen := map[string]bool{}
	var out []Tuple
	for _, it := range items {
		if r.validateItem(it) != nil {
			return r.Tuples() // no region to probe: every tuple is a candidate
		}
		var best [][]string
		bestCost := -1
		for i, v := range it {
			lists := r.overlapPostings(i, v)
			cost := 0
			for _, keys := range lists {
				cost += len(keys)
			}
			if bestCost < 0 || cost < bestCost {
				best, bestCost = lists, cost
			}
		}
		for _, keys := range best {
			for _, k := range keys {
				if t := r.tuples[k]; !seen[k] && r.Overlapping(t.Item, it) {
					seen[k] = true
					out = append(out, t)
				}
			}
		}
	}
	slices.SortFunc(out, compareTuples)
	return out
}

// IndexStats summarizes one relation column for the cost model.
type IndexStats struct {
	Attr     string // attribute name
	Distinct int    // distinct stored values (posting lists)
	Tuples   int    // stored tuples (cardinality)
	Warm     bool   // the domain's O(1) subsumption label index is built
}

// Stats returns per-column index statistics in schema order.
func (r *Relation) Stats() []IndexStats {
	out := make([]IndexStats, r.schema.Arity())
	for i, a := range r.schema.attrs {
		out[i] = IndexStats{
			Attr:     a.Name,
			Distinct: len(r.idx[i]),
			Tuples:   len(r.tuples),
			Warm:     a.Domain.IndexWarm(),
		}
	}
	return out
}
