package core

import "slices"

// This file is the planner-facing surface of the postings: per attribute,
// node id → ascending rows, maintained by Insert/Retract under the relation
// epoch. The algebra package's cost model reads the statistics here to
// choose between a full scan and an index probe, and OverlapCandidates is
// the probe itself.

// DistinctValues returns the number of distinct values stored in column
// attr across the relation's tuples — the number of posting lists an index
// probe on that column has to consider.
func (r *Relation) DistinctValues(attr int) int {
	if attr < 0 || attr >= len(r.post) {
		return 0
	}
	return len(r.post[attr])
}

// PostingCount returns how many stored tuples carry exactly value in column
// attr.
func (r *Relation) PostingCount(attr int, value string) int {
	if attr < 0 || attr >= len(r.post) {
		return 0
	}
	return len(r.post[attr][int32(r.schema.attrs[attr].Domain.IDOf(value))])
}

// OverlapCandidates returns the tuples whose attr-th coordinate overlaps
// class (one subsumes the other, or they share a descendant), sorted by
// item key. It probes the postings and returns exactly the tuples a full
// scan filtered by Overlaps(t.Item[attr], class) would.
func (r *Relation) OverlapCandidates(attr int, class string) []Tuple {
	if attr < 0 || attr >= len(r.post) {
		return nil
	}
	id := r.schema.attrs[attr].Domain.IDOf(class)
	if id < 0 {
		return nil
	}
	var rows []int32
	for _, list := range r.overlapPostings(attr, int32(id)) {
		rows = append(rows, list...)
	}
	r.sortRows(rows)
	return r.tuplesOf(rows)
}

// overlapPostings returns the posting lists of column attr whose node
// overlaps the node id. When fewer nodes sit under id than the column has
// posting lists, the overlapping nodes are enumerated from the hierarchy
// and looked up; otherwise every stored node is tested with OverlapsID. A
// write's delta consistency check on an instance-level item takes the first
// route, so it costs the item's ancestor chain however many tuples are
// stored.
func (r *Relation) overlapPostings(attr int, id int32) [][]int32 {
	h, post := r.schema.attrs[attr].Domain, r.post[attr]
	var out [][]int32
	if region, ok := h.OverlapRegionIDs(int(id), len(post)); ok {
		for _, v := range region {
			if rows := post[int32(v)]; len(rows) > 0 {
				out = append(out, rows)
			}
		}
		return out
	}
	for v, rows := range post {
		if h.OverlapsID(int(v), int(id)) {
			out = append(out, rows)
		}
	}
	return out
}

// TuplesOverlapping returns the stored tuples that overlap at least one of
// the items, sorted by item key.
func (r *Relation) TuplesOverlapping(items []Item) []Tuple { return r.tuplesOf(r.overlapping(items)) }

// overlapping returns, in item-key order, the rows that overlap at least one
// of the items. Each item probes the column whose overlapping posting lists
// are shortest and filters on the remaining coordinates.
func (r *Relation) overlapping(items []Item) []int32 {
	var out []int32
	var buf [8]int32
	for _, it := range items {
		ids, err := r.validateItem(it, buf[:0])
		if err != nil {
			return r.sortedRows() // no region to probe: every row is a candidate
		}
		var best [][]int32
		bestCost := -1
		for i, id := range ids {
			lists := r.overlapPostings(i, id)
			cost := 0
			for _, rows := range lists {
				cost += len(rows)
			}
			if bestCost < 0 || cost < bestCost {
				best, bestCost = lists, cost
			}
		}
		for _, rows := range best {
			for _, n := range rows {
				if r.overlapsRows(nil, nil, r.rowIDs(n), ids) {
					out = append(out, n)
				}
			}
		}
	}
	r.sortRows(out)
	return slices.Compact(out)
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
			Distinct: len(r.post[i]),
			Tuples:   r.Len(),
			Warm:     a.Domain.IndexWarm(),
		}
	}
	return out
}
