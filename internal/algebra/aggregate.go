package algebra

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"hrdb/internal/core"
)

// GroupCount is one row of a Count result.
type GroupCount struct {
	Group core.Item // values of the group-by attributes
	N     int
}

// Count computes the size of the relation's extension, optionally grouped
// by attributes. This is the statistical use the paper gives for Explicate
// (§3.3.2): counts are taken over the unique flat extension, never over the
// stored (compact, possibly redundant) tuples. With no group-by attributes
// the result is a single group with the empty item. Groups come sorted by
// their item key.
func Count(r *core.Relation, groupBy ...string) ([]GroupCount, error) {
	return CountContext(context.Background(), r, groupBy...)
}

// CountContext is Count with cancellation. It folds the extension's atoms,
// as node ids, straight into one counter per group: nothing is named or
// allocated per atom.
func CountContext(ctx context.Context, r *core.Relation, groupBy ...string) ([]GroupCount, error) {
	s := r.Schema()
	cols := make([]int, len(groupBy))
	for i, a := range groupBy {
		j, ok := s.Index(a)
		if !ok {
			return nil, fmt.Errorf("%w: count: no attribute %q in %q", core.ErrUnknownAttribute, a, r.Name())
		}
		cols[i] = j
	}
	groups := map[string]*GroupCount{}
	var key []byte
	err := r.VisitExtension(ctx, func(atom []int) {
		key = key[:0]
		for _, c := range cols {
			key = binary.AppendUvarint(key, uint64(atom[c]))
		}
		gc, ok := groups[string(key)]
		if !ok {
			gc = &GroupCount{Group: make(core.Item, len(cols))}
			for i, c := range cols {
				gc.Group[i] = s.Attr(c).Domain.NameOf(atom[c])
			}
			groups[string(key)] = gc
		}
		gc.N++
	})
	if err != nil {
		return nil, err
	}
	out := make([]GroupCount, 0, len(groups))
	for _, gc := range groups {
		out = append(out, *gc)
	}
	slices.SortFunc(out, func(a, b GroupCount) int { return core.CompareItems(a.Group, b.Group) })
	if len(groupBy) == 0 && len(out) == 0 {
		out = append(out, GroupCount{Group: core.Item{}})
	}
	return out, nil
}

// FormatCounts renders count results as an aligned table (deterministic).
func FormatCounts(title string, groupBy []string, counts []GroupCount) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, gc := range counts {
		if len(gc.Group) == 0 {
			fmt.Fprintf(&b, "  count = %d\n", gc.N)
			continue
		}
		pairs := make([]string, len(gc.Group))
		for i, v := range gc.Group {
			pairs[i] = fmt.Sprintf("%s=%s", groupBy[i], v)
		}
		fmt.Fprintf(&b, "  %s: %d\n", strings.Join(pairs, ", "), gc.N)
	}
	return b.String()
}
