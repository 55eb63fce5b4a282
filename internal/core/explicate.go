package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// This file implements the paper's second new relational operator,
// Explicate (§3.3.2): flatten a relation so that the specified attributes
// hold only atomic (leaf) values, preserving the extension exactly.
//
// The algorithm follows the paper: traverse the relation's subsumption
// graph in reverse topologically sorted order (most specific tuples first);
// for the tuple at each node, enumerate the membership of the classes in
// the attributes being explicated; keep each enumerated item unless an
// earlier, more specific tuple has already decided it. One kernel,
// explicate, runs that walk on node ids; Explicate, Extension, ExtensionSize
// and VisitExtension (and through it the algebra's Count) are its visitors.

// explicate is the explication kernel. It walks the tuples most specific
// first — bindOrder backwards — and enumerates each one's product as node
// ids, last column fastest: the leaves under the coordinate in an explicated
// column (every column when explicated is nil), the coordinate itself (-1 if
// its hierarchy no longer has it) in any other. An atom a more specific tuple has decided is skipped; each other one
// is handed to visit with the tuple that decides it, in a slice reused
// between calls. More than maxProductNodes decided atoms is ErrTooLarge, and
// ctx is checked before each tuple.
func (r *Relation) explicate(ctx context.Context, explicated []bool, visit func(t Tuple, atom []int) error) error {
	ts := r.Tuples()
	order, _ := r.bindOrder(ts)
	k := r.schema.Arity()
	decided := newAtomSet(r.schema)
	values := make([][]int, k)
	pos, atom := make([]int, k), make([]int, k)
	n := 0
	for o := len(order) - 1; o >= 0; o-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := ts[order[o]]
		empty := false
		for i, v := range t.Item {
			h := r.schema.attrs[i].Domain
			if explicated == nil || explicated[i] {
				values[i] = h.LeafIDs(h.IDOf(v), values[i][:0])
			} else {
				values[i] = append(values[i][:0], h.IDOf(v))
			}
			empty = empty || len(values[i]) == 0
		}
		if empty {
			continue
		}
		for i := range pos {
			pos[i], atom[i] = 0, values[i][0]
		}
		for i := k - 1; i >= 0; {
			if decided.add(atom) {
				if n >= maxProductNodes {
					return fmt.Errorf("%w: explication of %q exceeds %d tuples",
						ErrTooLarge, r.name, maxProductNodes)
				}
				n++
				if err := visit(t, atom); err != nil {
					return err
				}
			}
			for i = k - 1; i >= 0; i-- {
				if pos[i]++; pos[i] < len(values[i]) {
					atom[i] = values[i][pos[i]]
					break
				}
				pos[i], atom[i] = 0, values[i][0]
			}
		}
	}
	return nil
}

// atomSet is the set of atoms the kernel has decided. An atom packs into one
// uint64, mixed radix over the columns' id ranges (shifted by one, so -1
// packs too), and the set is a sparse bitset over those numbers: one map
// word per 64 of them, the word in use held aside so that a run of atoms
// differing in the last column — the kernel's enumeration order — costs one
// map read and one write. A schema whose ranges overflow 64 bits keys atoms
// by their ids' bytes instead.
type atomSet struct {
	radix []uint64
	words map[uint64]uint64
	at    uint64 // words key of cur; valid while held
	cur   uint64
	held  bool
	wide  map[string]struct{}
	buf   []byte
}

func newAtomSet(s *Schema) *atomSet {
	set := &atomSet{radix: make([]uint64, s.Arity())}
	span := uint64(1)
	for i, a := range s.attrs {
		set.radix[i] = uint64(a.Domain.IDLimit()) + 1
		hi, lo := bits.Mul64(span, set.radix[i])
		if hi != 0 {
			set.wide = map[string]struct{}{}
			return set
		}
		span = lo
	}
	set.words = map[uint64]uint64{}
	return set
}

// add records the atom and reports whether it was not yet recorded.
func (s *atomSet) add(atom []int) bool {
	if s.words != nil {
		var key uint64
		for i, id := range atom {
			key = key*s.radix[i] + uint64(id+1)
		}
		if at := key / 64; !s.held || at != s.at {
			if s.held {
				s.words[s.at] = s.cur
			}
			s.at, s.cur, s.held = at, s.words[at], true
		}
		bit := uint64(1) << (key % 64)
		if s.cur&bit != 0 {
			return false
		}
		s.cur |= bit
		return true
	}
	s.buf = s.buf[:0]
	for _, id := range atom {
		s.buf = binary.AppendVarint(s.buf, int64(id))
	}
	if _, ok := s.wide[string(s.buf)]; ok {
		return false
	}
	s.wide[string(s.buf)] = struct{}{}
	return true
}

// Explicate returns a relation with the same extension in which every
// listed attribute holds only leaf values. With no attributes listed, all
// attributes are explicated; the negated tuples that remain afterwards are
// redundant (their only predecessor is the universal negated tuple) and can
// be removed with a following Consolidate, exactly as the paper describes.
//
// The result is capped: if the enumeration would produce more than
// maxProductNodes tuples, ErrTooLarge is returned.
func (r *Relation) Explicate(attrs ...string) (*Relation, error) {
	return r.ExplicateContext(context.Background(), attrs...)
}

// ExplicateContext is Explicate with cancellation: a long enumeration is
// abandoned with ctx's error at the next tuple boundary.
func (r *Relation) ExplicateContext(ctx context.Context, attrs ...string) (*Relation, error) {
	var explicated []bool
	for _, a := range attrs {
		i, ok := r.schema.Index(a)
		if !ok {
			return nil, fmt.Errorf("%w: no attribute %q in %q", ErrUnknownAttribute, a, r.name)
		}
		if explicated == nil {
			explicated = make([]bool, r.schema.Arity())
		}
		explicated[i] = true
	}
	var ids []int
	var signs []bool
	err := r.explicate(ctx, explicated, func(t Tuple, atom []int) error {
		if slices.Contains(atom, -1) {
			return r.validateItem(t.Item) // a kept coordinate names a removed node
		}
		ids, signs = append(ids, atom...), append(signs, t.Sign)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := newRelation(r.name, r.schema, len(signs))
	out.mode = r.mode
	for n, item := range r.itemsOf(ids) {
		out.put(item.Key(), Tuple{Item: item, Sign: signs[n]})
	}
	return out, nil
}

// itemsOf names atoms given as node ids, k apiece, carving every item out of
// one allocation; each is capped at the arity, so an append to it copies.
func (r *Relation) itemsOf(ids []int) []Item {
	k := r.schema.Arity()
	names := make([]string, len(ids))
	items := make([]Item, len(ids)/k)
	for n := range items {
		items[n] = names[n*k : (n+1)*k : (n+1)*k]
		for i := range items[n] {
			items[n][i] = r.schema.attrs[i].Domain.NameOf(ids[n*k+i])
		}
	}
	return items
}

// VisitExtension calls visit once for each atomic item of the relation's
// flat extension, in no particular order, as node ids in schema order (the
// attribute's Domain.NameOf names them); the slice is reused between calls.
// It costs what Extension costs without naming, keying or sorting an atom,
// and fails where Extension fails: ErrTooLarge past maxProductNodes decided
// atoms, ctx's error at a tuple boundary.
func (r *Relation) VisitExtension(ctx context.Context, visit func(atom []int)) error {
	return r.explicate(ctx, nil, func(t Tuple, atom []int) error {
		if t.Sign {
			visit(atom)
		}
		return nil
	})
}

// Extension returns the relation's unique flat extension — the sorted
// atomic items for which the relation holds (§3, "every hierarchical
// relation must be equivalent to a unique flat relation"): the positive
// atoms of full explication. ErrTooLarge is returned if explication decides
// more than maxProductNodes atoms.
func (r *Relation) Extension() ([]Item, error) {
	return r.ExtensionContext(context.Background())
}

// ExtensionContext is Extension with cancellation.
func (r *Relation) ExtensionContext(ctx context.Context) ([]Item, error) {
	var ids []int
	err := r.VisitExtension(ctx, func(atom []int) { ids = append(ids, atom...) })
	if err != nil || len(ids) == 0 {
		return nil, err
	}
	items := r.itemsOf(ids)
	keys, perm := make([]string, len(items)), make([]int, len(items))
	for n, item := range items {
		keys[n], perm[n] = item.Key(), n
	}
	sort.Slice(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	out := make([]Item, len(perm))
	for n, p := range perm {
		out[n] = items[p]
	}
	return out, nil
}

// AtomicItems enumerates every atomic item of the relation's schema — the
// full product of the attribute domains' leaves — in sorted order.
// ErrTooLarge is returned if the product exceeds maxProductNodes.
func (r *Relation) AtomicItems() ([]Item, error) {
	k := r.schema.Arity()
	perAttr := make([][]string, k)
	size := 1
	for i := 0; i < k; i++ {
		leaves := r.schema.attrs[i].Domain.AllLeaves()
		sort.Strings(leaves)
		perAttr[i] = leaves
		size *= len(leaves)
		if size > maxProductNodes {
			return nil, fmt.Errorf("%w: atomic-item space of %q exceeds %d items",
				ErrTooLarge, r.name, maxProductNodes)
		}
	}
	return Product(perAttr), nil
}

// ExtensionSize returns the number of atomic items in the extension.
func (r *Relation) ExtensionSize() (int, error) {
	n := 0
	if err := r.VisitExtension(context.Background(), func([]int) { n++ }); err != nil {
		return 0, err
	}
	return n, nil
}
