package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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
// explicate, runs that walk on node ids for Explicate and for the
// extension, which Extension, ExtensionSize and VisitExtension (and through
// it the algebra's Count) read from a memo kept per relation state.

// explicate is the explication kernel. It walks the rows most specific
// first — the binding order backwards — and enumerates each one's product as
// node ids, last column fastest: the leaves under the coordinate in an
// explicated column (every column when explicated is nil), the coordinate
// itself in any other. An atom a more specific row has decided is skipped;
// each other one is handed to visit with the row that decides it, in a
// slice reused between calls. More than maxProductNodes decided atoms is
// ErrTooLarge, and ctx is checked before each row.
func (r *Relation) explicate(ctx context.Context, explicated []bool, visit func(row int32, atom []int) error) error {
	rows := r.generalFirst()
	k := r.schema.Arity()
	decided := newAtomSet(r.schema)
	values := make([][]int, k)
	pos, atom := make([]int, k), make([]int, k)
	n := 0
	for o := len(rows) - 1; o >= 0; o-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		row := rows[o]
		empty := false
		for i, id := range r.rowIDs(row) {
			if explicated == nil || explicated[i] {
				values[i] = r.schema.attrs[i].Domain.LeafIDs(int(id), values[i][:0])
			} else {
				values[i] = append(values[i][:0], int(id))
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
				if err := visit(row, atom); err != nil {
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
// uint64, mixed radix over the columns' id ranges, and the set is a sparse
// bitset over those numbers: one map word per 64 of them, the word in use
// held aside so that a run of atoms differing in the last column — the
// kernel's enumeration order — costs one map read and one write. A schema
// whose ranges overflow 64 bits keys atoms by their ids' bytes instead.
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
		set.radix[i] = uint64(a.Domain.IDLimit())
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
			key = key*s.radix[i] + uint64(id)
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
	var ids []int32
	var signs []bool
	err := r.explicate(ctx, explicated, func(row int32, atom []int) error {
		for i, id := range atom {
			if !r.schema.attrs[i].Domain.HasID(id) { // a kept coordinate names a removed node
				return r.unknownValue(i, r.rows[row].Item[i])
			}
			ids = append(ids, int32(id))
		}
		signs = append(signs, r.rows[row].Sign)
		return nil
	})
	if err != nil {
		return nil, err
	}
	k := r.schema.Arity()
	out := newRelation(r.name, r.schema, len(signs))
	out.mode = r.mode
	for n, item := range itemsOf(r, ids) {
		out.put(Tuple{Item: item, Sign: signs[n]}, ids[n*k:(n+1)*k])
	}
	return out, nil
}

// itemsOf names atoms given as node ids, k apiece, carving every item out of
// one allocation; each is capped at the arity, so an append to it copies.
func itemsOf[ID int | int32](r *Relation, ids []ID) []Item {
	k := r.schema.Arity()
	names := make([]string, len(ids))
	items := make([]Item, len(ids)/k)
	for n := range items {
		items[n] = names[n*k : (n+1)*k : (n+1)*k]
		for i := range items[n] {
			items[n][i] = r.schema.attrs[i].Domain.NameOf(int(ids[n*k+i]))
		}
	}
	return items
}

// VisitExtension calls visit once for each atomic item of the relation's
// flat extension, in no particular order, as node ids in schema order (the
// attribute's Domain.NameOf names them); visit must not modify the slice.
// It costs what Extension costs without naming, keying or sorting an atom,
// and fails where Extension fails: ErrTooLarge past maxProductNodes decided
// atoms, ctx's error at a tuple boundary or, on a memoized extension, before
// the first atom.
func (r *Relation) VisitExtension(ctx context.Context, visit func(atom []int)) error {
	ids, err := r.extension(ctx)
	if err != nil {
		return err
	}
	k := r.schema.Arity()
	for n := 0; n < len(ids); n += k {
		visit(ids[n : n+k : n+k])
	}
	return nil
}

// extension returns the positive atoms as node ids, k apiece, in kernel
// order, memoized per state. ctx is checked first, so a canceled read fails
// warm as it does cold.
func (r *Relation) extension(ctx context.Context) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return memoized(r, &r.ext, func() ([]int, error) {
		var ids []int
		err := r.explicate(ctx, nil, func(row int32, atom []int) error {
			if r.rows[row].Sign {
				ids = append(ids, atom...)
			}
			return nil
		})
		return ids, err
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

// ExtensionContext is Extension with cancellation. It names and sorts the
// kernel-order ids the relation memoizes per state.
func (r *Relation) ExtensionContext(ctx context.Context) ([]Item, error) {
	ids, err := r.extension(ctx)
	if err != nil || len(ids) == 0 {
		return nil, err
	}
	items := itemsOf(r, ids)
	slices.SortFunc(items, CompareItems)
	return items, nil
}

// AtomicItems enumerates every atomic item of the relation's schema — the
// full product of the attribute domains' leaves — in sorted order.
// ErrTooLarge is returned if the product exceeds maxProductNodes.
func (r *Relation) AtomicItems() ([]Item, error) {
	perAttr := make([][]string, r.schema.Arity())
	size := 1
	for i, a := range r.schema.attrs {
		perAttr[i] = a.Domain.AllLeaves() // sorted
		if size *= len(perAttr[i]); size > maxProductNodes {
			return nil, fmt.Errorf("%w: atomic-item space of %q exceeds %d items",
				ErrTooLarge, r.name, maxProductNodes)
		}
	}
	return Product(perAttr), nil
}

// ExtensionSize returns the number of atomic items in the extension.
func (r *Relation) ExtensionSize() (int, error) {
	ids, err := r.extension(context.Background())
	return len(ids) / r.schema.Arity(), err
}
