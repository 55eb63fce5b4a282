package dag

import (
	"fmt"
	"math/bits"
)

// Bitset is a fixed-capacity set of small non-negative integers used for
// dense reachability computations.
type Bitset []uint64

// NewBitset returns a bitset able to hold values in [0, capacity).
func NewBitset(capacity int) Bitset {
	return make(Bitset, (capacity+63)/64)
}

// Set adds i to the set. i must be within capacity.
func (b Bitset) Set(i int) {
	b[i/64] |= 1 << (uint(i) % 64)
}

// Clear removes i from the set.
func (b Bitset) Clear(i int) {
	b[i/64] &^= 1 << (uint(i) % 64)
}

// Get reports whether i is in the set. Out-of-range values, negative ones
// included, report false.
func (b Bitset) Get(i int) bool {
	w := i / 64
	if i < 0 || w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)%64)) != 0
}

// Or merges other into b. A longer other is tolerated as long as its tail
// beyond the receiver's capacity is all-zero; a set bit that cannot be
// represented in b panics with a descriptive message instead of silently
// dropping reachability information (use OrGrow to merge with growth).
func (b Bitset) Or(other Bitset) {
	n := len(other)
	if n > len(b) {
		for _, w := range other[len(b):] {
			if w != 0 {
				panic(fmt.Sprintf("dag: Bitset.Or: receiver too short (%d < %d words) and tail is nonzero", len(b), len(other)))
			}
		}
		n = len(b)
	}
	for i, w := range other[:n] {
		b[i] |= w
	}
}

// OrGrow merges other into b, growing the result as needed, and returns
// the merged bitset. When no growth is required the receiver's storage is
// reused, so callers must use the return value in place of b.
func (b Bitset) OrGrow(other Bitset) Bitset {
	if len(other) > len(b) {
		grown := make(Bitset, len(other))
		copy(grown, b)
		b = grown
	}
	b.Or(other)
	return b
}

// And intersects b with other in place.
func (b Bitset) And(other Bitset) {
	for i := range b {
		if i < len(other) {
			b[i] &= other[i]
		} else {
			b[i] = 0
		}
	}
}

// Intersects reports whether b and other share a member.
func (b Bitset) Intersects(other Bitset) bool {
	for i := 0; i < len(b) && i < len(other); i++ {
		if b[i]&other[i] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Members returns the set bits in ascending order.
func (b Bitset) Members() []int {
	var out []int
	for i, w := range b {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			out = append(out, i*64+t)
			w &^= 1 << uint(t)
		}
	}
	return out
}

// Clone returns a copy of b.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}
