package dag

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers, the row
// type of dense tuple×tuple matrices.
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
