package dag

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

// Get reports whether i is in the set. Out-of-range values, negative ones
// included, report false.
func (b Bitset) Get(i int) bool {
	w := i / 64
	if i < 0 || w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)%64)) != 0
}
