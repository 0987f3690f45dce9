package explore

import "math/bits"

// bitset is a fixed-width bit vector used for the explorer's hot data:
// candidate membership, dependence masks, and value-consumption masks.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) orInto(o bitset) {
	for i := range o {
		b[i] |= o[i]
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// andNotCount returns popcount(b &^ mask); mask may be shorter than b, in
// which case the missing words are zero.
func (b bitset) andNotCount(mask bitset) int {
	n := 0
	for i, w := range b {
		if i < len(mask) {
			w &^= mask[i]
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// andCount returns popcount(b & mask); the shorter operand's missing words
// are zero.
func (b bitset) andCount(mask bitset) int {
	m := len(b)
	if len(mask) < m {
		m = len(mask)
	}
	n := 0
	for i := 0; i < m; i++ {
		n += bits.OnesCount64(b[i] & mask[i])
	}
	return n
}

// zero clears every word.
func (b bitset) zero() {
	for i := range b {
		b[i] = 0
	}
}

// intersects reports whether b and o share any set bit.
func (b bitset) intersects(o bitset) bool {
	m := len(b)
	if len(o) < m {
		m = len(o)
	}
	for i := 0; i < m; i++ {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// forEach calls f for every set bit not present in skip (skip may be nil).
func (b bitset) forEach(skip bitset, f func(i int)) {
	for wi, w := range b {
		if skip != nil && wi < len(skip) {
			w &^= skip[wi]
		}
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f(i)
		}
	}
}
