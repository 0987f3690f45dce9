package explore

// visitedSet is the explorer's membership test for candidate subgraphs: an
// open-addressing hash set of fixed-width bitsets. It replaces the old
// map[string]bool keyed by a per-push interned string, which allocated a
// key and a map cell for every examined subgraph. Inserted sets are copied
// into one append-only slab, so the caller may recycle its bitset buffers
// immediately; hashes are stored alongside so growth never rehashes.
type visitedSet struct {
	words  int      // words per stored set
	tab    []int32  // open-addressing table; 0 = empty, else 1-based slab index
	slab   []uint64 // len = count*words; insertion-ordered storage
	hashes []uint64 // hash per stored set, parallel to slab entries
	count  int
	// collisions counts probe steps over a non-matching occupied slot —
	// the cost of hash clustering, surfaced as telemetry.
	collisions int64
}

const visitedInitialSlots = 1024 // power of two

func newVisitedSet(words int) *visitedSet {
	if words < 1 {
		words = 1
	}
	return &visitedSet{words: words, tab: make([]int32, visitedInitialSlots)}
}

// insert adds b, plus bit extra when extra >= 0, to the set, reporting
// whether it was newly added. b must be exactly words wide. The extra bit
// lets the explorer test cur ∪ {nb} before building the grown item; it
// touches only the hash, the comparison and the stored copy, never b. The
// bits are copied; b may be reused afterwards.
func (vs *visitedSet) insert(b bitset, extra int) bool {
	// Grow at 3/4 load to keep probe chains short.
	if (vs.count+1)*4 >= len(vs.tab)*3 {
		vs.grow()
	}
	xWord, xBit := -1, uint64(0)
	if extra >= 0 {
		xWord, xBit = extra>>6, uint64(1)<<(uint(extra)&63)
	}
	// Mix the words into one 64-bit hash (splitmix64-style finalizer per
	// word). Deterministic across runs and platforms.
	h := uint64(0x9E3779B97F4A7C15)
	for i, w := range b {
		if i == xWord {
			w |= xBit
		}
		h ^= w
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
		h *= 0x94D049BB133111EB
		h ^= h >> 32
	}
	mask := uint64(len(vs.tab) - 1)
	i := h & mask
	for {
		e := vs.tab[i]
		if e == 0 {
			vs.tab[i] = int32(vs.count + 1)
			vs.slab = append(vs.slab, b...)
			if xWord >= 0 {
				vs.slab[vs.count*vs.words+xWord] |= xBit
			}
			vs.hashes = append(vs.hashes, h)
			vs.count++
			return true
		}
		if idx := int(e - 1); vs.hashes[idx] == h && vs.equal(idx, b, xWord, xBit) {
			return false
		}
		vs.collisions++
		i = (i + 1) & mask
	}
}

// equal reports whether stored set idx is b with bit xBit of word xWord
// also set.
func (vs *visitedSet) equal(idx int, b bitset, xWord int, xBit uint64) bool {
	s := vs.slab[idx*vs.words : (idx+1)*vs.words]
	for i, w := range b {
		if i == xWord {
			w |= xBit
		}
		if s[i] != w {
			return false
		}
	}
	return true
}

func (vs *visitedSet) grow() {
	nt := make([]int32, len(vs.tab)*2)
	mask := uint64(len(nt) - 1)
	for idx := 0; idx < vs.count; idx++ {
		i := vs.hashes[idx] & mask
		for nt[i] != 0 {
			i = (i + 1) & mask
		}
		nt[i] = int32(idx + 1)
	}
	vs.tab = nt
}
