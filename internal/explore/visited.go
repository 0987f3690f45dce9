package explore

// visitedSet is the explorer's membership test for candidate subgraphs: an
// open-addressing hash set of fixed-width bitsets. It replaces the old
// map[string]bool keyed by a per-push interned string, which allocated a
// key and a map cell for every examined subgraph. Inserted sets are copied
// into append-only pages, each entry its hash followed by the set's words,
// so the caller may recycle its bitset buffers immediately, a table rehash
// reads the stored hashes, and a full page is never copied again.
type visitedSet struct {
	words int // words per stored set
	// tab is the open-addressing table: 0 is empty, else a slot holds the
	// entry's hash in its high half and its 1-based index in the low half,
	// so a probe past another entry's slot reads no page.
	tab []uint64
	// pages hold the entries in insertion order, visitedPageEntries to a
	// page; only the first page grows by copying.
	pages [][]uint64
	count int
	// collisions counts probe steps over a non-matching occupied slot —
	// the cost of hash clustering, surfaced as telemetry.
	collisions int64
}

const (
	visitedInitialSlots = 512 // power of two
	visitedPageEntries  = 1024
)

func newVisitedSet(words int) *visitedSet {
	if words < 1 {
		words = 1
	}
	return &visitedSet{words: words, tab: make([]uint64, visitedInitialSlots)}
}

// entry returns stored entry idx: its hash, then its words.
func (vs *visitedSet) entry(idx int) []uint64 {
	n := vs.words + 1
	o := idx % visitedPageEntries * n
	return vs.pages[idx/visitedPageEntries][o : o+n]
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
	tag := h &^ (1<<32 - 1)
	for {
		e := vs.tab[i]
		if e == 0 {
			vs.tab[i] = tag | uint64(vs.count+1)
			vs.store(h, b, xWord, xBit)
			return true
		}
		if e&^(1<<32-1) == tag {
			if s := vs.entry(int(uint32(e)) - 1); s[0] == h && equalPlus(s[1:], b, xWord, xBit) {
				return false
			}
		}
		vs.collisions++
		i = (i + 1) & mask
	}
}

// store appends the entry for b with bit xBit of word xWord also set.
func (vs *visitedSet) store(h uint64, b bitset, xWord int, xBit uint64) {
	k := len(vs.pages) - 1
	if k < 0 || len(vs.pages[k]) == visitedPageEntries*(vs.words+1) {
		var p []uint64
		if k >= 0 {
			p = make([]uint64, 0, visitedPageEntries*(vs.words+1))
		}
		vs.pages = append(vs.pages, p)
		k++
	}
	p := append(vs.pages[k], h)
	o := len(p)
	p = append(p, b...)
	if xWord >= 0 {
		p[o+xWord] |= xBit
	}
	vs.pages[k] = p
	vs.count++
}

// equalPlus reports whether the stored words s are b with bit xBit of
// word xWord also set.
func equalPlus(s []uint64, b bitset, xWord int, xBit uint64) bool {
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
	nt := make([]uint64, len(vs.tab)*2)
	mask := uint64(len(nt) - 1)
	for idx := 0; idx < vs.count; idx++ {
		h := vs.entry(idx)[0]
		i := h & mask
		for nt[i] != 0 {
			i = (i + 1) & mask
		}
		nt[i] = h&^(1<<32-1) | uint64(idx+1)
	}
	vs.tab = nt
}
