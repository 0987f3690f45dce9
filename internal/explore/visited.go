package explore

import "math"

// visitedSet is the explorer's membership test for candidate subgraphs: an
// open-addressing hash set of fixed-width bitsets. It replaces the old
// map[string]bool keyed by a per-push interned string, which allocated a
// key and a map cell for every examined subgraph. Inserted sets are copied
// into append-only pages, each entry its hash, its price and then the
// set's words, so the caller may recycle its bitset buffers immediately, a
// table rehash reads the stored hashes, and a full page is never copied
// again.
//
// An entry's price is the subgraph's latency and port counts, which depend
// only on the set: the enumerative search reads them back for a growth
// direction that reaches an already-visited subgraph instead of pricing it
// again. Area is not stored, because it is a float sum whose bits depend on
// the order the ops were added.
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
	// visitedHeader is the words an entry stores before the set: its hash,
	// its latency's bits and its ports (inputs high, outputs low).
	visitedHeader = 3
)

func newVisitedSet(words int) *visitedSet {
	if words < 1 {
		words = 1
	}
	return &visitedSet{words: words, tab: make([]uint64, visitedInitialSlots)}
}

// entry returns stored entry idx: its header, then its words.
func (vs *visitedSet) entry(idx int) []uint64 {
	n := vs.words + visitedHeader
	o := idx % visitedPageEntries * n
	return vs.pages[idx/visitedPageEntries][o : o+n]
}

// hash mixes b, plus bit extra when extra >= 0, into one 64-bit hash
// (splitmix64-style finalizer per word). Deterministic across runs and
// platforms.
func hash(b bitset, extra int) uint64 {
	xWord, xBit := wordBit(extra)
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
	return h
}

// wordBit returns the word and bit of op extra, or (-1, 0) when extra < 0.
func wordBit(extra int) (int, uint64) {
	if extra < 0 {
		return -1, 0
	}
	return extra >> 6, uint64(1) << (uint(extra) & 63)
}

// find looks up b, plus bit extra when extra >= 0, returning the entry's
// index, or -1 when the set is new, and its hash, which add takes back.
// The extra bit lets the explorer test cur ∪ {nb} before building the
// grown item; it touches only the hash and the comparison, never b.
func (vs *visitedSet) find(b bitset, extra int) (int, uint64) {
	h := hash(b, extra)
	xWord, xBit := wordBit(extra)
	mask := uint64(len(vs.tab) - 1)
	tag := h &^ (1<<32 - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := vs.tab[i]
		if e == 0 {
			return -1, h
		}
		if e&^(1<<32-1) == tag {
			idx := int(uint32(e)) - 1
			if s := vs.entry(idx); s[0] == h && equalPlus(s[visitedHeader:], b, xWord, xBit) {
				return idx, h
			}
		}
		vs.collisions++
	}
}

// add stores b, plus bit extra when extra >= 0, priced p. The set must be
// absent, and h must be its hash as find returned it; other adds may come
// between the two. The bits are copied; b may be reused afterwards.
func (vs *visitedSet) add(h uint64, b bitset, extra int, p price) {
	// Grow at 3/4 load to keep probe chains short.
	if (vs.count+1)*4 >= len(vs.tab)*3 {
		vs.grow()
	}
	mask := uint64(len(vs.tab) - 1)
	i := h & mask
	for vs.tab[i] != 0 {
		i = (i + 1) & mask
	}
	vs.tab[i] = h&^(1<<32-1) | uint64(vs.count+1)

	k := len(vs.pages) - 1
	if k < 0 || len(vs.pages[k]) == visitedPageEntries*(vs.words+visitedHeader) {
		var pg []uint64
		if k >= 0 {
			pg = make([]uint64, 0, visitedPageEntries*(vs.words+visitedHeader))
		}
		vs.pages = append(vs.pages, pg)
		k++
	}
	pg := append(vs.pages[k], h, math.Float64bits(p.latency), uint64(p.in)<<32|uint64(uint32(p.out)))
	o := len(pg)
	pg = append(pg, b...)
	if xWord, xBit := wordBit(extra); xWord >= 0 {
		pg[o+xWord] |= xBit
	}
	vs.pages[k] = pg
	vs.count++
}

// insert adds b, plus bit extra when extra >= 0, priced p, reporting
// whether it was newly added.
func (vs *visitedSet) insert(b bitset, extra int, p price) bool {
	idx, h := vs.find(b, extra)
	if idx >= 0 {
		return false
	}
	vs.add(h, b, extra, p)
	return true
}

// price returns entry idx's latency and ports; its area is left zero.
func (vs *visitedSet) price(idx int) price {
	s := vs.entry(idx)
	return price{latency: math.Float64frombits(s[1]), in: int(s[2] >> 32), out: int(uint32(s[2]))}
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
