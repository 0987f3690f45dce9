package cfu

import "repro/internal/ir"

// opLayout numbers every op that a candidate list's occurrences cover
// densely (each block gets a base offset), so value estimation can keep
// its claimed and used marks in flat slices instead of maps keyed by
// (block, op). A layout depends only on the list and is read-only once
// built; each estimation pass takes its own marks from space.
type opLayout struct {
	cfus []*CFU
	// occs[first[i]:first[i+1]] are cfus[i]'s occurrences, in order.
	first []int
	occs  []occSpan
	// ops holds every occurrence's dense op numbers, concatenated.
	ops  []int32
	size int32
}

// occSpan is one occurrence: its dense ops are ops[lo:hi].
type occSpan struct {
	lo, hi int32
	weight float64
}

func newOpLayout(cfus []*CFU) *opLayout {
	l := &opLayout{cfus: cfus, first: make([]int, len(cfus)+1)}
	base := make(map[*ir.Block]int32)
	for i, c := range cfus {
		for _, o := range c.Occurrences {
			b, ok := base[o.Block]
			if !ok {
				b = l.size
				base[o.Block] = b
				l.size += int32(len(o.Block.Ops))
			}
			lo := int32(len(l.ops))
			for _, op := range o.Ops {
				l.ops = append(l.ops, b+int32(op))
			}
			l.occs = append(l.occs, occSpan{lo: lo, hi: int32(len(l.ops)), weight: o.Weight})
		}
		l.first[i+1] = len(l.occs)
	}
	return l
}

// opSpace is the value estimator shared by combination and selection: a
// layout plus one pass's marks. claimed marks ops that selected CFUs
// already cover. used stamps the ops of occurrences the current walk
// accepted with that walk's epoch, so no walk has to clear it. An opSpace
// is not safe for concurrent use.
type opSpace struct {
	*opLayout
	claimed []bool
	used    []uint32
	epoch   uint32
}

func (l *opLayout) space() *opSpace {
	return &opSpace{opLayout: l, claimed: make([]bool, l.size), used: make([]uint32, l.size)}
}

func newOpSpace(cfus []*CFU) *opSpace { return newOpLayout(cfus).space() }

// value is cfus[i]'s profile-weighted savings over a maximal disjoint
// subset of its occurrences that avoid the claimed ops. Disjointness
// prevents double counting when the same operations appear in overlapping
// occurrences.
func (s *opSpace) value(i int) float64 { return s.walk(i, 0, false) }

// claim adds the savings of the occurrences value(i) counts onto acc, one
// occurrence at a time, and claims their ops so later estimates skip them
// (Figure 4's update step).
func (s *opSpace) claim(i int, acc float64) float64 { return s.walk(i, acc, true) }

// walk visits cfus[i]'s occurrences in order, accepts each one that shares
// no op with the claimed ops or with an occurrence accepted before it, and
// adds its weight times SavedPerExec onto acc.
func (s *opSpace) walk(i int, acc float64, claim bool) float64 {
	s.epoch++
	if s.epoch == 0 {
		clear(s.used)
		s.epoch = 1
	}
	saved := s.cfus[i].SavedPerExec
	for _, o := range s.occs[s.first[i]:s.first[i+1]] {
		ops := s.ops[o.lo:o.hi]
		if s.taken(ops) {
			continue
		}
		for _, d := range ops {
			if claim {
				s.claimed[d] = true
			} else {
				s.used[d] = s.epoch
			}
		}
		acc += o.weight * saved
	}
	return acc
}

func (s *opSpace) taken(ops []int32) bool {
	for _, d := range ops {
		if s.claimed[d] || s.used[d] == s.epoch {
			return true
		}
	}
	return false
}
