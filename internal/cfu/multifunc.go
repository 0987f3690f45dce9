package cfu

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/hwlib"
)

// BuildMultiFunction implements the paper's proposed future work of
// "incorporating multi-function CFUs into the selection process": for every
// wildcard pair among the most valuable candidates, it synthesizes a merged
// candidate whose differing node is generalized to the whole opcode class.
// The merged unit costs the class hardware (max member area plus muxing)
// but inherits the occurrences of both parents, so the selector can weigh
// one multi-function unit against two single-function ones on equal terms.
//
// The returned slice contains the original candidates followed by the
// merged ones (with fresh IDs). topK bounds how many candidates, by value,
// participate in pairing (0 = 200).
//
// Pairing records wildcard links on the input candidates, so — like
// Select — concurrent calls over the same candidate slice must be
// serialized by the caller.
func BuildMultiFunction(cfus []*CFU, lib *hwlib.Library, topK int) []*CFU {
	if topK == 0 {
		topK = 200
	}
	// Pair only the most valuable candidates: merging the long tail costs
	// quadratic isomorphism checks for units that would never be selected.
	top := make([]*CFU, len(cfus))
	copy(top, cfus)
	sort.Slice(top, func(a, b int) bool { return top[a].Value > top[b].Value })
	if len(top) > topK {
		top = top[:topK]
	}

	rel := newRelationIndex(cfus)
	out := cfus
	seen := make(map[string]bool)
	for _, a := range top {
		rel.wildcardsFor(a, lib)
		for _, bid := range a.Wildcards {
			b := findByID(cfus, bid)
			if b == nil || b.ID <= a.ID {
				continue // each unordered pair once
			}
			m := mergeWildcardPair(a, b, lib)
			if m == nil {
				continue
			}
			sig := m.Shape.Signature()
			dup := false
			if seen[sig] {
				for _, c := range out {
					if c.Shape.Signature() == sig && graph.Isomorphic(c.Shape, m.Shape) {
						dup = true
						break
					}
				}
			}
			if dup {
				continue
			}
			seen[sig] = true
			m.ID = len(out)
			out = append(out, m)
		}
	}
	return out
}

func findByID(cfus []*CFU, id int) *CFU {
	for _, c := range cfus {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// mergeWildcardPair builds the multi-function candidate for wildcard
// partners a and b, or nil when the pair is not mergeable (differing node
// not found, or no hardware class).
func mergeWildcardPair(a, b *CFU, lib *hwlib.Library) *CFU {
	na, nb, ok := graph.WildcardPair(a.Shape, b.Shape)
	if !ok {
		return nil
	}
	cl := lib.ClassOf(a.Shape.Nodes[na].Code)
	if cl == hwlib.ClassNone || cl != lib.ClassOf(b.Shape.Nodes[nb].Code) {
		return nil
	}
	shape := a.Shape.Clone()
	shape.Nodes[na].Class = uint8(cl)

	m := &CFU{
		Shape:   shape,
		Area:    classAwareArea(shape, lib),
		Latency: classAwareCycles(shape, lib),
	}
	m.SavedPerExec = float64(len(shape.Nodes)) - float64(m.Latency)
	if m.SavedPerExec <= 0 {
		return nil
	}
	m.Occurrences = append(append([]Occurrence(nil), a.Occurrences...), b.Occurrences...)
	m.Value = newOpSpace([]*CFU{m}).value(0)
	return m
}

// classAwareArea sums node areas, charging class hardware for
// multi-function nodes.
func classAwareArea(s *graph.Shape, lib *hwlib.Library) float64 {
	total := 0.0
	for _, n := range s.Nodes {
		if n.Class != 0 {
			total += lib.ClassArea(hwlib.Class(n.Class))
		} else {
			total += lib.Area(n.Code)
		}
	}
	return total
}

// classAwareCycles computes the pipelined latency with worst-case class
// delays at multi-function nodes.
func classAwareCycles(s *graph.Shape, lib *hwlib.Library) int {
	depth := make([]float64, len(s.Nodes))
	max := 0.0
	for i, n := range s.Nodes {
		in := 0.0
		for _, r := range n.Ins {
			if r.Kind == graph.RefNode && depth[r.Index] > in {
				in = depth[r.Index]
			}
		}
		d := lib.Delay(n.Code)
		if n.Class != 0 {
			d = lib.ClassDelay(hwlib.Class(n.Class))
		}
		depth[i] = in + d
		if depth[i] > max {
			max = depth[i]
		}
	}
	c := int(math.Ceil(max))
	if c < 1 {
		c = 1
	}
	return c
}
