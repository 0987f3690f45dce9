package cfu

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Occurrence is one place in the program where a CFU's pattern appears.
type Occurrence struct {
	Block *ir.Block
	DFG   *ir.DFG
	// Ops are the occurrence's op indices within Block, ascending.
	Ops    []int
	Weight float64
}

// CFU is a candidate custom function unit: an equivalence class of
// discovered subgraphs plus its hardware estimates.
type CFU struct {
	ID    int
	Shape *graph.Shape
	// Area is the unit's die area in adder units; Latency its pipelined
	// whole-cycle latency.
	Area    float64
	Latency int
	// SavedPerExec is the estimated cycles saved each time one occurrence
	// executes on the CFU instead of as primitive operations.
	SavedPerExec float64
	// Occurrences are all discovered instances, possibly overlapping.
	Occurrences []Occurrence
	// Value is the profile-weighted cycle-savings estimate over a maximal
	// disjoint subset of occurrences.
	Value float64
	// Subsumes / SubsumedBy record the identity-input relationship: this
	// CFU can execute every pattern of the CFUs it subsumes.
	Subsumes   []int
	SubsumedBy []int
	// Wildcards lists CFUs identical to this one except for one node whose
	// opcode falls in the same hardware class, so both can share one
	// multi-function unit.
	Wildcards []int
	// Variants are the subsumed-subgraph patterns this CFU's hardware can
	// also execute, for the compiler's generalized matching. They are
	// generated lazily (selection only pays for the CFUs it picks); the
	// sync.Once makes that lazy fill safe when goroutines share a
	// candidate list read-only.
	Variants     []*graph.Shape
	variantsOnce sync.Once
}

// Name returns the CFU's mnemonic, e.g. "cfu3<shl-and-add>".
func (c *CFU) Name() string { return fmt.Sprintf("cfu%d<%s>", c.ID, c.Shape.Mnemonic()) }

// CombineOptions tunes the combination stage.
type CombineOptions struct {
	// Telemetry, when non-nil, receives the combine span and the
	// candidate-in/CFU-out counters.
	Telemetry *telemetry.Registry
	// Ctx, when non-nil, lets the caller cancel combination; the stage is
	// anytime and returns the CFUs grouped so far (CombinePartial reports
	// the truncation).
	Ctx context.Context
}

// Combine groups the explorer's candidates into candidate CFUs, estimates
// their value from profile weights, and records subsumption and wildcard
// relationships.
func Combine(res *explore.Result, lib *hwlib.Library, opts CombineOptions) []*CFU {
	cfus, _ := CombinePartial(res, lib, opts)
	return cfus
}

// CombinePartial is Combine with the anytime contract surfaced: when
// opts.Ctx is canceled mid-run it stops grouping, finishes value
// estimation for the CFUs built so far, and returns truncated=true. The
// partial CFU list is internally consistent (every returned CFU carries
// only the occurrences already folded in), just not exhaustive.
func CombinePartial(res *explore.Result, lib *hwlib.Library, opts CombineOptions) (out []*CFU, truncated bool) {
	defer opts.Telemetry.StartSpan("combine")()
	var cfus []*CFU
	// Most candidates open a CFU of their own (8132 candidates make 7594
	// CFUs in gsmdecode), so size the index for them up front.
	bySig := make(map[string][]*CFU, len(res.Candidates))
	// Candidates come in runs from one block. Each run's candidates are
	// grouped by isomorphism in a shape index: the index of the corpus
	// entry they were replayed from or memoized into, built by the first
	// combination that reads it, or else one built here for the run. A
	// candidate's CFU is then found once per class, and a CFU opened by a
	// class keeps the class's shape.
	var (
		sb            graph.ShapeBuilder
		idx           *graph.ShapeIndex
		homes         []*CFU // class → CFU, for the current run
		runStart      int
		runEnd        int
		runBuilt      bool
		built, reused int64
	)
	cands := res.Candidates
	for ci := range cands {
		if opts.Ctx != nil && ci%64 == 0 {
			select {
			case <-opts.Ctx.Done():
				truncated = true
			default:
			}
			if truncated {
				break
			}
		}
		cand := &cands[ci]
		if ci == runEnd {
			runStart, runEnd = ci, runOf(cands, ci)
			idx, runBuilt = shapeIndex(&sb, cands[runStart:runEnd])
			homes = append(homes[:0], make([]*CFU, len(idx.Shapes))...)
		}
		if runBuilt {
			built++
		} else {
			reused++
		}
		pos := ci - runStart
		if cand.Entry != nil {
			pos = cand.EntryIndex
		}
		cls := idx.Class[pos]
		home := homes[cls]
		if home == nil {
			shape := idx.Shapes[cls]
			for _, c := range bySig[shape.Signature()] {
				if graph.Isomorphic(c.Shape, shape) {
					home = c
					break
				}
			}
			if home == nil {
				home = &CFU{
					ID:      len(cfus),
					Shape:   shape,
					Area:    shape.Area(lib),
					Latency: shape.Cycles(lib),
				}
				// Cycles saved per execution: the subgraph's ops each
				// occupy the single integer issue slot for a cycle in the
				// baseline, while the CFU issues once and completes in its
				// latency.
				home.SavedPerExec = float64(len(shape.Nodes)) - float64(home.Latency)
				cfus = append(cfus, home)
				bySig[shape.Signature()] = append(bySig[shape.Signature()], home)
			}
			homes[cls] = home
		}
		home.Occurrences = append(home.Occurrences, Occurrence{Block: cand.Block, DFG: cand.DFG, Ops: cand.Ops, Weight: cand.Block.Weight})
	}

	// Drop CFUs that save nothing: a one-op CFU executes in the same cycle
	// count as the op itself.
	kept := cfus[:0]
	for _, c := range cfus {
		if c.SavedPerExec > 0 {
			c.ID = len(kept)
			kept = append(kept, c)
		}
	}
	cfus = kept

	space := newOpSpace(cfus)
	for i, c := range cfus {
		c.Value = space.value(i)
	}
	opts.Telemetry.Add("combine.candidates.in", int64(len(res.Candidates)))
	opts.Telemetry.Add("combine.cfus.out", int64(len(cfus)))
	opts.Telemetry.Add("combine.shapes.built", built)
	opts.Telemetry.Add("combine.shapes.reused", reused)
	if truncated {
		opts.Telemetry.Add("combine.truncated", 1)
	}
	return cfus, truncated
}

// runOf returns the end of the run of candidates starting at i: the
// candidates after it that share its corpus entry and its DFG.
func runOf(cands []explore.Candidate, i int) int {
	e, d := cands[i].Entry, cands[i].DFG
	j := i + 1
	for j < len(cands) && cands[j].Entry == e && cands[j].DFG == d {
		j++
	}
	return j
}

// shapeIndex returns the shape index of a run of candidates, and whether
// it was built for this call. A run from a corpus entry reads the entry's
// index, which the entry builds once; any other run gets one of its own.
func shapeIndex(sb *graph.ShapeBuilder, run []explore.Candidate) (*graph.ShapeIndex, bool) {
	if e := run[0].Entry; e != nil {
		return e.Shapes(sb, run[0].DFG)
	}
	return sb.Index(run[0].DFG, len(run), func(i int) []int { return run[i].Ops }), true
}

// AnalyzeRelationships generates subsumed variants and records the
// subsumption and wildcard links for every CFU. The selection stage does
// this lazily for the handful of CFUs it picks; call this eagerly only when
// the whole candidate list must carry its relationships (reports, tests).
func AnalyzeRelationships(cfus []*CFU, lib *hwlib.Library) {
	for _, c := range cfus {
		ensureVariants(c)
	}
	rel := newRelationIndex(cfus)
	for _, c := range cfus {
		rel.subsumptionFor(c)
		rel.wildcardsFor(c, lib)
	}
}

// maxVariants caps the subsumed variants generated for one CFU.
const maxVariants = 64

func ensureVariants(c *CFU) {
	c.variantsOnce.Do(func() {
		if c.Variants != nil {
			return // pre-populated (e.g. decoded from an MDES)
		}
		c.Variants = graph.SubsumedVariants(c.Shape, maxVariants)
		if c.Variants == nil {
			c.Variants = []*graph.Shape{}
		}
	})
}

// relationIndex buckets candidates so per-CFU relationship discovery does
// not scan the whole list.
type relationIndex struct {
	cfus     []*CFU
	bySig    map[string][]*CFU
	byDims   map[[3]int][]*CFU
	subsDone map[int]bool
	wildDone map[int]bool
}

func newRelationIndex(cfus []*CFU) *relationIndex {
	r := &relationIndex{
		cfus:     cfus,
		bySig:    make(map[string][]*CFU),
		byDims:   make(map[[3]int][]*CFU),
		subsDone: make(map[int]bool),
		wildDone: make(map[int]bool),
	}
	for _, c := range cfus {
		r.bySig[c.Shape.Signature()] = append(r.bySig[c.Shape.Signature()], c)
		k := [3]int{len(c.Shape.Nodes), c.Shape.NumInputs, len(c.Shape.Outputs)}
		r.byDims[k] = append(r.byDims[k], c)
	}
	return r
}

// fresh returns an index sharing r's buckets with its own done sets, so a
// new selection pass re-examines every CFU it picks.
func (r *relationIndex) fresh() *relationIndex {
	return &relationIndex{
		cfus:     r.cfus,
		bySig:    r.bySig,
		byDims:   r.byDims,
		subsDone: make(map[int]bool),
		wildDone: make(map[int]bool),
	}
}

// subsumptionFor records which candidates a's hardware subsumes: every
// candidate whose pattern is isomorphic to one of a's variants.
func (r *relationIndex) subsumptionFor(a *CFU) {
	if r.subsDone[a.ID] {
		return
	}
	r.subsDone[a.ID] = true
	ensureVariants(a)
	for _, v := range a.Variants {
		for _, b := range r.bySig[v.Signature()] {
			if b == a || len(b.Shape.Nodes) >= len(a.Shape.Nodes) {
				continue
			}
			if graph.Isomorphic(v, b.Shape) {
				if !containsInt(a.Subsumes, b.ID) {
					a.Subsumes = append(a.Subsumes, b.ID)
					b.SubsumedBy = append(b.SubsumedBy, a.ID)
				}
			}
		}
	}
}

// wildcardsFor records a's wildcard partners: candidates of identical
// structure differing at one node whose opcodes share a hardware class.
func (r *relationIndex) wildcardsFor(a *CFU, lib *hwlib.Library) {
	if r.wildDone[a.ID] {
		return
	}
	r.wildDone[a.ID] = true
	k := [3]int{len(a.Shape.Nodes), a.Shape.NumInputs, len(a.Shape.Outputs)}
	for _, b := range r.byDims[k] {
		if b == a || containsInt(a.Wildcards, b.ID) {
			continue
		}
		na, nb, ok := graph.WildcardPair(a.Shape, b.Shape)
		if !ok {
			continue
		}
		ca := lib.ClassOf(a.Shape.Nodes[na].Code)
		cb := lib.ClassOf(b.Shape.Nodes[nb].Code)
		if ca == hwlib.ClassNone || ca != cb {
			continue
		}
		a.Wildcards = append(a.Wildcards, b.ID)
		b.Wildcards = append(b.Wildcards, a.ID)
	}
	sort.Ints(a.Wildcards)
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// RoundArea quantizes an area to selection granularity.
func RoundArea(a float64) float64 { return math.Round(a*100) / 100 }
