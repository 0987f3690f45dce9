package graph

import (
	"sort"
	"sync"

	"repro/internal/ir"
)

// matchScratch holds FindMatches's fixed working buffers. Most probes find
// nothing, so paying seven allocations per probe dominated the matcher's
// allocation profile; a pool amortizes them across calls. Buffers are
// returned only on normal exit, when backtracking has already unwound
// usedOp/inputBound/boundStack to their empty state.
type matchScratch struct {
	patDepth   []int
	patReaders []int
	mapping    []int
	usedOp     []bool
	inputBind  []ir.Operand
	inputBound []bool
	boundStack []int
	marks      []uint8 // ir.DFG.Convex's working storage
}

var matchScratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

// sized returns buf resized to n elements, reallocating only when its
// capacity is short. Contents are not cleared.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Match is one occurrence of a pattern in a block's DFG.
type Match struct {
	// NodeToOp maps pattern node index -> block op index.
	NodeToOp []int
	// Set is the matched op-index set.
	Set ir.OpSet
	// Inputs binds each pattern input port to the operand it reads.
	Inputs []ir.Operand
	// Imms holds the occurrence's immediate parameter values in slot order.
	Imms []uint32
}

// MatchStats counts the matcher's candidate filtering work, for telemetry.
// All counters commute, so aggregated totals are deterministic.
type MatchStats struct {
	// SeedsConsidered counts (pattern node, op) pairings the enumerator
	// reached after opcode indexing and used-op screening.
	SeedsConsidered int64
	// SeedsFiltered counts pairings rejected by the precomputed depth and
	// degree feasibility filters before any binding or recursion.
	SeedsFiltered int64
}

// MatchOptions configures the matcher.
type MatchOptions struct {
	// OpMatch decides whether a pattern node opcode may map onto a DFG
	// opcode. Nil means exact equality. Supplying a class-based predicate
	// enables the paper's opcode-class wildcard generalization.
	OpMatch func(pattern, op ir.Opcode) bool
	// ClassOf maps an opcode to its hardware class id; required when the
	// pattern contains multi-function nodes (Node.Class != 0), which match
	// any opcode of the same class regardless of OpMatch.
	ClassOf func(ir.Opcode) uint8
	// OpAllowed, when non-nil, restricts which block ops may participate
	// (the compiler uses it to exclude already-claimed operations).
	OpAllowed func(opIdx int) bool
	// MaxMatches caps the number of matches returned (0 = unlimited).
	MaxMatches int
	// Stats, when non-nil, accumulates the matcher's filter counters.
	Stats *MatchStats
}

// FindMatches enumerates occurrences of pattern s in block DFG d, in the
// style of the VF2 algorithm: partial matches (pattern-node prefixes) are
// extended one node at a time, pruning as soon as an edge, port-binding,
// escape, or convexity constraint fails.
//
// Candidate ops come from the DFG's per-opcode index (exact matching), a
// lazily built class bucket (multi-function nodes), or the data-successor
// lists of already-mapped producers, instead of scanning every block op at
// every level. Two precomputed feasibility filters prune candidates before
// recursion: a node at pattern depth k needs an op at DFG depth >= k, and a
// non-output pattern node needs an op with no live-out register and exactly
// as many data users as the pattern gives it (an output node at least as
// many). Both are invariants of any completed match, so filtering changes
// neither the match set nor its order.
//
// A returned match is guaranteed replaceable by a single custom
// instruction: the op set is convex, values of non-output pattern nodes do
// not escape the set, and every external input is available outside it.
func FindMatches(d *ir.DFG, s *Shape, opts MatchOptions) []Match {
	if len(s.Nodes) == 0 {
		return nil
	}
	exactOrCustom := opts.OpMatch
	// nodeMatch honors multi-function nodes: a class node accepts any
	// opcode in its class; plain nodes defer to OpMatch.
	nodeMatch := func(n Node, o ir.Opcode) bool {
		if n.Class != 0 {
			return opts.ClassOf != nil && opts.ClassOf(o) == n.Class
		}
		if exactOrCustom == nil {
			return n.Code == o
		}
		return exactOrCustom(n.Code, o)
	}
	n := len(s.Nodes)
	blockN := len(d.Block.Ops)

	allowed := func(i int) bool {
		if d.Block.Ops[i].Code == ir.Custom {
			return false
		}
		return opts.OpAllowed == nil || opts.OpAllowed(i)
	}

	scratch := matchScratchPool.Get().(*matchScratch)

	// Per-pattern-node invariants for the feasibility filters: the data
	// depth of each node within the pattern, and how many distinct pattern
	// nodes read it.
	patDepth := sized(scratch.patDepth, n)
	patReaders := sized(scratch.patReaders, n)
	clear(patReaders)
	for i, pn := range s.Nodes {
		dep := 1
		for _, r := range pn.Ins {
			if r.Kind == RefNode {
				if patDepth[r.Index]+1 > dep {
					dep = patDepth[r.Index] + 1
				}
			}
		}
		patDepth[i] = dep
		// Count node i as a reader of each distinct producer it references
		// (Ins lists are tiny, so the duplicate scan is quadratic in <= 3).
		for k, r := range pn.Ins {
			if r.Kind != RefNode {
				continue
			}
			dup := false
			for k2 := 0; k2 < k; k2++ {
				if pn.Ins[k2].Kind == RefNode && pn.Ins[k2].Index == r.Index {
					dup = true
					break
				}
			}
			if !dup {
				patReaders[r.Index]++
			}
		}
	}

	mapping := sized(scratch.mapping, n)
	for i := range mapping {
		mapping[i] = -1
	}
	usedOp := sized(scratch.usedOp, blockN)
	clear(usedOp)
	inputBind := sized(scratch.inputBind, s.NumInputs)
	inputBound := sized(scratch.inputBound, s.NumInputs)
	clear(inputBound)
	boundStack := sized(scratch.boundStack, 0)
	marks := sized(scratch.marks, blockN)

	var results []Match
	var resultHashes []uint64
	var considered, filtered int64

	// Lazily built candidate buckets for class (multi-function) nodes.
	var classBuckets map[uint8][]int32
	classBucket := func(cls uint8) []int32 {
		if b, ok := classBuckets[cls]; ok {
			return b
		}
		var b []int32
		if opts.ClassOf != nil {
			for i := 0; i < blockN; i++ {
				if opts.ClassOf(d.Block.Ops[i].Code) == cls {
					b = append(b, int32(i))
				}
			}
		}
		if classBuckets == nil {
			classBuckets = make(map[uint8][]int32)
		}
		classBuckets[cls] = b
		return b
	}

	// nodeRefOK checks pattern node pi's ins against op (at index oi) args,
	// with the op's first two args swapped when swapped is set. Newly bound
	// input ports are pushed on boundStack; the caller unwinds to its mark.
	nodeRefOK := func(pi, oi int, swapped bool) bool {
		pn := s.Nodes[pi]
		op := d.Block.Ops[oi]
		if len(op.Args) != len(pn.Ins) {
			return false
		}
		for k, r := range pn.Ins {
			j := k
			if swapped {
				if k == 0 {
					j = 1
				} else if k == 1 {
					j = 0
				}
			}
			arg := op.Args[j]
			switch r.Kind {
			case RefNode:
				if arg.Kind != ir.FromOp || arg.Idx != 0 {
					return false
				}
				if j, ok := d.Pos.Lookup(arg.X); !ok || mapping[r.Index] != j {
					return false
				}
			case RefInput:
				// An external input must not be produced by a matched op.
				if arg.Kind == ir.FromOp {
					if j, ok := d.Pos.Lookup(arg.X); ok && usedOp[j] {
						return false
					}
				}
				if inputBound[r.Index] {
					if !inputBind[r.Index].SameValue(arg) {
						return false
					}
				} else {
					inputBind[r.Index] = arg
					inputBound[r.Index] = true
					boundStack = append(boundStack, r.Index)
				}
			case RefImm:
				if arg.Kind != ir.Imm {
					return false
				}
			case RefConst:
				if arg.Kind != ir.Imm || arg.Val != r.Val {
					return false
				}
			}
		}
		return true
	}
	unbindTo := func(mark int) {
		for _, p := range boundStack[mark:] {
			inputBound[p] = false
		}
		boundStack = boundStack[:mark]
	}

	complete := func() {
		// Set-level dedup: a stored hash plus full compare against the
		// already-accepted match with the same hash. Only accepted sets are
		// remembered, mirroring the historical seen-map semantics.
		h := uint64(0)
		for _, oi := range mapping {
			x := uint64(oi) + 0x9E3779B97F4A7C15
			x *= 0xBF58476D1CE4E5B9
			x ^= x >> 29
			h ^= x
		}
		for ri, rh := range resultHashes {
			if rh != h {
				continue
			}
			same := true
			for _, oi := range mapping {
				if !results[ri].Set.Has(oi) {
					same = false
					break
				}
			}
			if same {
				return
			}
		}
		// Escape check: non-output pattern nodes must be internal-only.
		for pi, oi := range mapping {
			if s.IsOutput(pi) {
				continue
			}
			op := d.Block.Ops[oi]
			if op.Dest != 0 {
				return
			}
			for _, u := range d.Users(oi) {
				if !usedOp[u] {
					return
				}
			}
		}
		// Input bindings must not come from inside the set (circularity).
		for p := 0; p < s.NumInputs; p++ {
			if inputBound[p] && inputBind[p].Kind == ir.FromOp {
				if j, ok := d.Pos.Lookup(inputBind[p].X); ok && usedOp[j] {
					return
				}
			}
		}
		if !d.Convex(mapping, marks) {
			return
		}
		m := Match{
			NodeToOp: append([]int(nil), mapping...),
			Set:      ir.NewOpSet(mapping...),
			Inputs:   make([]ir.Operand, s.NumInputs),
		}
		copy(m.Inputs, inputBind)
		m.Imms = make([]uint32, s.NumImms)
		for pi, pn := range s.Nodes {
			op := d.Block.Ops[mapping[pi]]
			// Re-derive the permutation used is unnecessary for imms when
			// the imm sits at a fixed position; recover by matching kinds.
			for k, r := range pn.Ins {
				if r.Kind == RefImm || r.Kind == RefConst {
					// Find an Imm arg; positions correspond except under
					// commutative swap, where both arg kinds were checked.
					if op.Args[k].Kind == ir.Imm {
						if r.Kind == RefImm {
							m.Imms[r.Index] = op.Args[k].Val
						}
					} else {
						for _, a := range op.Args {
							if a.Kind == ir.Imm && r.Kind == RefImm {
								m.Imms[r.Index] = a.Val
							}
						}
					}
				}
			}
		}
		resultHashes = append(resultHashes, h)
		results = append(results, m)
	}

	var extend func(pi int) bool // returns true when the match cap is hit
	// tryOp attempts to map pattern node pi onto block op oi and recurse.
	var tryOp func(pi, oi int) bool
	tryOp = func(pi, oi int) bool {
		if usedOp[oi] || !allowed(oi) {
			return false
		}
		considered++
		// Feasibility filters: both are invariants of any completed match
		// (see FindMatches doc), so failing ops cannot contribute.
		if d.Depth[oi] < patDepth[pi] {
			filtered++
			return false
		}
		users := len(d.Users(oi))
		if s.IsOutput(pi) {
			if users < patReaders[pi] {
				filtered++
				return false
			}
		} else if users != patReaders[pi] || d.Block.Ops[oi].Dest != 0 {
			filtered++
			return false
		}
		op := d.Block.Ops[oi]
		if !nodeMatch(s.Nodes[pi], op.Code) {
			return false
		}
		nperm := 1
		if op.Code.IsCommutative() && len(op.Args) >= 2 {
			nperm = 2
		}
		for p := 0; p < nperm; p++ {
			mark := len(boundStack)
			if !nodeRefOK(pi, oi, p == 1) {
				unbindTo(mark)
				continue
			}
			mapping[pi] = oi
			usedOp[oi] = true
			stop := extend(pi + 1)
			mapping[pi] = -1
			usedOp[oi] = false
			unbindTo(mark)
			if stop {
				return true
			}
		}
		return false
	}
	extend = func(pi int) bool {
		if pi == n {
			complete()
			return opts.MaxMatches > 0 && len(results) >= opts.MaxMatches
		}
		// Candidate ops: consumers of already-mapped producers when this
		// node reads a mapped node; otherwise ops drawn from the opcode
		// index (or the class bucket / a full scan under a custom OpMatch).
		for _, r := range s.Nodes[pi].Ins {
			if r.Kind == RefNode && mapping[r.Index] >= 0 {
				for _, oi := range d.Users(mapping[r.Index]) {
					if tryOp(pi, oi) {
						return true
					}
				}
				return false
			}
		}
		switch {
		case s.Nodes[pi].Class != 0:
			for _, oi := range classBucket(s.Nodes[pi].Class) {
				if tryOp(pi, int(oi)) {
					return true
				}
			}
		case opts.OpMatch == nil:
			for _, oi := range d.OpsByCode(s.Nodes[pi].Code) {
				if tryOp(pi, int(oi)) {
					return true
				}
			}
		default:
			for oi := 0; oi < blockN; oi++ {
				if tryOp(pi, oi) {
					return true
				}
			}
		}
		return false
	}
	extend(0)

	// Backtracking has unwound usedOp/inputBound/boundStack; recycle the
	// (possibly grown) buffers. Matches copy out of inputBind/mapping, so no
	// result retains scratch memory.
	scratch.patDepth = patDepth
	scratch.patReaders = patReaders
	scratch.mapping = mapping
	scratch.usedOp = usedOp
	scratch.inputBind = inputBind
	scratch.inputBound = inputBound
	scratch.boundStack = boundStack
	scratch.marks = marks
	matchScratchPool.Put(scratch)

	if opts.Stats != nil {
		opts.Stats.SeedsConsidered += considered
		opts.Stats.SeedsFiltered += filtered
	}
	if len(results) > 1 {
		// Sort by set key; keys are unique (sets are deduped), so the
		// order is canonical. Keys are precomputed once each and the sort
		// permutes an index vector, keeping key and match together.
		keys := make([]string, len(results))
		idx := make([]int, len(results))
		for i := range results {
			keys[i] = results[i].Set.Key()
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		sorted := make([]Match, len(results))
		for i, j := range idx {
			sorted[i] = results[j]
		}
		results = sorted
	}
	return results
}

// SubstitutedShape returns a copy of s whose node opcodes are replaced by
// the actual opcodes of the matched ops. Needed when class-based wildcard
// matching mapped a pattern node onto a different class member; evaluation
// must use the program's real operation.
func SubstitutedShape(d *ir.DFG, s *Shape, m Match) *Shape {
	ns := s.Clone()
	for i := range ns.Nodes {
		ns.Nodes[i].Code = d.Block.Ops[m.NodeToOp[i]].Code
	}
	return ns
}
