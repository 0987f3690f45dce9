package graph

import (
	"slices"

	"repro/internal/ir"
)

// The signature packs an opcode into 16 bits; this guard fails to compile
// if the opcode space ever outgrows the field (so it cannot silently alias
// two different opcodes into one bucket key).
var _ [1]struct{} = [1 - int(ir.MaxOpcode)>>16]struct{}{}

// Signature returns a fast invariant bucket key: shapes with different
// signatures are guaranteed non-isomorphic. Used to avoid quadratic
// pairwise isomorphism checks during candidate combination. The key is
// computed once per shape and cached; shapes must not be mutated after
// first use. The cache is safe to fill from concurrent goroutines.
func (s *Shape) Signature() string {
	if p := s.sig.Load(); p != nil {
		return *p
	}
	var sc sigScratch
	sig := string(sc.sign(s))
	s.sig.Store(&sig)
	return sig
}

// sigScratch holds the buffers of one signature computation, so a
// ShapeBuilder can reuse them from one candidate to the next.
type sigScratch struct {
	depth []int
	rows  []uint64
	buf   []byte
}

// sign returns s's signature bytes. The slice is sc's buffer, valid until
// the next call.
func (sc *sigScratch) sign(s *Shape) []byte {
	n := len(s.Nodes)
	depth := slices.Grow(sc.depth[:0], n)[:n]
	rows := slices.Grow(sc.rows[:0], n)[:n]
	for i, n := range s.Nodes {
		d := 0
		ni, nx, nc := 0, 0, 0
		for _, r := range n.Ins {
			switch r.Kind {
			case RefNode:
				if depth[r.Index]+1 > d {
					d = depth[r.Index] + 1
				}
				ni++
			case RefInput:
				nx++
			default:
				nc++
			}
		}
		depth[i] = d
		out := 0
		if s.IsOutput(i) {
			out = 1
		}
		// Pack the per-node invariants into one comparable word. The
		// opcode field is 16 bits wide (bits 40-55) so no two opcodes can
		// alias even after the opcode space outgrows uint8; the guard above
		// keeps the field honest. Layout, high to low: Class 56-63,
		// Code 40-55, depth 24-39, ni 16-23, nx 8-15, nc 1-7, out 0.
		rows[i] = uint64(n.Class)<<56 | (uint64(n.Code)&0xFFFF)<<40 | uint64(d&0xFFFF)<<24 |
			uint64(ni&0xFF)<<16 | uint64(nx&0xFF)<<8 | uint64(nc&0x7F)<<1 | uint64(out)
	}
	slices.Sort(rows)
	buf := slices.Grow(sc.buf[:0], 6+8*n)
	buf = append(buf, byte(s.NumInputs), byte(s.NumInputs>>8),
		byte(len(s.Outputs)), byte(len(s.Outputs)>>8),
		byte(n), byte(n>>8))
	for _, r := range rows {
		buf = append(buf, byte(r), byte(r>>8), byte(r>>16), byte(r>>24),
			byte(r>>32), byte(r>>40), byte(r>>48), byte(r>>56))
	}
	sc.depth, sc.rows, sc.buf = depth, rows, buf
	return buf
}

// Isomorphic reports whether a and b are the same CFU pattern: a bijection
// of nodes preserving opcodes, edges (allowing swapped operands of
// commutative operations), external-input port identification, immediate
// positions, and output-ness. This is the equivalence used to group
// candidate subgraphs into CFUs. Differing signatures prove
// non-isomorphism, so the cached keys short-circuit the backtracking
// search; WildcardPair cannot use this filter because its one allowed
// opcode mismatch changes the signature.
func Isomorphic(a, b *Shape) bool {
	if a.Signature() != b.Signature() {
		return false
	}
	ok, _, _ := isoSearch(a, b, 0)
	return ok
}

// WildcardPair checks whether a and b are isomorphic except for exactly one
// node whose opcode differs, returning the node indices (in a and b) of the
// differing pair. This identifies the paper's "wildcard" CFUs: two CFUs
// that can share hardware with one multi-function node.
func WildcardPair(a, b *Shape) (na, nb int, ok bool) {
	ok, na, nb = isoSearch(a, b, 1)
	if !ok || na < 0 {
		return 0, 0, false
	}
	return na, nb, true
}

// isoStackNodes is the largest shape isoSearch runs on stack buffers
// alone. Primitive ops read at most three operands, so such a shape has at
// most 3*isoStackNodes input ports.
const isoStackNodes = 32

// Operand permutations isoSearch tries: the identity, and for commutative
// ops also the swap of the first two operands.
var (
	identityPerm = [...]int{0, 1, 2, 3, 4, 5, 6, 7}
	swapPerm     = [...]int{1, 0, 2, 3, 4, 5, 6, 7}
)

// isoState is one isoSearch run's bookkeeping.
type isoState struct {
	a, b   *Shape
	budget int
	// mapping[i] is the b-node a-node i maps to (-1 = unmapped); usedB
	// marks mapped b-nodes.
	mapping []int
	usedB   []bool
	// portMap is the input-port bijection a-port -> b-port (-1 = unbound);
	// portUsed marks bound b-ports; bound[:nbound] stacks the a-ports
	// refsMatch bound, so a failed branch unbinds back to its mark. Each
	// port is bound at most once at a time, so bound never overflows.
	portMap  []int
	portUsed []bool
	bound    []int
	nbound   int
	// mismatchAt is the a-node whose opcode differs (-1 = none).
	mismatchAt int
	steps      int
}

// isoSearch finds a full mapping from a's nodes to b's nodes with at most
// budget opcode mismatches. It reports whether one exists, the mismatched
// a-node (-1 if none) and the b-node it maps to.
func isoSearch(a, b *Shape, budget int) (ok bool, na, nb int) {
	if len(a.Nodes) != len(b.Nodes) ||
		a.NumInputs != b.NumInputs ||
		len(a.Outputs) != len(b.Outputs) {
		return false, -1, -1
	}
	n, p := len(a.Nodes), a.NumInputs
	var intBuf [isoStackNodes + 2*3*isoStackNodes]int
	var boolBuf [isoStackNodes + 3*isoStackNodes]bool
	ints, bools := intBuf[:], boolBuf[:]
	if n+2*p > len(ints) {
		ints = make([]int, n+2*p)
	}
	if n+p > len(bools) {
		bools = make([]bool, n+p)
	}
	st := isoState{
		a: a, b: b, budget: budget,
		mapping:    ints[:n:n],
		portMap:    ints[n : n+p : n+p],
		bound:      ints[n+p : n+2*p : n+2*p],
		usedB:      bools[:n:n],
		portUsed:   bools[n : n+p : n+p],
		mismatchAt: -1,
	}
	for i := range st.mapping {
		st.mapping[i] = -1
	}
	for i := range st.portMap {
		st.portMap[i] = -1
	}
	if !st.tryMap(0) {
		return false, -1, -1
	}
	if st.mismatchAt < 0 {
		return true, -1, -1
	}
	return true, st.mismatchAt, st.mapping[st.mismatchAt]
}

// refsMatch checks node ai's ins against node bi's ins under a permutation
// of bi's ins (identity or swap of the first two when both ops are
// commutative). It tentatively extends portMap, pushing each newly bound
// a-port onto bound; the caller unbinds them whatever the outcome.
func (st *isoState) refsMatch(ai, bi int, perm []int) bool {
	na, nb := st.a.Nodes[ai], st.b.Nodes[bi]
	for k := range na.Ins {
		ra, rb := na.Ins[k], nb.Ins[perm[k]]
		if ra.Kind != rb.Kind {
			return false
		}
		switch ra.Kind {
		case RefNode:
			if st.mapping[ra.Index] != rb.Index {
				return false
			}
		case RefInput:
			if st.portMap[ra.Index] == -1 {
				if st.portUsed[rb.Index] {
					return false
				}
				st.portMap[ra.Index] = rb.Index
				st.portUsed[rb.Index] = true
				st.bound[st.nbound] = ra.Index
				st.nbound++
			} else if st.portMap[ra.Index] != rb.Index {
				return false
			}
		case RefConst:
			if ra.Val != rb.Val {
				return false
			}
		}
	}
	return true
}

// unbind releases the ports bound since nbound was mark.
func (st *isoState) unbind(mark int) {
	for _, p := range st.bound[mark:st.nbound] {
		st.portUsed[st.portMap[p]] = false
		st.portMap[p] = -1
	}
	st.nbound = mark
}

func (st *isoState) tryMap(i int) bool {
	a, b := st.a, st.b
	n := len(a.Nodes)
	if i == n {
		return true
	}
	// Backtracking on highly symmetric graphs (long chains of one opcode)
	// can explode; a step budget keeps the check bounded. Exhausting it
	// reports "not isomorphic", which is conservative: the worst outcome
	// is a duplicate CFU group rather than a wrong merge.
	const maxSteps = 1 << 17
	if st.steps++; st.steps > maxSteps {
		return false
	}
	k := len(a.Nodes[i].Ins)
	id, sw := identityPerm[:], swapPerm[:]
	if k > len(id) {
		id, sw = make([]int, k), make([]int, k)
		for x := range id {
			id[x], sw[x] = x, x
		}
		sw[0], sw[1] = 1, 0
	}
	for j := 0; j < n; j++ {
		if st.usedB[j] {
			continue
		}
		sameCode := a.Nodes[i].Code == b.Nodes[j].Code && a.Nodes[i].Class == b.Nodes[j].Class
		if !sameCode {
			if st.budget == 0 || st.mismatchAt != -1 || k != len(b.Nodes[j].Ins) {
				continue
			}
		}
		if a.IsOutput(i) != b.IsOutput(j) {
			continue
		}
		nperm := 1
		if sameCode && a.Nodes[i].Code.IsCommutative() && k >= 2 {
			nperm = 2
		}
		for pi := 0; pi < nperm; pi++ {
			perm := id
			if pi == 1 {
				perm = sw
			}
			mark := st.nbound
			if !st.refsMatch(i, j, perm) {
				st.unbind(mark)
				continue
			}
			st.mapping[i] = j
			st.usedB[j] = true
			if !sameCode {
				st.mismatchAt = i
			}
			if st.tryMap(i + 1) {
				return true
			}
			st.mapping[i] = -1
			st.usedB[j] = false
			if st.mismatchAt == i {
				st.mismatchAt = -1
			}
			st.unbind(mark)
		}
	}
	return false
}
