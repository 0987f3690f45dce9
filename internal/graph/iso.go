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
	depth := make([]int, len(s.Nodes))
	rows := make([]uint64, len(s.Nodes))
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
	buf := make([]byte, 0, 6+8*len(rows))
	buf = append(buf, byte(s.NumInputs), byte(s.NumInputs>>8),
		byte(len(s.Outputs)), byte(len(s.Outputs)>>8),
		byte(len(s.Nodes)), byte(len(s.Nodes)>>8))
	for _, r := range rows {
		buf = append(buf, byte(r), byte(r>>8), byte(r>>16), byte(r>>24),
			byte(r>>32), byte(r>>40), byte(r>>48), byte(r>>56))
	}
	sig := string(buf)
	s.sig.Store(&sig)
	return sig
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
	m, _ := isoSearch(a, b, 0)
	return m != nil
}

// WildcardPair checks whether a and b are isomorphic except for exactly one
// node whose opcode differs, returning the node indices (in a and b) of the
// differing pair. This identifies the paper's "wildcard" CFUs: two CFUs
// that can share hardware with one multi-function node.
func WildcardPair(a, b *Shape) (na, nb int, ok bool) {
	m, mismatched := isoSearch(a, b, 1)
	if m == nil || mismatched < 0 {
		return 0, 0, false
	}
	return mismatched, m[mismatched], true
}

// isoSearch finds a full mapping from a's nodes to b's nodes with at most
// budget opcode mismatches. Returns the mapping and the index of the
// mismatched a-node (-1 if none).
func isoSearch(a, b *Shape, budget int) ([]int, int) {
	if len(a.Nodes) != len(b.Nodes) ||
		a.NumInputs != b.NumInputs ||
		len(a.Outputs) != len(b.Outputs) {
		return nil, -1
	}
	n := len(a.Nodes)
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = -1
	}
	usedB := make([]bool, n)
	// Input-port bijection a-port -> b-port.
	portMap := make([]int, a.NumInputs)
	portUsed := make([]bool, a.NumInputs)
	for i := range portMap {
		portMap[i] = -1
	}
	mismatchAt := -1
	// Backtracking on highly symmetric graphs (long chains of one opcode)
	// can explode; a step budget keeps the check bounded. Exhausting it
	// reports "not isomorphic", which is conservative: the worst outcome
	// is a duplicate CFU group rather than a wrong merge.
	steps := 0
	const maxSteps = 1 << 17

	// refsCompatible checks node ai's ins against node bi's ins under a
	// permutation of bi's ins (identity or swap of the first two when both
	// ops are commutative). It tentatively extends portMap; changed ports
	// are recorded for rollback.
	var tryMap func(i int) bool
	refsMatch := func(ai, bi int, perm []int) (bool, []int) {
		na, nb := a.Nodes[ai], b.Nodes[bi]
		var boundPorts []int
		for k := range na.Ins {
			ra, rb := na.Ins[k], nb.Ins[perm[k]]
			if ra.Kind != rb.Kind {
				return false, boundPorts
			}
			switch ra.Kind {
			case RefNode:
				if mapping[ra.Index] != rb.Index {
					return false, boundPorts
				}
			case RefInput:
				if portMap[ra.Index] == -1 {
					if portUsed[rb.Index] {
						return false, boundPorts
					}
					portMap[ra.Index] = rb.Index
					portUsed[rb.Index] = true
					boundPorts = append(boundPorts, ra.Index)
				} else if portMap[ra.Index] != rb.Index {
					return false, boundPorts
				}
			case RefConst:
				if ra.Val != rb.Val {
					return false, boundPorts
				}
			}
		}
		return true, boundPorts
	}
	unbind := func(ports []int) {
		for _, p := range ports {
			portUsed[portMap[p]] = false
			portMap[p] = -1
		}
	}

	tryMap = func(i int) bool {
		if i == n {
			return true
		}
		if steps++; steps > maxSteps {
			return false
		}
		for j := 0; j < n; j++ {
			if usedB[j] {
				continue
			}
			sameCode := a.Nodes[i].Code == b.Nodes[j].Code && a.Nodes[i].Class == b.Nodes[j].Class
			if !sameCode {
				if budget == 0 || mismatchAt != -1 ||
					len(a.Nodes[i].Ins) != len(b.Nodes[j].Ins) {
					continue
				}
			}
			if a.IsOutput(i) != b.IsOutput(j) {
				continue
			}
			perms := [][]int{identityPerm(len(a.Nodes[i].Ins))}
			if sameCode && a.Nodes[i].Code.IsCommutative() && len(a.Nodes[i].Ins) >= 2 {
				sw := identityPerm(len(a.Nodes[i].Ins))
				sw[0], sw[1] = 1, 0
				perms = append(perms, sw)
			}
			for _, perm := range perms {
				ok, bound := refsMatch(i, j, perm)
				if !ok {
					unbind(bound)
					continue
				}
				mapping[i] = j
				usedB[j] = true
				if !sameCode {
					mismatchAt = i
				}
				if tryMap(i + 1) {
					return true
				}
				mapping[i] = -1
				usedB[j] = false
				if mismatchAt == i {
					mismatchAt = -1
				}
				unbind(bound)
			}
		}
		return false
	}
	if !tryMap(0) {
		return nil, -1
	}
	return mapping, mismatchAt
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
