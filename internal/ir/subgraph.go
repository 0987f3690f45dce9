package ir

import (
	"math"
	"sort"
)

// CostModel supplies per-opcode hardware cost estimates. It is implemented
// by internal/hwlib; ir depends only on this interface so the analysis
// utilities stay library-agnostic.
type CostModel interface {
	// Area is the die area of one instance of the opcode, in units of one
	// 32-bit ripple-carry adder.
	Area(Opcode) float64
	// Delay is the combinational delay of the opcode as a fraction of the
	// machine clock cycle.
	Delay(Opcode) float64
}

// OpSet is a set of op indices within one block: a candidate subgraph.
type OpSet map[int]struct{}

// NewOpSet builds a set from indices.
func NewOpSet(idx ...int) OpSet {
	s := make(OpSet, len(idx))
	for _, i := range idx {
		s[i] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s OpSet) Has(i int) bool { _, ok := s[i]; return ok }

// Add inserts i.
func (s OpSet) Add(i int) { s[i] = struct{}{} }

// Clone returns a copy of the set.
func (s OpSet) Clone() OpSet {
	c := make(OpSet, len(s)+1)
	for i := range s {
		c[i] = struct{}{}
	}
	return c
}

// Sorted returns the member indices in increasing order.
func (s OpSet) Sorted() []int {
	out := make([]int, 0, len(s))
	for i := range s {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Key returns a canonical comparable key for the set, for deduplication.
func (s OpSet) Key() string {
	ids := s.Sorted()
	b := make([]byte, 0, len(ids)*3)
	for _, i := range ids {
		b = append(b, byte(i), byte(i>>8), byte(i>>16))
	}
	return string(b)
}

// Neighbors returns all op indices adjacent to the subgraph through data
// edges (both producers and consumers) that are not members.
func (s OpSet) Neighbors(d *DFG) []int {
	seen := make(map[int]bool)
	var out []int
	for i := range s {
		for _, p := range d.DataPreds[i] {
			if !s.Has(p) && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
		for _, u := range d.Users(i) {
			if !s.Has(u) && !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Connected reports whether the subgraph is connected when data edges are
// taken as undirected.
func (s OpSet) Connected(d *DFG) bool {
	if len(s) <= 1 {
		return true
	}
	var start int
	for i := range s {
		start = i
		break
	}
	visited := NewOpSet(start)
	stack := []int{start}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		walk := func(j int) {
			if s.Has(j) && !visited.Has(j) {
				visited.Add(j)
				stack = append(stack, j)
			}
		}
		for _, p := range d.DataPreds[i] {
			walk(p)
		}
		for _, u := range d.Users(i) {
			walk(u)
		}
	}
	return len(visited) == len(s)
}

// Convex reports whether no dependence path leaves the subgraph and
// re-enters it. Convexity is required for the subgraph to execute as one
// atomic custom instruction.
func (s OpSet) Convex(d *DFG) bool {
	members := make([]int, 0, len(s))
	for i := range s {
		members = append(members, i)
	}
	return d.Convex(members, make([]uint8, len(d.Block.Ops)))
}

// Marks of Convex's search, one per op.
const (
	markUnseen  uint8 = iota
	markMisses        // no forward path from the op reaches a member
	markReaches       // some forward path from the op reaches a member
	markMember
)

// Convex reports whether the ops at the distinct indices members form a
// convex subgraph (see OpSet.Convex). marks, at least one entry per op, is
// its only working storage; its contents are overwritten.
func (d *DFG) Convex(members []int, marks []uint8) bool {
	marks = marks[:len(d.Block.Ops)]
	clear(marks)
	for _, i := range members {
		marks[i] = markMember
	}
	// From each external successor of a member, ops reachable forward must
	// not include a member.
	for _, i := range members {
		for _, u := range d.Succs[i] {
			if marks[u] != markMember && d.reachesMember(u, marks) {
				return false
			}
		}
	}
	return true
}

// reachesMember reports whether a forward dependence path from op i reaches
// a member, memoizing each visited op's answer in marks.
func (d *DFG) reachesMember(i int, marks []uint8) bool {
	switch marks[i] {
	case markMember, markReaches:
		return true
	case markMisses:
		return false
	}
	marks[i] = markMisses
	for _, u := range d.Succs[i] {
		if d.reachesMember(u, marks) {
			marks[i] = markReaches
			return true
		}
	}
	return false
}

// ExternalInputs returns the distinct external register-file values consumed
// by the subgraph, in deterministic order. Immediate operands are excluded:
// they are encoded into the custom instruction (pattern parameters) and do
// not consume register read ports, matching the paper's port arithmetic.
func (s OpSet) ExternalInputs(d *DFG) []Operand {
	var out []Operand
	for _, i := range s.Sorted() {
		for _, a := range d.Block.Ops[i].Args {
			if a.Kind == Imm {
				continue
			}
			if j, ok := d.Pos.Lookup(a.X); a.Kind == FromOp && ok && s.Has(j) {
				continue
			}
			dup := false
			for _, e := range out {
				if e.SameValue(a) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, a)
			}
		}
	}
	return out
}

// OutputOps returns the member indices whose value escapes the subgraph:
// used by a non-member op or live-out via a Dest register.
func (s OpSet) OutputOps(d *DFG) []int {
	var out []int
	for _, i := range s.Sorted() {
		op := d.Block.Ops[i]
		if op.NumResults() == 0 {
			continue
		}
		escapes := op.Dest != 0
		for _, r := range op.Dests {
			if r != 0 {
				escapes = true
			}
		}
		if !escapes {
			for _, u := range d.Users(i) {
				if !s.Has(u) {
					escapes = true
					break
				}
			}
		}
		if escapes {
			out = append(out, i)
		}
	}
	return out
}

// NumIO returns the input and output port counts of the subgraph.
func (s OpSet) NumIO(d *DFG) (in, out int) {
	return len(s.ExternalInputs(d)), len(s.OutputOps(d))
}

// Area returns the summed die area of the subgraph's opcodes under cm.
func (s OpSet) Area(d *DFG, cm CostModel) float64 {
	a := 0.0
	for i := range s {
		a += cm.Area(d.Block.Ops[i].Code)
	}
	return a
}

// Latency returns the subgraph's combinational critical-path delay: the
// longest sum of per-op fractional delays along any internal dependence
// chain. The whole-cycle latency of the resulting CFU is Ceil of this.
func (s OpSet) Latency(d *DFG, cm CostModel) float64 {
	// Longest path over the induced DAG; memoized DFS.
	memo := make(map[int]float64, len(s))
	var longest func(i int) float64
	longest = func(i int) float64 {
		if v, ok := memo[i]; ok {
			return v
		}
		best := 0.0
		for _, p := range d.DataPreds[i] {
			if s.Has(p) {
				if l := longest(p); l > best {
					best = l
				}
			}
		}
		v := best + cm.Delay(d.Block.Ops[i].Code)
		memo[i] = v
		return v
	}
	max := 0.0
	for i := range s {
		if l := longest(i); l > max {
			max = l
		}
	}
	return max
}

// Cycles returns the whole-cycle latency of the subgraph as a CFU.
// A purely combinational subgraph still needs one cycle.
func (s OpSet) Cycles(d *DFG, cm CostModel) int {
	c := int(math.Ceil(s.Latency(d, cm)))
	if c < 1 {
		c = 1
	}
	return c
}
