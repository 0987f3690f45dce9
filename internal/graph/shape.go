package graph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/ir"
)

// RefKind says where a pattern node's operand comes from.
type RefKind uint8

const (
	// RefNode reads another node of the pattern.
	RefNode RefKind = iota
	// RefInput reads external input port Index. Ports are register-file
	// reads; the same port index always carries the same value.
	RefInput
	// RefImm reads an immediate encoded in the custom instruction. The
	// value is per-occurrence, so patterns match any immediate.
	RefImm
	// RefConst reads a constant pinned by a subsumed-subgraph variant
	// (e.g. the 0 driven into an adder to pass a value through).
	RefConst
)

// Ref is one operand of a pattern node.
type Ref struct {
	Kind  RefKind
	Index int    // node index (RefNode) or input port (RefInput)
	Val   uint32 // pinned value (RefConst)
}

// Node is one operation of a CFU pattern.
type Node struct {
	Code ir.Opcode
	// Class, when nonzero, marks this node as a multi-function unit that
	// accepts any opcode of the given hardware class (the paper's
	// wildcard generalization promoted into the pattern itself). Code
	// remains the representative member for naming and cost fallback.
	Class uint8 `json:",omitempty"`
	Ins   []Ref
}

// Shape is a CFU pattern: a connected DAG of primitive operations with
// numbered external input ports and a set of output nodes. Nodes are stored
// in a topological order (every RefNode points to a lower index).
type Shape struct {
	Nodes []Node
	// NumInputs is the number of external input ports (register reads).
	NumInputs int
	// NumImms is the number of immediate parameters.
	NumImms int
	// Outputs lists node indices whose values leave the CFU, in port order.
	Outputs []int

	// sig caches Signature(). Shapes are immutable once in use, but the
	// cache itself fills lazily from whichever goroutine asks first, so it
	// is an atomic pointer: concurrent fills compute the same bytes and the
	// losing store is harmless.
	sig atomic.Pointer[string]
}

// Validate checks the topological-order and index-range invariants.
func (s *Shape) Validate() error {
	outSeen := make(map[int]bool)
	for i, n := range s.Nodes {
		if ar := n.Code.Arity(); ar >= 0 && len(n.Ins) != ar {
			return fmt.Errorf("graph: node %d (%s) has %d ins, want %d", i, n.Code, len(n.Ins), ar)
		}
		for _, r := range n.Ins {
			switch r.Kind {
			case RefNode:
				if r.Index < 0 || r.Index >= i {
					return fmt.Errorf("graph: node %d reads node %d (not topological)", i, r.Index)
				}
			case RefInput:
				if r.Index < 0 || r.Index >= s.NumInputs {
					return fmt.Errorf("graph: node %d reads input %d of %d", i, r.Index, s.NumInputs)
				}
			}
		}
	}
	for _, o := range s.Outputs {
		if o < 0 || o >= len(s.Nodes) {
			return fmt.Errorf("graph: output node %d out of range", o)
		}
		if outSeen[o] {
			return fmt.Errorf("graph: duplicate output node %d", o)
		}
		outSeen[o] = true
	}
	return nil
}

// NumIO returns the register input and output port counts.
func (s *Shape) NumIO() (int, int) { return s.NumInputs, len(s.Outputs) }

// IsOutput reports whether node i is an output port.
func (s *Shape) IsOutput(i int) bool {
	for _, o := range s.Outputs {
		if o == i {
			return true
		}
	}
	return false
}

// Area returns the summed die area of the pattern under cm.
func (s *Shape) Area(cm ir.CostModel) float64 {
	a := 0.0
	for _, n := range s.Nodes {
		a += cm.Area(n.Code)
	}
	return a
}

// Latency returns the critical-path combinational delay of the pattern.
func (s *Shape) Latency(cm ir.CostModel) float64 {
	depth := make([]float64, len(s.Nodes))
	max := 0.0
	for i, n := range s.Nodes {
		in := 0.0
		for _, r := range n.Ins {
			if r.Kind == RefNode && depth[r.Index] > in {
				in = depth[r.Index]
			}
		}
		depth[i] = in + cm.Delay(n.Code)
		if depth[i] > max {
			max = depth[i]
		}
	}
	return max
}

// Cycles returns the whole-cycle latency of the pattern as a pipelined CFU.
func (s *Shape) Cycles(cm ir.CostModel) int {
	l := s.Latency(cm)
	c := int(l)
	if float64(c) < l {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Mnemonic renders the pattern as a compact name like "<<-and-add", listing
// opcodes in topological order, mirroring the paper's CFU names.
// Multi-function nodes are bracketed: "and-[add]-shl".
func (s *Shape) Mnemonic() string {
	parts := make([]string, len(s.Nodes))
	for i, n := range s.Nodes {
		if n.Class != 0 {
			parts[i] = "[" + n.Code.String() + "]"
		} else {
			parts[i] = n.Code.String()
		}
	}
	return strings.Join(parts, "-")
}

// Eval computes all node values given the external inputs and the
// per-occurrence immediate parameters, returning the output port values.
// Patterns containing loads must use EvalMem instead.
func (s *Shape) Eval(inputs []uint32, imms []uint32) []uint32 {
	return s.EvalMem(inputs, imms, nil)
}

// EvalMem is Eval with a memory view for patterns containing loads.
func (s *Shape) EvalMem(inputs []uint32, imms []uint32, mem ir.MemoryAccessor) []uint32 {
	vals := make([]uint32, len(s.Nodes))
	args := make([]uint32, 0, 3)
	for i, n := range s.Nodes {
		args = args[:0]
		for _, r := range n.Ins {
			switch r.Kind {
			case RefNode:
				args = append(args, vals[r.Index])
			case RefInput:
				args = append(args, inputs[r.Index])
			case RefImm:
				args = append(args, imms[r.Index])
			default:
				args = append(args, r.Val)
			}
		}
		switch n.Code {
		case ir.LoadW:
			vals[i] = mem.LoadWord(args[0])
		case ir.LoadB:
			vals[i] = mem.LoadWord(args[0]) & 0xFF
		case ir.LoadH:
			vals[i] = mem.LoadWord(args[0]) & 0xFFFF
		default:
			vals[i] = ir.EvalScalar(n.Code, args)
		}
	}
	out := make([]uint32, len(s.Outputs))
	for k, o := range s.Outputs {
		out[k] = vals[o]
	}
	return out
}

// UsesMemory reports whether the pattern contains load operations.
func (s *Shape) UsesMemory() bool {
	for _, n := range s.Nodes {
		if n.Code.IsLoad() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the shape.
func (s *Shape) Clone() *Shape {
	ns := &Shape{NumInputs: s.NumInputs, NumImms: s.NumImms}
	ns.Nodes = make([]Node, len(s.Nodes))
	for i, n := range s.Nodes {
		ns.Nodes[i] = Node{Code: n.Code, Class: n.Class, Ins: append([]Ref(nil), n.Ins...)}
	}
	ns.Outputs = append([]int(nil), s.Outputs...)
	return ns
}

// String renders the shape for debugging.
func (s *Shape) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shape[%din/%dout]", s.NumInputs, len(s.Outputs))
	for i, n := range s.Nodes {
		fmt.Fprintf(&sb, " %d:%s(", i, n.Code)
		for j, r := range n.Ins {
			if j > 0 {
				sb.WriteByte(',')
			}
			switch r.Kind {
			case RefNode:
				fmt.Fprintf(&sb, "n%d", r.Index)
			case RefInput:
				fmt.Fprintf(&sb, "in%d", r.Index)
			case RefImm:
				fmt.Fprintf(&sb, "imm%d", r.Index)
			default:
				fmt.Fprintf(&sb, "#%d", r.Val)
			}
		}
		sb.WriteByte(')')
	}
	fmt.Fprintf(&sb, " out=%v", s.Outputs)
	return sb.String()
}

// FromOps extracts the pattern of the candidate subgraph whose op indices
// within d's block are ops (in any order; read, never modified). The second
// result maps each pattern node index to the block op index it came from;
// the third lists the operand each input port binds in this occurrence
// (parallel to port numbering). It is ShapeBuilder.Build on a fresh
// builder, then Detach.
func FromOps(d *ir.DFG, ops []int) (*Shape, []int, []ir.Operand) {
	var b ShapeBuilder
	b.Build(d, ops)
	return b.Detach(""), b.members, b.inputs
}

// ShapeBuilder lifts candidate subgraphs into patterns through buffers it
// reuses from one Build to the next. Grouping candidates often finds a
// shape it already has, so it builds each candidate here, looks it up by
// Sig, compares it with IsomorphicTo, and pays for a heap copy (Detach)
// only for a shape it keeps. The zero value is ready to use. A
// ShapeBuilder is not safe for concurrent use.
type ShapeBuilder struct {
	// shape is the built pattern; its slices alias the buffers below and
	// its signature cache stays unused.
	shape   Shape
	members []int
	// memberOps[k] is the op of members[k], so membership scans compare
	// contiguous pointers.
	memberOps []*ir.Op
	refs      []Ref
	inputs    []ir.Operand
	sig       sigScratch
	// classBySig and nextClass are Index's scratch: the first class of
	// each signature, and each class's successor under its signature.
	classBySig map[string]int32
	nextClass  []int32
}

// Build lifts the candidate subgraph whose op indices within d's block are
// ops (in any order; read, never modified), replacing the previous build.
// Nodes are ordered by DFG depth, then op index, so the order is
// topological even if the block was edited. Candidates are small, so
// membership is a linear scan of the member list rather than a map, and
// all nodes' operand refs share one backing array.
func (b *ShapeBuilder) Build(d *ir.DFG, ops []int) {
	members := append(b.members[:0], ops...)
	slices.SortFunc(members, func(x, y int) int {
		if c := cmp.Compare(d.Depth[x], d.Depth[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	memberOps := b.memberOps[:0]
	nrefs := 0
	for _, m := range members {
		op := d.Block.Ops[m]
		memberOps = append(memberOps, op)
		nrefs += len(op.Args)
	}
	nodeOf := func(a ir.Operand) int {
		if a.Kind == ir.FromOp {
			for k, op := range memberOps {
				if op == a.X {
					return k
				}
			}
		}
		return -1
	}
	refs := slices.Grow(b.refs[:0], nrefs)
	nodes := slices.Grow(b.shape.Nodes[:0], len(members))[:len(members)]
	inputs := b.inputs[:0]
	inputSlot := func(a ir.Operand) int {
		for k, e := range inputs {
			if e.SameValue(a) {
				return k
			}
		}
		inputs = append(inputs, a)
		return len(inputs) - 1
	}
	numImms := 0
	for k, op := range memberOps {
		nodes[k] = Node{Code: op.Code}
		if len(op.Args) == 0 {
			continue // Ins stays nil: an MDES encodes it as null, not []
		}
		start := len(refs)
		for _, a := range op.Args {
			if a.Kind == ir.Imm {
				refs = append(refs, Ref{Kind: RefImm, Index: numImms})
				numImms++
			} else if n := nodeOf(a); n >= 0 {
				refs = append(refs, Ref{Kind: RefNode, Index: n})
			} else {
				refs = append(refs, Ref{Kind: RefInput, Index: inputSlot(a)})
			}
		}
		nodes[k].Ins = refs[start:len(refs):len(refs)]
	}
	// A node is an output when it produces a value that is live out of the
	// block or read by an op outside the subgraph.
	outputs := b.shape.Outputs[:0]
	for k, op := range memberOps {
		if op.NumResults() == 0 {
			continue
		}
		out := op.Dest != 0 || slices.ContainsFunc(op.Dests, func(r ir.Reg) bool { return r != 0 }) ||
			slices.ContainsFunc(d.Users(members[k]), func(u int) bool { return !slices.Contains(members, u) })
		if out {
			outputs = append(outputs, k)
		}
	}
	b.members, b.memberOps, b.refs, b.inputs = members, memberOps, refs, inputs
	b.shape.Nodes, b.shape.Outputs = nodes, outputs
	b.shape.NumInputs, b.shape.NumImms = len(inputs), numImms
}

// Sig returns the built shape's signature bytes (Shape.Signature's key).
// The slice is the builder's buffer, valid until the next Build or Sig.
func (b *ShapeBuilder) Sig() []byte { return b.sig.sign(&b.shape) }

// IsomorphicTo reports whether the built shape is isomorphic to s, with s
// in Isomorphic's first argument. It runs the search without Isomorphic's
// signature filter: callers find s by the builder's own signature.
func (b *ShapeBuilder) IsomorphicTo(s *Shape) bool {
	ok, _, _ := isoSearch(s, &b.shape, 0)
	return ok
}

// Detach copies the built shape to the heap, all operand refs in one
// array. Nodes without operands keep nil Ins, and a shape without outputs
// nil Outputs, because an MDES encodes both as null. sig, when not empty,
// must be string(b.Sig()); it becomes the copy's cached signature.
func (b *ShapeBuilder) Detach(sig string) *Shape {
	src := &b.shape
	s := &Shape{Nodes: make([]Node, len(src.Nodes)), NumInputs: src.NumInputs, NumImms: src.NumImms}
	refs := make([]Ref, 0, len(b.refs))
	for k, n := range src.Nodes {
		s.Nodes[k] = Node{Code: n.Code, Class: n.Class}
		if n.Ins != nil {
			start := len(refs)
			refs = append(refs, n.Ins...)
			s.Nodes[k].Ins = refs[start:len(refs):len(refs)]
		}
	}
	if len(src.Outputs) > 0 {
		s.Outputs = slices.Clone(src.Outputs)
	}
	if sig != "" {
		// A fresh pointer rather than &sig, which would move sig to the
		// heap on every call.
		p := new(string)
		*p = sig
		s.sig.Store(p)
	}
	return s
}

// ImmValues returns the immediate parameter values of an occurrence of s at
// the given block ops (nodeToOp maps pattern node -> block op index), in
// immediate-slot order.
func (s *Shape) ImmValues(d *ir.DFG, nodeToOp []int) []uint32 {
	imms := make([]uint32, s.NumImms)
	for i, n := range s.Nodes {
		op := d.Block.Ops[nodeToOp[i]]
		for j, r := range n.Ins {
			if r.Kind == RefImm {
				imms[r.Index] = op.Args[j].Val
			}
		}
	}
	return imms
}

// ShapeIndex groups the candidate subgraphs of one block by isomorphism.
// It holds one shape per class, lifted from the class's first candidate
// with its signature cached, and the class number of every candidate.
// Combination reads each candidate's shape from an index instead of
// lifting it again, so an index built once can serve every later
// combination of the same candidates. An index is immutable once built
// and safe to share between goroutines; so are its shapes.
type ShapeIndex struct {
	Shapes []*Shape
	// Class[i] is the position in Shapes of candidate i's class.
	Class []int32
}

// Index lifts n candidate subgraphs of d's block, ops(i) giving candidate
// i's op indices, and groups them into a ShapeIndex. A candidate joins the
// first earlier class its shape is isomorphic to; otherwise it opens a
// class whose shape is its own, detached with its signature.
func (b *ShapeBuilder) Index(d *ir.DFG, n int, ops func(i int) []int) *ShapeIndex {
	x := &ShapeIndex{Class: make([]int32, n)}
	if b.classBySig == nil {
		b.classBySig = make(map[string]int32)
	}
	clear(b.classBySig)
	next := b.nextClass[:0]
	for i := range n {
		b.Build(d, ops(i))
		sig := b.Sig()
		cls, last := int32(-1), int32(-1)
		k, ok := b.classBySig[string(sig)]
		for ; ok && k >= 0; k = next[k] {
			if b.IsomorphicTo(x.Shapes[k]) {
				cls = k
				break
			}
			last = k
		}
		if cls < 0 {
			key := string(sig)
			cls = int32(len(x.Shapes))
			x.Shapes = append(x.Shapes, b.Detach(key))
			next = append(next, -1)
			if last < 0 {
				b.classBySig[key] = cls
			} else {
				next[last] = cls
			}
		}
		x.Class[i] = cls
	}
	b.nextClass = next
	return x
}
