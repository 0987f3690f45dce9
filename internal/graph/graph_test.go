package graph

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// shaLike builds the paper's Figure 2-style kernel fragment:
//
//	t = ((a << 3) & b) + c    (shl, and, add)
//	u = (a << 3) ^ d          (xor sharing the shift)
func shaLike() (*ir.Block, *ir.DFG) {
	b := ir.NewBlock("f2", 100)
	a, bb, c, d := b.Arg(ir.R(1)), b.Arg(ir.R(2)), b.Arg(ir.R(3)), b.Arg(ir.R(4))
	sh := b.Shl(a, b.Imm(3)) // 0
	an := b.And(sh, bb)      // 1
	ad := b.Add(an, c)       // 2
	x := b.Xor(sh, d)        // 3
	b.Def(ir.R(5), ad)
	b.Def(ir.R(6), x)
	return b, ir.Analyze(b)
}

func TestFromOps(t *testing.T) {
	_, d := shaLike()
	s, nodes, inputs := FromOps(d, []int{0, 1, 2})
	if len(s.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(s.Nodes))
	}
	if s.Nodes[0].Code != ir.Shl || s.Nodes[1].Code != ir.And || s.Nodes[2].Code != ir.Add {
		t.Fatalf("wrong node order: %v", s)
	}
	// Inputs: a, b, c (imm 3 is an immediate param). Outputs: shl (used by
	// xor outside) and add (live-out).
	if s.NumInputs != 3 || s.NumImms != 1 {
		t.Fatalf("inputs=%d imms=%d, want 3,1", s.NumInputs, s.NumImms)
	}
	if len(s.Outputs) != 2 {
		t.Fatalf("outputs = %v, want 2 ports (shl escapes to xor)", s.Outputs)
	}
	if len(nodes) != 3 || len(inputs) != 3 {
		t.Fatalf("bookkeeping lengths wrong: %v %v", nodes, inputs)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShapeEval(t *testing.T) {
	_, d := shaLike()
	s, _, _ := FromOps(d, []int{0, 1, 2})
	// ((a<<3) & b) + c with a=2,b=0xFF,c=1 -> (16&255)+1 = 17; shl out = 16.
	out := s.Eval([]uint32{2, 0xFF, 1}, []uint32{3})
	if len(out) != 2 {
		t.Fatalf("eval out len = %d", len(out))
	}
	// Output port order follows node order: shl first, add second.
	if out[0] != 16 || out[1] != 17 {
		t.Fatalf("eval = %v, want [16 17]", out)
	}
}

func TestShapeCosts(t *testing.T) {
	_, d := shaLike()
	s, _, _ := FromOps(d, []int{0, 1, 2})
	cm := unitCost{}
	if got := s.Area(cm); got != 3 {
		t.Fatalf("area = %v", got)
	}
	if got := s.Latency(cm); got < 0.89 || got > 0.91 {
		t.Fatalf("latency = %v, want 0.9", got)
	}
	if s.Cycles(cm) != 1 {
		t.Fatal("cycles should be 1")
	}
}

type unitCost struct{}

func (unitCost) Area(ir.Opcode) float64  { return 1 }
func (unitCost) Delay(ir.Opcode) float64 { return 0.3 }

func TestIsomorphicCommutative(t *testing.T) {
	// add(and(in0,in1), in2) vs add(in2, and(in1,in0)): isomorphic because
	// both add and and are commutative.
	a := &Shape{
		Nodes: []Node{
			{Code: ir.And, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefInput, Index: 1}}},
			{Code: ir.Add, Ins: []Ref{{Kind: RefNode, Index: 0}, {Kind: RefInput, Index: 2}}},
		},
		NumInputs: 3, Outputs: []int{1},
	}
	b := &Shape{
		Nodes: []Node{
			{Code: ir.And, Ins: []Ref{{Kind: RefInput, Index: 1}, {Kind: RefInput, Index: 0}}},
			{Code: ir.Add, Ins: []Ref{{Kind: RefInput, Index: 2}, {Kind: RefNode, Index: 0}}},
		},
		NumInputs: 3, Outputs: []int{1},
	}
	if !Isomorphic(a, b) {
		t.Fatal("commutative twins must be isomorphic")
	}
}

func TestNotIsomorphicSub(t *testing.T) {
	// sub(in0,in1) vs sub(in1,in0) differ (sub is not commutative) unless
	// the port bijection can absorb it; with a second node pinning port
	// roles they must differ.
	a := &Shape{
		Nodes: []Node{
			{Code: ir.Shl, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefImm, Index: 0}}},
			{Code: ir.Sub, Ins: []Ref{{Kind: RefNode, Index: 0}, {Kind: RefInput, Index: 1}}},
		},
		NumInputs: 2, NumImms: 1, Outputs: []int{1},
	}
	// b: sub operands swapped: sub(in1, shl(...))
	b := &Shape{
		Nodes: []Node{
			{Code: ir.Shl, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefImm, Index: 0}}},
			{Code: ir.Sub, Ins: []Ref{{Kind: RefInput, Index: 1}, {Kind: RefNode, Index: 0}}},
		},
		NumInputs: 2, NumImms: 1, Outputs: []int{1},
	}
	if Isomorphic(a, b) {
		t.Fatal("sub with swapped operands must not be isomorphic")
	}
}

func TestIsomorphicDifferentOpcodesFails(t *testing.T) {
	a := &Shape{Nodes: []Node{{Code: ir.Add, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefInput, Index: 1}}}}, NumInputs: 2, Outputs: []int{0}}
	b := &Shape{Nodes: []Node{{Code: ir.Xor, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefInput, Index: 1}}}}, NumInputs: 2, Outputs: []int{0}}
	if Isomorphic(a, b) {
		t.Fatal("different opcodes must not be isomorphic")
	}
	if a.Signature() == b.Signature() {
		t.Fatal("signatures must differ")
	}
}

func TestWildcardPair(t *testing.T) {
	mk := func(second ir.Opcode) *Shape {
		return &Shape{
			Nodes: []Node{
				{Code: ir.And, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefInput, Index: 1}}},
				{Code: second, Ins: []Ref{{Kind: RefNode, Index: 0}, {Kind: RefInput, Index: 2}}},
			},
			NumInputs: 3, Outputs: []int{1},
		}
	}
	a, b := mk(ir.Add), mk(ir.Sub)
	na, nb, ok := WildcardPair(a, b)
	if !ok || na != 1 || nb != 1 {
		t.Fatalf("wildcard pair = (%d,%d,%v), want (1,1,true)", na, nb, ok)
	}
	// Identical shapes: no single-mismatch pair (isoSearch finds a perfect
	// mapping, mismatch index -1).
	if _, _, ok := WildcardPair(a, mk(ir.Add)); ok {
		t.Fatal("identical shapes are not a wildcard pair")
	}
	// Two mismatches: not a wildcard pair.
	c := mk(ir.Sub)
	c.Nodes[0].Code = ir.Or
	if _, _, ok := WildcardPair(a, c); ok {
		t.Fatal("two mismatches must not form a wildcard pair")
	}
}

func TestFindMatchesExact(t *testing.T) {
	blk, d := shaLike()
	_ = blk
	// Pattern: and(shl(in0, imm), in1) — matches ops {0,1}.
	p := &Shape{
		Nodes: []Node{
			{Code: ir.Shl, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefImm, Index: 0}}},
			{Code: ir.And, Ins: []Ref{{Kind: RefNode, Index: 0}, {Kind: RefInput, Index: 1}}},
		},
		NumInputs: 2, NumImms: 1, Outputs: []int{0, 1},
	}
	ms := FindMatches(d, p, MatchOptions{})
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	m := ms[0]
	if !m.Set.Has(0) || !m.Set.Has(1) {
		t.Fatalf("matched set = %v", m.Set.Sorted())
	}
	if len(m.Imms) != 1 || m.Imms[0] != 3 {
		t.Fatalf("imms = %v, want [3]", m.Imms)
	}
	if len(m.Inputs) != 2 {
		t.Fatalf("inputs = %v", m.Inputs)
	}
}

func TestFindMatchesEscapeRejection(t *testing.T) {
	_, d := shaLike()
	// Pattern shl+and with shl NOT an output: must be rejected because the
	// shl value escapes to the xor.
	p := &Shape{
		Nodes: []Node{
			{Code: ir.Shl, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefImm, Index: 0}}},
			{Code: ir.And, Ins: []Ref{{Kind: RefNode, Index: 0}, {Kind: RefInput, Index: 1}}},
		},
		NumInputs: 2, NumImms: 1, Outputs: []int{1},
	}
	if ms := FindMatches(d, p, MatchOptions{}); len(ms) != 0 {
		t.Fatalf("escaping internal value must reject match, got %d", len(ms))
	}
}

func TestFindMatchesCommutative(t *testing.T) {
	b := ir.NewBlock("c", 1)
	x, y := b.Arg(ir.R(1)), b.Arg(ir.R(2))
	// add(x, and(x,y)) with operands reversed relative to the pattern.
	an := b.And(y, x)
	ad := b.Add(an, x)
	b.Def(ir.R(3), ad)
	d := ir.Analyze(b)
	p := &Shape{
		Nodes: []Node{
			{Code: ir.And, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefInput, Index: 1}}},
			{Code: ir.Add, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefNode, Index: 0}}},
		},
		NumInputs: 2, Outputs: []int{1},
	}
	ms := FindMatches(d, p, MatchOptions{})
	if len(ms) != 1 {
		t.Fatalf("commutative match failed: %d matches", len(ms))
	}
	// Reconvergence: pattern input 0 feeds both nodes, so both bindings
	// must be the same value (x).
	if ms[0].Inputs[0].Kind != ir.FromReg || ms[0].Inputs[0].Reg != ir.R(1) {
		t.Fatalf("port 0 bound to %v, want r1", ms[0].Inputs[0])
	}
}

func TestFindMatchesClassWildcard(t *testing.T) {
	b := ir.NewBlock("w", 1)
	x, y, z := b.Arg(ir.R(1)), b.Arg(ir.R(2)), b.Arg(ir.R(3))
	an := b.And(x, y)
	sb := b.Sub(an, z) // pattern has Add here
	b.Def(ir.R(4), sb)
	d := ir.Analyze(b)
	p := &Shape{
		Nodes: []Node{
			{Code: ir.And, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefInput, Index: 1}}},
			{Code: ir.Add, Ins: []Ref{{Kind: RefNode, Index: 0}, {Kind: RefInput, Index: 2}}},
		},
		NumInputs: 3, Outputs: []int{1},
	}
	if ms := FindMatches(d, p, MatchOptions{}); len(ms) != 0 {
		t.Fatal("exact match must fail on sub vs add")
	}
	addSub := func(a, o ir.Opcode) bool {
		if a == o {
			return true
		}
		grp := func(c ir.Opcode) int {
			switch c {
			case ir.Add, ir.Sub, ir.Rsb:
				return 1
			}
			return 0
		}
		return grp(a) == grp(o) && grp(a) != 0
	}
	ms := FindMatches(d, p, MatchOptions{OpMatch: addSub})
	if len(ms) != 1 {
		t.Fatalf("class match failed: %d matches", len(ms))
	}
	// Substituted shape must carry the real opcode for evaluation.
	ss := SubstitutedShape(d, p, ms[0])
	if ss.Nodes[1].Code != ir.Sub {
		t.Fatalf("substituted code = %s, want sub", ss.Nodes[1].Code)
	}
	got := ss.Eval([]uint32{0xF0, 0x3C, 5}, nil)
	if got[0] != (0xF0&0x3C)-5 {
		t.Fatalf("substituted eval = %#x", got[0])
	}
}

func TestFindMatchesNonConvexRejected(t *testing.T) {
	// a -> ext -> c chain where pattern {a,c} would be non-convex.
	b := ir.NewBlock("nc", 1)
	x := b.Arg(ir.R(1))
	a := b.And(x, b.Imm(0xFF)) // 0
	mid := b.Load(a)           // 1: external (loads can't be in CFUs)
	c := b.Add(a, mid)         // 2
	b.Def(ir.R(2), c)
	d := ir.Analyze(b)
	p := &Shape{
		Nodes: []Node{
			{Code: ir.And, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefImm, Index: 0}}},
			{Code: ir.Add, Ins: []Ref{{Kind: RefNode, Index: 0}, {Kind: RefInput, Index: 1}}},
		},
		NumInputs: 2, NumImms: 1, Outputs: []int{0, 1},
	}
	for _, m := range FindMatches(d, p, MatchOptions{}) {
		if m.Set.Has(0) && m.Set.Has(2) {
			t.Fatal("non-convex match {and,add} must be rejected")
		}
	}
}

func TestFindMatchesOpAllowed(t *testing.T) {
	_, d := shaLike()
	p, _, _ := FromOps(d, []int{0, 1})
	ms := FindMatches(d, p, MatchOptions{OpAllowed: func(i int) bool { return i != 1 }})
	if len(ms) != 0 {
		t.Fatal("claimed op must block the match")
	}
}

func TestSubsumedVariants(t *testing.T) {
	// and -> add -> shl (by imm): deleting the add (identity 0) yields
	// and -> shl; deleting the and is impossible via identity on an
	// internal edge? and's identity pins one input to all-ones: its args
	// are both external, so "shl(add(in,imm0?)..." — enumerate and check
	// we at least get the and-shl variant and the bare shl chain.
	s := &Shape{
		Nodes: []Node{
			{Code: ir.And, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefInput, Index: 1}}},
			{Code: ir.Add, Ins: []Ref{{Kind: RefNode, Index: 0}, {Kind: RefInput, Index: 2}}},
			{Code: ir.Shl, Ins: []Ref{{Kind: RefNode, Index: 1}, {Kind: RefImm, Index: 0}}},
		},
		NumInputs: 3, NumImms: 1, Outputs: []int{2},
	}
	vs := SubsumedVariants(s, 0)
	if len(vs) == 0 {
		t.Fatal("expected variants")
	}
	want := map[string]bool{"and-shl": false, "add-shl": false, "shl": false}
	for _, v := range vs {
		if err := v.Validate(); err != nil {
			t.Fatalf("invalid variant %v: %v", v, err)
		}
		if _, ok := want[v.Mnemonic()]; ok {
			want[v.Mnemonic()] = true
		}
	}
	for m, seen := range want {
		if !seen {
			t.Errorf("missing variant %q (got %d variants)", m, len(vs))
		}
	}
	// The original must not be among the variants.
	for _, v := range vs {
		if Isomorphic(v, s) {
			t.Fatal("original emitted as its own variant")
		}
	}
}

func TestSubsumedVariantSemantics(t *testing.T) {
	// For every variant, evaluating the variant must equal evaluating the
	// original with the deleted nodes neutralized. We verify the and-shl
	// variant against the original with add's second input = 0.
	s := &Shape{
		Nodes: []Node{
			{Code: ir.And, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefInput, Index: 1}}},
			{Code: ir.Add, Ins: []Ref{{Kind: RefNode, Index: 0}, {Kind: RefInput, Index: 2}}},
			{Code: ir.Shl, Ins: []Ref{{Kind: RefNode, Index: 1}, {Kind: RefImm, Index: 0}}},
		},
		NumInputs: 3, NumImms: 1, Outputs: []int{2},
	}
	for _, v := range SubsumedVariants(s, 0) {
		if v.Mnemonic() != "and-shl" {
			continue
		}
		a, b := uint32(0xDEAD), uint32(0xBEEF)
		got := v.Eval([]uint32{a, b}, []uint32{4})
		wantFull := s.Eval([]uint32{a, b, 0}, []uint32{4})
		if got[0] != wantFull[0] {
			t.Fatalf("variant eval %#x != neutralized original %#x", got[0], wantFull[0])
		}
		return
	}
	t.Fatal("and-shl variant not generated")
}

func TestMnemonicAndString(t *testing.T) {
	_, d := shaLike()
	s, _, _ := FromOps(d, []int{0, 1, 2})
	if s.Mnemonic() != "shl-and-add" {
		t.Fatalf("mnemonic = %q", s.Mnemonic())
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestWriteDOTShape(t *testing.T) {
	_, d := shaLike()
	s, _, _ := FromOps(d, []int{0, 1, 2})
	var buf strings.Builder
	if err := WriteDOT(&buf, "cfu0", s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "in0", "imm0", "out0", "shl", "->"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot output missing %q:\n%s", want, out)
		}
	}
	// Multi-function node renders double-circled.
	s2 := s.Clone()
	s2.Nodes[1].Class = 3
	buf.Reset()
	if err := WriteDOT(&buf, "c", s2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "doublecircle") {
		t.Fatal("class node not marked")
	}
	// Pinned constants render as dotted boxes.
	s3 := s.Clone()
	s3.Nodes[1].Ins[1] = Ref{Kind: RefConst, Val: 0xFF}
	buf.Reset()
	if err := WriteDOT(&buf, "c3", s3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dotted") {
		t.Fatal("const ref not rendered")
	}
}

func TestImmValues(t *testing.T) {
	_, d := shaLike()
	s, nodes, _ := FromOps(d, []int{0, 1, 2})
	imms := s.ImmValues(d, nodes)
	if len(imms) != 1 || imms[0] != 3 {
		t.Fatalf("imms = %v, want [3]", imms)
	}
}
