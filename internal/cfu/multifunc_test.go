package cfu

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/hwlib"
	"repro/internal/ir"
)

// wildcardProgram holds two hot blocks with and-add and and-sub chains, so
// a multi-function and-[addsub] unit can serve both.
func wildcardProgram() *ir.Program {
	p := ir.NewProgram("wc")
	b1 := p.AddBlock("hot1", 1000)
	x, y, z := b1.Arg(ir.R(1)), b1.Arg(ir.R(2)), b1.Arg(ir.R(3))
	b1.Def(ir.R(4), b1.Add(b1.And(x, y), z))
	b2 := p.AddBlock("hot2", 900)
	u, v, w := b2.Arg(ir.R(1)), b2.Arg(ir.R(2)), b2.Arg(ir.R(3))
	b2.Def(ir.R(4), b2.Sub(b2.And(u, v), w))
	return p
}

func buildCandidates(t *testing.T, p *ir.Program) []*CFU {
	t.Helper()
	res := explore.Explore(p, explore.DefaultConfig(hwlib.Default()))
	return Combine(res, hwlib.Default(), CombineOptions{})
}

func TestBuildMultiFunctionMergesPairs(t *testing.T) {
	cands := buildCandidates(t, wildcardProgram())
	n0 := len(cands)
	merged := BuildMultiFunction(cands, hwlib.Default())
	if len(merged) <= n0 {
		t.Fatal("no multi-function candidates were created")
	}
	var mf *CFU
	for _, c := range merged[n0:] {
		for _, node := range c.Shape.Nodes {
			if node.Class != 0 {
				mf = c
			}
		}
	}
	if mf == nil {
		t.Fatal("merged candidate has no class node")
	}
	// The merged unit inherits occurrences from both parents: its value
	// must exceed either single-function parent's.
	var andAdd, andSub *CFU
	for _, c := range cands {
		switch c.Shape.Mnemonic() {
		case "and-add":
			andAdd = c
		case "and-sub":
			andSub = c
		}
	}
	if andAdd == nil || andSub == nil {
		t.Skip("parent patterns not discovered")
	}
	var best *CFU
	for _, c := range merged[n0:] {
		if c.Shape.Mnemonic() == "and-[add]" || c.Shape.Mnemonic() == "and-[sub]" {
			best = c
		}
	}
	if best == nil {
		t.Fatalf("and-[addsub] merge missing; merged: %d candidates", len(merged)-n0)
	}
	if best.Value <= andAdd.Value || best.Value <= andSub.Value {
		t.Fatalf("merged value %v not above parents (%v, %v)",
			best.Value, andAdd.Value, andSub.Value)
	}
	// Class hardware costs more than either single-function parent.
	if best.Area <= andAdd.Area {
		t.Fatalf("merged area %v not above parent %v", best.Area, andAdd.Area)
	}
}

func TestMultiFunctionShapeCosts(t *testing.T) {
	lib := hwlib.Default()
	s := &graph.Shape{
		Nodes: []graph.Node{
			{Code: ir.And, Ins: []graph.Ref{{Kind: graph.RefInput, Index: 0}, {Kind: graph.RefInput, Index: 1}}},
			{Code: ir.Add, Class: uint8(hwlib.ClassAddSub), Ins: []graph.Ref{{Kind: graph.RefNode, Index: 0}, {Kind: graph.RefInput, Index: 2}}},
		},
		NumInputs: 3, Outputs: []int{1},
	}
	if got := classAwareArea(s, lib); got <= lib.Area(ir.And)+lib.Area(ir.Add) {
		t.Fatalf("class area %v should exceed single-function area", got)
	}
	if got := classAwareCycles(s, lib); got < 1 {
		t.Fatalf("cycles = %d", got)
	}
	if s.Mnemonic() != "and-[add]" {
		t.Fatalf("mnemonic = %q", s.Mnemonic())
	}
}

func TestMultiFunctionMatchesBothOpcodes(t *testing.T) {
	lib := hwlib.Default()
	pat := &graph.Shape{
		Nodes: []graph.Node{
			{Code: ir.And, Ins: []graph.Ref{{Kind: graph.RefInput, Index: 0}, {Kind: graph.RefInput, Index: 1}}},
			{Code: ir.Add, Class: uint8(hwlib.ClassAddSub), Ins: []graph.Ref{{Kind: graph.RefNode, Index: 0}, {Kind: graph.RefInput, Index: 2}}},
		},
		NumInputs: 3, Outputs: []int{1},
	}
	classOf := func(c ir.Opcode) uint8 { return uint8(lib.ClassOf(c)) }
	for _, code := range []ir.Opcode{ir.Add, ir.Sub, ir.Rsb} {
		b := ir.NewBlock("t", 1)
		x, y, z := b.Arg(ir.R(1)), b.Arg(ir.R(2)), b.Arg(ir.R(3))
		v := b.And(x, y)
		b.Def(ir.R(4), b.Emit(code, v, z).Out())
		d := ir.Analyze(b)
		ms := graph.FindMatches(d, pat, graph.MatchOptions{ClassOf: classOf})
		if len(ms) != 1 {
			t.Fatalf("%s: matches = %d, want 1", code, len(ms))
		}
	}
	// A non-class opcode (xor) must not match the class node.
	b := ir.NewBlock("t", 1)
	x, y, z := b.Arg(ir.R(1)), b.Arg(ir.R(2)), b.Arg(ir.R(3))
	b.Def(ir.R(4), b.Xor(b.And(x, y), z))
	d := ir.Analyze(b)
	if ms := graph.FindMatches(d, pat, graph.MatchOptions{ClassOf: classOf}); len(ms) != 0 {
		t.Fatal("xor matched an addsub class node")
	}
}

func TestMultiFunctionSelectionPreference(t *testing.T) {
	// With a budget fitting one multi-function unit but not two
	// single-function units plus their value... verify selection includes
	// the merged candidate when it is strictly better.
	cands := buildCandidates(t, wildcardProgram())
	merged := BuildMultiFunction(cands, hwlib.Default())
	sel := Select(merged, SelectOptions{Budget: 15})
	foundClassNode := false
	for _, c := range sel.CFUs {
		for _, n := range c.Shape.Nodes {
			if n.Class != 0 {
				foundClassNode = true
			}
		}
	}
	if !foundClassNode {
		t.Fatal("selection ignored the multi-function candidate despite higher value/cost")
	}
}
