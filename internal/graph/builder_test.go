package graph

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// fromOpsReference is the standalone shape extraction that ShapeBuilder
// replaced, kept as the oracle the builder must reproduce exactly.
func fromOpsReference(d *ir.DFG, ops []int) (*Shape, []int, []ir.Operand) {
	members := slices.Clone(ops)
	slices.SortFunc(members, func(a, b int) int {
		if c := cmp.Compare(d.Depth[a], d.Depth[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	nodeOf := func(a ir.Operand) int {
		if a.Kind == ir.FromOp {
			for k, m := range members {
				if d.Block.Ops[m] == a.X {
					return k
				}
			}
		}
		return -1
	}
	s := &Shape{Nodes: make([]Node, len(members))}
	var inputs []ir.Operand
	inputSlot := func(a ir.Operand) int {
		for k, e := range inputs {
			if e.SameValue(a) {
				return k
			}
		}
		inputs = append(inputs, a)
		return len(inputs) - 1
	}
	for k, m := range members {
		op := d.Block.Ops[m]
		s.Nodes[k].Code = op.Code
		for _, a := range op.Args {
			var r Ref
			if a.Kind == ir.Imm {
				r = Ref{Kind: RefImm, Index: s.NumImms}
				s.NumImms++
			} else if n := nodeOf(a); n >= 0 {
				r = Ref{Kind: RefNode, Index: n}
			} else {
				r = Ref{Kind: RefInput, Index: inputSlot(a)}
			}
			s.Nodes[k].Ins = append(s.Nodes[k].Ins, r)
		}
	}
	s.NumInputs = len(inputs)
	for k, m := range members {
		op := d.Block.Ops[m]
		if op.NumResults() == 0 {
			continue
		}
		out := op.Dest != 0 || slices.ContainsFunc(op.Dests, func(r ir.Reg) bool { return r != 0 }) ||
			slices.ContainsFunc(d.Users(m), func(u int) bool { return !slices.Contains(members, u) })
		if out {
			s.Outputs = append(s.Outputs, k)
		}
	}
	return s, members, inputs
}

// exploredCandidates returns every benchmark's explored candidates, then
// two hand-made ones that exploration never records: a node without
// operands and a subgraph without outputs, each right after a candidate
// that has both, so a reused builder must reset them.
func exploredCandidates(t *testing.T) []explore.Candidate {
	var cands []explore.Candidate
	for _, b := range workloads.All() {
		cands = append(cands, explore.Explore(b.Program, explore.DefaultConfig(hwlib.Default())).Candidates...)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates explored")
	}
	blk := ir.NewBlock("edge", 1)
	x := blk.Add(blk.Arg(ir.R(1)), blk.Arg(ir.R(2))) // 0
	blk.Emit(ir.Nop)                                 // 1
	blk.Def(ir.R(3), blk.Xor(x, blk.Imm(7)))         // 2
	d := ir.Analyze(blk)
	for _, ops := range [][]int{{0, 2}, {1}, {0, 2}, {1, 2}} {
		cands = append(cands, explore.Candidate{Block: blk, DFG: d, Ops: ops})
	}
	return cands
}

// TestShapeBuilderMatchesFromOps lifts every explored candidate of every
// benchmark through one reused ShapeBuilder and through the reference
// extraction, and requires the same nodes (nil Ins included), output
// nil-ness, port counts and signature. FromOps, the builder on a fresh
// value, must also return the reference's members and input bindings.
func TestShapeBuilderMatchesFromOps(t *testing.T) {
	var sb ShapeBuilder
	for i, c := range exploredCandidates(t) {
		want, wantMembers, wantInputs := fromOpsReference(c.DFG, c.Ops)
		wantSig := want.Signature()
		sb.Build(c.DFG, c.Ops)
		sig := string(sb.Sig())
		if sig != wantSig {
			t.Fatalf("candidate %d (%s %v): builder signature differs", i, c.Block.Name, c.Ops)
		}
		for _, got := range []*Shape{sb.Detach(sig), sb.Detach("")} {
			switch {
			case !reflect.DeepEqual(got.Nodes, want.Nodes):
				t.Fatalf("candidate %d (%s %v): nodes %v, want %v", i, c.Block.Name, c.Ops, got, want)
			case !reflect.DeepEqual(got.Outputs, want.Outputs):
				t.Fatalf("candidate %d (%s %v): outputs %#v, want %#v", i, c.Block.Name, c.Ops, got.Outputs, want.Outputs)
			case got.NumInputs != want.NumInputs || got.NumImms != want.NumImms:
				t.Fatalf("candidate %d (%s %v): ports %d/%d, want %d/%d", i, c.Block.Name, c.Ops,
					got.NumInputs, got.NumImms, want.NumInputs, want.NumImms)
			case got.Signature() != wantSig:
				t.Fatalf("candidate %d (%s %v): detached signature differs", i, c.Block.Name, c.Ops)
			}
		}
		s, members, inputs := FromOps(c.DFG, c.Ops)
		if !reflect.DeepEqual(s.Nodes, want.Nodes) || !slices.Equal(members, wantMembers) || !reflect.DeepEqual(inputs, wantInputs) {
			t.Fatalf("candidate %d (%s %v): FromOps differs from the reference", i, c.Block.Name, c.Ops)
		}
	}
}

// TestShapeBuilderDuplicateAllocFree pins combination's common case: a
// candidate whose CFU already exists is built, signed, looked up and
// matched without allocating.
func TestShapeBuilderDuplicateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector skews alloc counts")
	}
	_, d := shaLike()
	ops := []int{2, 0, 1}
	var sb ShapeBuilder
	sb.Build(d, ops)
	key := string(sb.Sig())
	home := sb.Detach(key)
	bySig := map[string][]*Shape{key: {home}}
	got := testing.AllocsPerRun(200, func() {
		sb.Build(d, ops)
		for _, s := range bySig[string(sb.Sig())] {
			if !sb.IsomorphicTo(s) {
				t.Fatal("duplicate candidate not isomorphic to its CFU")
			}
		}
	})
	if got != 0 {
		t.Fatalf("duplicate candidate allocates %.1f objects/op; want 0", got)
	}
}

// TestIsomorphicAllocFree pins that comparing two shapes of at most 32
// nodes with cached signatures runs on stack buffers alone, and that
// larger shapes still compare correctly on heap buffers.
func TestIsomorphicAllocFree(t *testing.T) {
	for _, n := range []int{12, isoStackNodes, isoStackNodes + 8} {
		a, b := chainShape(n), chainShape(n)
		if !Isomorphic(a, b) {
			t.Fatalf("%d-node chains not isomorphic", n)
		}
		if raceEnabled || n > isoStackNodes {
			continue
		}
		if got := testing.AllocsPerRun(50, func() { Isomorphic(a, b) }); got != 0 {
			t.Fatalf("Isomorphic on %d-node shapes allocates %.1f objects/op; want 0", n, got)
		}
	}
}
