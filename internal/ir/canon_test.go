package ir

import "testing"

// buildDiamond emits the same DFG — r3 = (x+y) * (x^0xABC), r4 = x&y — with
// the pure ops in a caller-chosen emission order.
func buildDiamond(order string) *Program {
	p := NewProgram("diamond")
	b := p.AddBlock("hot", 1000)
	x, y := b.Arg(R(1)), b.Arg(R(2))
	var sum, mask Operand
	if order == "sum-first" {
		sum = b.Add(x, y)
		mask = b.Xor(x, b.Imm(0xABC))
	} else {
		mask = b.Xor(x, b.Imm(0xABC))
		sum = b.Add(x, y)
	}
	b.Def(R(3), b.Mul(sum, mask))
	b.Def(R(4), b.And(x, y))
	return p
}

// The pipeline reads op order, so the program hash must too: the same DFG
// emitted in a different order is a different input.
func TestFingerprintSensitiveToPureReordering(t *testing.T) {
	a, c := buildDiamond("sum-first"), buildDiamond("mask-first")
	if a.String() == c.String() {
		t.Fatal("test is vacuous: the two emission orders produced identical text")
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Errorf("reordered pure ops kept the fingerprint:\n%s\nvs\n%s", a, c)
	}
}

func TestFingerprintIgnoresOpIDs(t *testing.T) {
	a, c := buildDiamond("sum-first"), buildDiamond("sum-first")
	// Renumber c's op IDs; the fingerprint must not see them.
	for _, op := range c.Blocks[0].Ops {
		op.ID += 100
	}
	if Fingerprint(a) != Fingerprint(c) {
		t.Error("op ID renumbering changed the fingerprint")
	}
}

func TestFingerprintSensitiveToSemantics(t *testing.T) {
	base := Fingerprint(buildDiamond("sum-first"))
	mutations := map[string]func(p *Program){
		"program name":  func(p *Program) { p.Name = "other" },
		"block name":    func(p *Program) { p.Blocks[0].Name = "cold" },
		"block weight":  func(p *Program) { p.Blocks[0].Weight = 999 },
		"successor":     func(p *Program) { p.Blocks[0].Succs = []string{"exit"} },
		"opcode":        func(p *Program) { p.Blocks[0].Ops[0].Code = Sub },
		"immediate":     func(p *Program) { p.Blocks[0].Ops[1].Args[1].Val = 0xDEF },
		"live-out reg":  func(p *Program) { p.Blocks[0].Ops[2].Dest = R(9) },
		"input reg":     func(p *Program) { p.Blocks[0].Ops[0].Args[0].Reg = R(7) },
		"duplicated op": func(p *Program) { b := p.Blocks[0]; b.Def(R(5), b.And(b.Arg(R(1)), b.Arg(R(2)))) },
	}
	for label, mutate := range mutations {
		p := buildDiamond("sum-first")
		mutate(p)
		if Fingerprint(p) == base {
			t.Errorf("%s change did not change the fingerprint", label)
		}
	}
}

func TestFingerprintOrdersMemoryOps(t *testing.T) {
	build := func(loadAFirst bool) *Program {
		p := NewProgram("mem")
		b := p.AddBlock("hot", 10)
		var va, vb Operand
		if loadAFirst {
			va = b.Load(b.Arg(R(1)))
			vb = b.Load(b.Arg(R(2)))
		} else {
			vb = b.Load(b.Arg(R(2)))
			va = b.Load(b.Arg(R(1)))
		}
		b.Store(b.Arg(R(3)), b.Add(va, vb))
		return p
	}
	// Reordering memory operations is conservatively treated as a change:
	// a stale key only costs a cache miss, never a wrong hit.
	if Fingerprint(build(true)) == Fingerprint(build(false)) {
		t.Error("memory-op reordering did not change the fingerprint")
	}
}
