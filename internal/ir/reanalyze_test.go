package ir

import "testing"

// reanalyzeBlock builds a block of rounds unrolled rounds with data,
// memory-ordering and terminator edges.
func reanalyzeBlock(rounds int) *Block {
	b := NewBlock("re", 1)
	acc, key := b.Arg(R(1)), b.Arg(R(2))
	for r := 0; r < rounds; r++ {
		t1 := b.Xor(acc, b.Imm(uint32(r)))
		t2 := b.Add(b.Shl(t1, b.Imm(4)), key)
		ld := b.Load(b.Add(t2, b.Imm(uint32(r*4))))
		b.Store(t1, ld)
		acc = b.Or(ld, t2)
	}
	b.Def(R(3), acc)
	b.Branch()
	return b
}

// TestReanalyzeAllocFree pins the compile loop's steady state: once a
// recycled DFG's buffers have grown to a block's size, rebuilding it for
// that block, or for a smaller one, allocates nothing.
func TestReanalyzeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector skews alloc counts")
	}
	large, small := reanalyzeBlock(24), reanalyzeBlock(5)
	d := new(DFG)
	d.Reanalyze(large)
	if got := testing.AllocsPerRun(50, func() { d.Reanalyze(large) }); got != 0 {
		t.Fatalf("re-analysis of the same block allocates %.1f objects/op; want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		d.Reanalyze(small)
		d.Reanalyze(large)
	}); got != 0 {
		t.Fatalf("re-analysis alternating blocks allocates %.1f objects/op; want 0", got)
	}
}
