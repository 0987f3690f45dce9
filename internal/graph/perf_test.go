package graph

import (
	"testing"

	"repro/internal/ir"
)

// TestFindMatchesAllocBounds pins the matcher's steady-state allocation
// behavior: once the scratch pool is warm, a probe that finds nothing must
// not allocate at all (the overwhelmingly common case — the compiler probes
// every CFU pattern against every block), and a probe that finds one match
// may only pay for the returned Match's own slices.
func TestFindMatchesAllocBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments sync.Pool and skews alloc counts")
	}
	_, d := shaLike()
	noMatch := &Shape{
		NumInputs: 2,
		Nodes:     []Node{{Code: ir.Sub, Ins: []Ref{{Kind: RefInput, Index: 0}, {Kind: RefInput, Index: 1}}}},
		Outputs:   []int{0},
	}
	oneMatch, _, _ := FromOps(d, []int{0, 1, 2})

	// Warm the scratch pool.
	FindMatches(d, noMatch, MatchOptions{})
	if ms := FindMatches(d, oneMatch, MatchOptions{}); len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}

	if got := testing.AllocsPerRun(200, func() {
		FindMatches(d, noMatch, MatchOptions{})
	}); got > 0 {
		t.Fatalf("no-match probe allocates %.1f objects/op; want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		FindMatches(d, oneMatch, MatchOptions{})
	}); got > 8 {
		t.Fatalf("single-match probe allocates %.1f objects/op; want <= 8", got)
	}
}

// TestSignatureOpcodeWidth guards the signature's opcode packing: the field
// is 16 bits wide, so every representable opcode must map to a distinct
// single-node signature (no aliasing into a shared bucket key), and the
// hardware-class byte must separate class nodes of equal code.
func TestSignatureOpcodeWidth(t *testing.T) {
	if int(ir.MaxOpcode) >= 1<<16 {
		t.Fatalf("opcode space (%d) outgrew the 16-bit signature field", int(ir.MaxOpcode))
	}
	sigs := make(map[string]ir.Opcode, int(ir.MaxOpcode))
	for c := ir.Opcode(0); c < ir.MaxOpcode; c++ {
		s := &Shape{Nodes: []Node{{Code: c}}, Outputs: []int{0}}
		sig := s.Signature()
		if prev, dup := sigs[sig]; dup {
			t.Fatalf("opcodes %v and %v alias to one signature", prev, c)
		}
		sigs[sig] = c
	}
	a := &Shape{Nodes: []Node{{Code: ir.Add, Class: 1}}, Outputs: []int{0}}
	b := &Shape{Nodes: []Node{{Code: ir.Add, Class: 2}}, Outputs: []int{0}}
	if a.Signature() == b.Signature() {
		t.Fatal("class ids alias to one signature")
	}
}
