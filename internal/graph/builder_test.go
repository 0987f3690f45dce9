package graph

import "testing"

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
