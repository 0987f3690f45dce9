package cfu

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/hwlib"
	"repro/internal/ir"
)

// unitShape builds a minimal one-node shape so hand-built CFUs can pass
// through ensureVariants and the knapsack's ratio sort.
func unitShape() *graph.Shape {
	return &graph.Shape{
		Nodes:     []graph.Node{{Code: ir.And, Ins: []graph.Ref{{Kind: graph.RefInput}, {Kind: graph.RefInput, Index: 1}}}},
		NumInputs: 2,
		Outputs:   []int{0},
	}
}

// TestKnapsackQuantizationExactAreas is the regression test for the area
// quantization bug: an area that is an exact multiple of the 0.05 quantum
// but computed through float arithmetic (0.1 + 0.2 = 0.30000000000000004)
// used to quantize to ceil(6.000000000000001) = 7 quanta instead of 6,
// inflating every such CFU by a whole quantum and pushing feasible sets
// over the DP capacity.
func TestKnapsackQuantizationExactAreas(t *testing.T) {
	// Runtime addition (constants would fold exactly): 0.1 + 0.2 gives
	// 0.30000000000000004, a hair over 6 quanta — how real CFU areas are
	// produced, as sums of per-op hwlib entries.
	x, y := 0.1, 0.2
	area := x + y
	if area == 0.3 {
		t.Skip("float arithmetic changed; pick a new quantum-aligned area")
	}
	cfus := []*CFU{
		{ID: 0, Shape: unitShape(), Area: area, Value: 100, SavedPerExec: 1},
		{ID: 1, Shape: unitShape(), Area: area, Value: 100, SavedPerExec: 1},
	}
	// Budget 0.6 = 12 quanta holds both CFUs at their true weight of 6
	// quanta each; at the inflated weight of 7 only one fits.
	sel := Select(cfus, SelectOptions{Budget: 0.6, Mode: Knapsack})
	if len(sel.CFUs) != 2 {
		t.Fatalf("selected %d CFUs, want 2: quantization inflated exactly-quantized areas", len(sel.CFUs))
	}
	if sel.TotalArea > 0.6+1e-9 {
		t.Fatalf("overspent: %v > 0.6", sel.TotalArea)
	}
}

// TestKnapsackQuantizationMatchesExactDivision pins the quantized weights
// themselves: every area within float noise of k*0.05 must weigh k quanta.
func TestKnapsackQuantizationMatchesExactDivision(t *testing.T) {
	const quantum = 0.05
	for k := 1; k <= 400; k++ {
		area := float64(k) * quantum
		for _, a := range []float64{area, area * (1 + 1e-12), area * (1 - 1e-12)} {
			w := int(math.Ceil(a/quantum - 1e-9))
			if w <= 0 {
				w = 1
			}
			if w != k {
				t.Fatalf("area %v (k=%d): weight %d, want %d", a, k, w, k)
			}
		}
	}
}

// TestKnapsackHonorsMaxVariants is the regression test for the variant-cap
// bug: the knapsack path once generated variants under a different cap
// than the greedy path, so the same CFU carried differently sized variant
// lists depending on the selection mode. Both paths must now give every
// shared CFU the same list, never longer than maxVariants.
func TestKnapsackHonorsMaxVariants(t *testing.T) {
	variantCounts := func(mode SelectMode) map[string]int {
		// Fresh CFUs per mode: variant generation is once-per-CFU, so a
		// shared list would mask the bug.
		res := exploreTwin(t)
		cfus := Combine(res, hwlib.Default(), CombineOptions{})
		sel := Select(cfus, SelectOptions{Budget: 15, Mode: mode})
		out := make(map[string]int)
		for _, c := range sel.CFUs {
			out[c.Shape.Mnemonic()] = len(c.Variants)
		}
		return out
	}
	greedy := variantCounts(GreedyRatio)
	knap := variantCounts(Knapsack)
	if len(knap) == 0 {
		t.Fatal("knapsack selected nothing")
	}
	shared := 0
	for mn, n := range knap {
		if n > maxVariants {
			t.Fatalf("knapsack CFU %s generated %d variants, cap is %d", mn, n, maxVariants)
		}
		if g, ok := greedy[mn]; ok {
			shared++
			if g != n {
				t.Fatalf("CFU %s: %d variants under knapsack, %d under greedy", mn, n, g)
			}
		}
	}
	if shared == 0 {
		t.Fatal("greedy and knapsack share no CFU; the comparison is vacuous")
	}
	for mn, n := range greedy {
		if n > maxVariants {
			t.Fatalf("greedy CFU %s generated %d variants, cap is %d", mn, n, maxVariants)
		}
	}
}

// TestKnapsackUncappedVariantsExceedCap guards the premise of the test
// above: at least one selected CFU generates more than one variant, so
// comparing list lengths between the modes is not vacuous.
func TestKnapsackUncappedVariantsExceedCap(t *testing.T) {
	res := exploreTwin(t)
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	sel := Select(cfus, SelectOptions{Budget: 15, Mode: Knapsack})
	max := 0
	for _, c := range sel.CFUs {
		if len(c.Variants) > max {
			max = len(c.Variants)
		}
	}
	if max <= 1 {
		t.Fatalf("largest variant list is %d; the variant-cap regression test needs > 1", max)
	}
}

// TestSelectModeText pins the one spelling of the selection modes shared
// by the CLI -mode flags and iscd's select_mode field.
func TestSelectModeText(t *testing.T) {
	for name, want := range map[string]SelectMode{"greedy": GreedyRatio, "value": GreedyValue, "dp": Knapsack, "": GreedyRatio} {
		var m SelectMode
		if err := m.UnmarshalText([]byte(name)); err != nil || m != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", name, m, err, want)
		}
		if name == "" {
			continue
		}
		if b, err := want.MarshalText(); err != nil || string(b) != name {
			t.Errorf("MarshalText(%v) = %q, %v; want %q", want, b, err, name)
		}
	}
	var m SelectMode
	if err := m.UnmarshalText([]byte("psychic")); err == nil {
		t.Error("UnmarshalText accepted an unknown mode")
	}
	if _, err := SelectMode(7).MarshalText(); err == nil {
		t.Error("MarshalText accepted an out-of-range mode")
	}
}
