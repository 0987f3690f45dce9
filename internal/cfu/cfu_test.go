package cfu

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/hwlib"
	"repro/internal/ir"
)

// twinBlock contains two identical shl-and-add chains (like the paper's
// 7-10-13-16 / 8-11-14-17 example) plus an unrelated sub.
func twinBlock() *ir.Block {
	b := ir.NewBlock("twin", 500)
	x, y := b.Arg(ir.R(1)), b.Arg(ir.R(2))
	c1 := b.Add(b.And(b.Shl(x, b.Imm(8)), b.Imm(0xFF00)), y)
	c2 := b.Add(b.And(b.Shl(y, b.Imm(8)), b.Imm(0xFF00)), x)
	z := b.Sub(c1, c2)
	b.Def(ir.R(3), z)
	return b
}

func exploreTwin(t *testing.T) *explore.Result {
	t.Helper()
	p := ir.NewProgram("twin")
	p.Blocks = append(p.Blocks, twinBlock())
	return explore.Explore(p, explore.DefaultConfig(hwlib.Default()))
}

func TestCombineGroupsIsomorphs(t *testing.T) {
	res := exploreTwin(t)
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	AnalyzeRelationships(cfus, hwlib.Default())
	if len(cfus) == 0 {
		t.Fatal("no CFUs")
	}
	// The full shl-and-add chain must appear as one CFU with 2 occurrences.
	var chain *CFU
	for _, c := range cfus {
		if c.Shape.Mnemonic() == "shl-and-add" {
			chain = c
			break
		}
	}
	if chain == nil {
		t.Fatal("shl-and-add CFU not formed")
	}
	if len(chain.Occurrences) != 2 {
		t.Fatalf("occurrences = %d, want 2", len(chain.Occurrences))
	}
	// Value: both occurrences are disjoint; saved = 3 ops - 1 cycle = 2;
	// weight 500 each -> 2000.
	if chain.SavedPerExec != 2 {
		t.Fatalf("savedPerExec = %v, want 2", chain.SavedPerExec)
	}
	if chain.Value != 2000 {
		t.Fatalf("value = %v, want 2000", chain.Value)
	}
}

func TestCombineDropsWorthlessCFUs(t *testing.T) {
	res := exploreTwin(t)
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	AnalyzeRelationships(cfus, hwlib.Default())
	for _, c := range cfus {
		if c.SavedPerExec <= 0 {
			t.Fatalf("CFU %s saves %v cycles per exec; should be dropped",
				c.Name(), c.SavedPerExec)
		}
	}
}

func TestSubsumptionRecorded(t *testing.T) {
	res := exploreTwin(t)
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	AnalyzeRelationships(cfus, hwlib.Default())
	var chain, sub *CFU
	for _, c := range cfus {
		switch c.Shape.Mnemonic() {
		case "shl-and-add":
			chain = c
		case "shl-and":
			sub = c
		}
	}
	if chain == nil || sub == nil {
		t.Skip("explorer did not record both patterns")
	}
	if !containsInt(chain.Subsumes, sub.ID) {
		t.Fatalf("%s must subsume %s", chain.Name(), sub.Name())
	}
	if !containsInt(sub.SubsumedBy, chain.ID) {
		t.Fatal("reverse subsumption link missing")
	}
}

func TestWildcardsRecorded(t *testing.T) {
	// Two chains identical except add vs sub at the tail.
	b := ir.NewBlock("w", 100)
	x, y := b.Arg(ir.R(1)), b.Arg(ir.R(2))
	v1 := b.Add(b.And(x, y), x)
	v2 := b.Sub(b.And(y, x), y)
	b.Def(ir.R(3), b.Or(v1, v2))
	p := ir.NewProgram("w")
	p.Blocks = append(p.Blocks, b)
	res := explore.Explore(p, explore.DefaultConfig(hwlib.Default()))
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	AnalyzeRelationships(cfus, hwlib.Default())
	var andAdd, andSub *CFU
	for _, c := range cfus {
		switch c.Shape.Mnemonic() {
		case "and-add":
			andAdd = c
		case "and-sub":
			andSub = c
		}
	}
	if andAdd == nil || andSub == nil {
		t.Skip("explorer did not record both patterns")
	}
	if !containsInt(andAdd.Wildcards, andSub.ID) || !containsInt(andSub.Wildcards, andAdd.ID) {
		t.Fatalf("and-add and and-sub must be wildcard partners (got %v / %v)",
			andAdd.Wildcards, andSub.Wildcards)
	}
}

func TestGreedySelectionRespectsBudget(t *testing.T) {
	res := exploreTwin(t)
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	AnalyzeRelationships(cfus, hwlib.Default())
	for _, budget := range []float64{0.5, 1, 2, 5, 15} {
		sel := Select(cfus, SelectOptions{Budget: budget})
		if sel.TotalArea > budget+1e-9 {
			t.Fatalf("budget %v: spent %v", budget, sel.TotalArea)
		}
	}
}

func TestSelectionUpdatesValues(t *testing.T) {
	res := exploreTwin(t)
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	AnalyzeRelationships(cfus, hwlib.Default())
	sel := Select(cfus, SelectOptions{Budget: 15})
	// The shl-and-add chain claims its ops; the shl-and prefix must not be
	// selected afterwards since its occurrences fully overlap.
	seen := map[string]bool{}
	for _, c := range sel.CFUs {
		seen[c.Shape.Mnemonic()] = true
	}
	if seen["shl-and-add"] && seen["shl-and"] {
		t.Fatal("prefix CFU selected despite full overlap with the chain")
	}
}

func TestSelectionMonotoneInBudget(t *testing.T) {
	res := exploreTwin(t)
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	AnalyzeRelationships(cfus, hwlib.Default())
	prev := -1.0
	for _, budget := range []float64{0.5, 1, 2, 4, 8, 15} {
		sel := Select(cfus, SelectOptions{Budget: budget})
		if sel.EstimatedSavings < prev {
			t.Fatalf("estimated savings fell from %v to %v at budget %v",
				prev, sel.EstimatedSavings, budget)
		}
		prev = sel.EstimatedSavings
	}
}

func TestKnapsackSelection(t *testing.T) {
	res := exploreTwin(t)
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	AnalyzeRelationships(cfus, hwlib.Default())
	g := Select(cfus, SelectOptions{Budget: 3, Mode: GreedyRatio})
	k := Select(cfus, SelectOptions{Budget: 3, Mode: Knapsack})
	if k.TotalArea > 3+1e-9 {
		t.Fatalf("knapsack overspent: %v", k.TotalArea)
	}
	if len(k.CFUs) == 0 && len(g.CFUs) > 0 {
		t.Fatal("knapsack selected nothing while greedy found candidates")
	}
}

func TestGreedyValueMode(t *testing.T) {
	res := exploreTwin(t)
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	AnalyzeRelationships(cfus, hwlib.Default())
	v := Select(cfus, SelectOptions{Budget: 15, Mode: GreedyValue})
	if len(v.CFUs) == 0 {
		t.Fatal("greedy-value selected nothing")
	}
	if GreedyValue.String() != "greedy-value" || Knapsack.String() != "knapsack-dp" {
		t.Fatal("mode strings wrong")
	}
}

func TestSubsumedDiscountApplied(t *testing.T) {
	// Build CFUs by hand: a big CFU subsuming a small one, with disjoint
	// occurrence sets so both get selected; the small one must be charged
	// the discounted cost.
	blkA := ir.NewBlock("a", 100)
	x, y, z := blkA.Arg(ir.R(1)), blkA.Arg(ir.R(2)), blkA.Arg(ir.R(3))
	big := blkA.Shl(blkA.Add(blkA.And(x, y), z), blkA.Imm(2))
	blkA.Def(ir.R(4), big)
	blkB := ir.NewBlock("b", 100)
	u, v := blkB.Arg(ir.R(1)), blkB.Arg(ir.R(2))
	small := blkB.Shl(blkB.And(u, v), blkB.Imm(3))
	blkB.Def(ir.R(3), small)
	p := ir.NewProgram("sd")
	p.Blocks = append(p.Blocks, blkA, blkB)
	res := explore.Explore(p, explore.DefaultConfig(hwlib.Default()))
	cfus := Combine(res, hwlib.Default(), CombineOptions{})
	AnalyzeRelationships(cfus, hwlib.Default())
	var bigC, smallC *CFU
	for _, c := range cfus {
		switch c.Shape.Mnemonic() {
		case "and-add-shl":
			bigC = c
		case "and-shl":
			smallC = c
		}
	}
	if bigC == nil || smallC == nil {
		t.Skip("patterns not discovered")
	}
	if !containsInt(bigC.Subsumes, smallC.ID) {
		t.Fatal("subsumption not recorded")
	}
	// Budget exactly fits the big CFU plus a sliver: without the discount
	// the small CFU could not be added.
	budget := bigC.Area + smallC.Area*0.5
	sel := Select(cfus, SelectOptions{Budget: budget})
	got := map[int]bool{}
	for _, c := range sel.CFUs {
		got[c.ID] = true
	}
	if got[bigC.ID] && !got[smallC.ID] {
		t.Fatal("subsumed CFU should ride along at discounted cost")
	}
}

func TestMnemonicNameFormat(t *testing.T) {
	s := &graph.Shape{Nodes: []graph.Node{{Code: ir.And, Ins: []graph.Ref{{Kind: graph.RefInput}, {Kind: graph.RefInput, Index: 1}}}}, NumInputs: 2, Outputs: []int{0}}
	c := &CFU{ID: 7, Shape: s}
	if c.Name() != "cfu7<and>" {
		t.Fatalf("name = %q", c.Name())
	}
}
