package cfu

import (
	"math"
	"sort"
	"testing"

	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// The estimator and selector below are a straightforward map-based
// reference for the dense opSpace kernel: every pick and every float the
// kernel produces must match them bit for bit.

type refOpKey struct {
	block *ir.Block
	op    int
}

// refLiveOccurrences returns a maximal set of mutually disjoint occurrences
// that avoid claimed ops, accumulating their ops into used.
func refLiveOccurrences(c *CFU, claimed, used map[refOpKey]bool) []Occurrence {
	var out []Occurrence
	for _, occ := range c.Occurrences {
		ok := true
		for _, i := range occ.Ops {
			k := refOpKey{occ.Block, i}
			if claimed[k] || used[k] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, i := range occ.Ops {
			used[refOpKey{occ.Block, i}] = true
		}
		out = append(out, occ)
	}
	return out
}

func refEstimateValue(c *CFU, claimed map[refOpKey]bool) float64 {
	total := 0.0
	for _, occ := range refLiveOccurrences(c, claimed, make(map[refOpKey]bool)) {
		total += occ.Weight * c.SavedPerExec
	}
	return total
}

// refClaim adds the savings of c's live occurrences onto acc and claims
// their ops.
func refClaim(c *CFU, claimed map[refOpKey]bool, acc float64) float64 {
	for _, occ := range refLiveOccurrences(c, claimed, make(map[refOpKey]bool)) {
		acc += occ.Weight * c.SavedPerExec
		for _, i := range occ.Ops {
			claimed[refOpKey{occ.Block, i}] = true
		}
	}
	return acc
}

// refSelect is Select as it was written over maps keyed by CFU ID and
// (block, op).
func refSelect(cfus []*CFU, opts SelectOptions) *Selection {
	if opts.SubsumedDiscount == 0 {
		opts.SubsumedDiscount = 0.05
	}
	if opts.WildcardDiscount == 0 {
		opts.WildcardDiscount = 0.25
	}
	if opts.Lib == nil {
		opts.Lib = hwlib.Default()
	}
	if opts.Mode == Knapsack {
		return refKnapsack(cfus, opts)
	}
	sel := &Selection{}
	rel := newRelationIndex(cfus)
	remaining := opts.Budget
	claimed := make(map[refOpKey]bool)
	picked := make(map[int]bool)
	costMul := make(map[int]float64, len(cfus))
	for _, c := range cfus {
		costMul[c.ID] = 1.0
	}
	cost := func(c *CFU) float64 {
		a := c.Area * costMul[c.ID]
		if a < 0.05 {
			a = 0.05
		}
		return a
	}
	for {
		var best *CFU
		var bestScore float64
		for _, c := range cfus {
			if picked[c.ID] || cost(c) > remaining+1e-9 {
				continue
			}
			v := refEstimateValue(c, claimed)
			if v <= 0 {
				continue
			}
			score := v / cost(c)
			if opts.Mode == GreedyValue {
				score = v
			}
			if best == nil || score > bestScore {
				best, bestScore = c, score
			}
		}
		if best == nil {
			break
		}
		picked[best.ID] = true
		sel.CFUs = append(sel.CFUs, best)
		sel.TotalArea += cost(best)
		remaining -= cost(best)
		sel.EstimatedSavings = refClaim(best, claimed, sel.EstimatedSavings)
		ensureVariants(best, opts.MaxVariants)
		rel.subsumptionFor(best)
		rel.wildcardsFor(best, opts.Lib)
		for _, id := range best.Subsumes {
			if m := opts.SubsumedDiscount; m < costMul[id] {
				costMul[id] = m
			}
		}
		for _, id := range best.Wildcards {
			if m := opts.WildcardDiscount; m < costMul[id] {
				costMul[id] = m
			}
		}
	}
	return sel
}

func refKnapsack(cfus []*CFU, opts SelectOptions) *Selection {
	const quantum = 0.05
	capacity := int(math.Floor(opts.Budget/quantum + 1e-9))
	if capacity <= 0 {
		return &Selection{}
	}
	n := len(cfus)
	w := make([]int, n)
	dp := make([]float64, capacity+1)
	keep := make([][]bool, n)
	for i, c := range cfus {
		w[i] = int(math.Ceil(c.Area/quantum - 1e-9))
		if w[i] <= 0 {
			w[i] = 1
		}
		keep[i] = make([]bool, capacity+1)
		for k := capacity; k >= w[i]; k-- {
			if cand := dp[k-w[i]] + c.Value; cand > dp[k] {
				dp[k] = cand
				keep[i][k] = true
			}
		}
	}
	var chosen []*CFU
	k := capacity
	for i := n - 1; i >= 0; i-- {
		if keep[i][k] {
			chosen = append(chosen, cfus[i])
			k -= w[i]
		}
	}
	sort.Slice(chosen, func(a, b int) bool {
		return chosen[a].Value/math.Max(chosen[a].Area, 0.05) > chosen[b].Value/math.Max(chosen[b].Area, 0.05)
	})
	sel := &Selection{CFUs: chosen}
	claimed := make(map[refOpKey]bool)
	for _, cf := range chosen {
		ensureVariants(cf, opts.MaxVariants)
		sel.TotalArea += cf.Area
		sel.EstimatedSavings = refClaim(cf, claimed, sel.EstimatedSavings)
	}
	return sel
}

// TestSelectMatchesMapOracle runs the dense kernel and the map-based
// reference side by side over every seed benchmark, a synthetic program
// and a multi-function candidate list, at every budget in every mode. Each
// side owns its candidate list, and both see the same sequence of calls,
// so the relationship links selection records evolve identically; the
// kernel side reuses one Selector, as the experiment harness does. The
// picks, their order and every float must match bit for bit.
func TestSelectMatchesMapOracle(t *testing.T) {
	lib := hwlib.Default()
	budgets := make([]float64, 15)
	for i := range budgets {
		budgets[i] = float64(i + 1)
	}
	if testing.Short() {
		budgets = []float64{1, 4, 9, 15}
	}
	type input struct {
		name  string
		prog  *ir.Program
		multi bool
	}
	var inputs []input
	for _, b := range workloads.All() {
		inputs = append(inputs, input{name: b.Name, prog: b.Program})
	}
	sp, err := synth.Generate(synth.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{name: "synth", prog: sp})
	bf, err := workloads.ByName("blowfish")
	if err != nil {
		t.Fatal(err)
	}
	// Profile counts are whole numbers, whose weighted sums are exact in
	// any order. Irrational weights make the sums round, so this input
	// also pins the order in which the kernel adds them.
	for i, b := range bf.Program.Blocks {
		b.Weight *= math.Sqrt(float64(i + 2))
	}
	inputs = append(inputs, input{name: "blowfish+multi", prog: bf.Program, multi: true})

	for _, in := range inputs {
		res := explore.Explore(in.prog, explore.DefaultConfig(lib))
		got := Combine(res, lib, CombineOptions{})
		want := Combine(res, lib, CombineOptions{})
		if in.multi {
			n := len(got)
			got = BuildMultiFunction(got, lib, 0)
			want = BuildMultiFunction(want, lib, 0)
			if len(got) == n {
				t.Fatalf("%s: no merged candidates", in.name)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d vs %d candidates", in.name, len(got), len(want))
		}
		for i, c := range got {
			if ref := refEstimateValue(want[i], nil); math.Float64bits(c.Value) != math.Float64bits(ref) {
				t.Fatalf("%s: %s value %v, oracle %v", in.name, c.Name(), c.Value, ref)
			}
		}
		selector := NewSelector(got)
		for _, mode := range []SelectMode{GreedyRatio, GreedyValue, Knapsack} {
			for _, budget := range budgets {
				opts := SelectOptions{Budget: budget, Mode: mode, Lib: lib}
				g, w := selector.Select(opts), refSelect(want, opts)
				if len(g.CFUs) != len(w.CFUs) {
					t.Fatalf("%s %v budget %g: %d CFUs, oracle %d", in.name, mode, budget, len(g.CFUs), len(w.CFUs))
				}
				for i := range g.CFUs {
					if g.CFUs[i].ID != w.CFUs[i].ID {
						t.Fatalf("%s %v budget %g: pick %d is cfu%d, oracle cfu%d",
							in.name, mode, budget, i, g.CFUs[i].ID, w.CFUs[i].ID)
					}
				}
				if math.Float64bits(g.TotalArea) != math.Float64bits(w.TotalArea) ||
					math.Float64bits(g.EstimatedSavings) != math.Float64bits(w.EstimatedSavings) {
					t.Fatalf("%s %v budget %g: area %v savings %v, oracle area %v savings %v",
						in.name, mode, budget, g.TotalArea, g.EstimatedSavings, w.TotalArea, w.EstimatedSavings)
				}
			}
		}
	}
}
