package compile

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/cfu"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/mdes"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// sameDFG reports the first field in which got, a recycled DFG, differs
// from want, a fresh ir.Analyze of the same block ("" when they agree).
func sameDFG(got, want *ir.DFG) string {
	n := len(want.Block.Ops)
	switch {
	case got.Block != want.Block:
		return "Block"
	case !maps.Equal(got.Pos, want.Pos):
		return "Pos"
	case got.CritLen != want.CritLen:
		return fmt.Sprintf("CritLen %d, want %d", got.CritLen, want.CritLen)
	case len(got.Preds) != n || len(got.Succs) != n || len(got.DataPreds) != n || len(got.DataSuccs) != n:
		return "edge list lengths"
	case !slices.Equal(got.Height, want.Height):
		return "Height"
	case !slices.Equal(got.Depth, want.Depth):
		return "Depth"
	case !slices.Equal(got.Slack, want.Slack):
		return "Slack"
	}
	for i := 0; i < n; i++ {
		switch {
		case !slices.Equal(got.Preds[i], want.Preds[i]):
			return fmt.Sprintf("Preds[%d]", i)
		case !slices.Equal(got.Succs[i], want.Succs[i]):
			return fmt.Sprintf("Succs[%d]", i)
		case !slices.Equal(got.DataPreds[i], want.DataPreds[i]):
			return fmt.Sprintf("DataPreds[%d]", i)
		case !slices.Equal(got.DataSuccs[i], want.DataSuccs[i]):
			return fmt.Sprintf("DataSuccs[%d]", i)
		}
	}
	for c := ir.Opcode(0); c < ir.MaxOpcode; c++ {
		if !slices.Equal(got.OpsByCode(c), want.OpsByCode(c)) {
			return fmt.Sprintf("OpsByCode(%s)", c)
		}
	}
	return ""
}

// reanalyzePrograms is every benchmark plus synthetic programs of seeds
// 1-3.
func reanalyzePrograms(t *testing.T) []*ir.Program {
	var ps []*ir.Program
	for _, b := range workloads.All() {
		ps = append(ps, b.Program)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		spec := synth.DefaultSpec()
		spec.Seed = seed
		p, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

// TestReanalyzeMatchesAnalyze replays the compiler's match-and-replace loop
// over every benchmark and three synthetic programs against their own
// budget-15 MDES, and checks after every replacement that the workspace's
// recycled DFG equals a fresh ir.Analyze field by field. It then walks one
// recycled DFG across every block of those programs, so it is rebuilt both
// into larger blocks and into smaller ones.
func TestReanalyzeMatchesAnalyze(t *testing.T) {
	lib := hwlib.Default()
	progs := reanalyzePrograms(t)
	replacements := 0
	for _, p := range progs {
		cands := cfu.Combine(explore.Explore(p, explore.DefaultConfig(lib)), lib, cfu.CombineOptions{})
		m := mdes.FromSelection(p.Name, 15, cfu.Select(cands, cfu.SelectOptions{Budget: 15, Lib: lib}))
		var shapes []*graph.Shape
		var specs []*mdes.CFUSpec
		for i := range m.CFUs {
			shapes = append(shapes, m.CFUs[i].Shape)
			specs = append(specs, &m.CFUs[i])
		}
		for i := range m.CFUs {
			for _, v := range m.CFUs[i].Variants {
				shapes = append(shapes, v)
				specs = append(specs, &m.CFUs[i])
			}
		}
		for _, b := range p.Clone().Blocks {
			w := newBlockWork(b)
			claimed := make(map[int]bool)
			notClaimed := func(i int) bool { return !claimed[b.Ops[i].ID] }
			for k, s := range shapes {
				for {
					ms := graph.FindMatches(w.d, s, graph.MatchOptions{OpAllowed: notClaimed, MaxMatches: 1})
					if len(ms) == 0 {
						break
					}
					for i := range ms[0].Set {
						claimed[b.Ops[i].ID] = true
					}
					ci := buildCustomInst(w.d, specs[k], s, ms[0])
					if err := w.replaceMatch(b, s, ms[0], ci); err != nil {
						t.Fatalf("%s/%s: %v", p.Name, b.Name, err)
					}
					replacements++
					if diff := sameDFG(w.d, ir.Analyze(b)); diff != "" {
						t.Fatalf("%s/%s after replacing %s: recycled DFG differs in %s", p.Name, b.Name, ci.Name, diff)
					}
				}
			}
		}
	}
	if replacements == 0 {
		t.Fatal("no replacements exercised")
	}
	t.Logf("%d replacements checked", replacements)

	d := new(ir.DFG)
	grew, shrank, prev := 0, 0, 0
	for _, p := range progs {
		for _, b := range p.Blocks {
			d.Reanalyze(b)
			if diff := sameDFG(d, ir.Analyze(b)); diff != "" {
				t.Fatalf("%s/%s: recycled DFG (previous block %d ops) differs in %s", p.Name, b.Name, prev, diff)
			}
			if n := len(b.Ops); n > prev {
				grew++
			} else if n < prev {
				shrank++
			}
			prev = len(b.Ops)
		}
	}
	if grew == 0 || shrank == 0 {
		t.Fatalf("block walk grew %d and shrank %d times; want both", grew, shrank)
	}
}
