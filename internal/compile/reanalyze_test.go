package compile

import (
	"fmt"
	"slices"
	"sync"
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
	// The position index finds every op at its index, and no op of
	// another block, even one with the same ID.
	stranger := new(ir.Op)
	for i, op := range want.Block.Ops {
		if j, ok := got.Pos.Lookup(op); !ok || j != i {
			return fmt.Sprintf("Pos.Lookup(op %d) = %d, %v", i, j, ok)
		}
		stranger.ID = op.ID
		if j, ok := got.Pos.Lookup(stranger); ok {
			return fmt.Sprintf("Pos.Lookup finds a foreign op with ID %d at %d", op.ID, j)
		}
	}
	for c := ir.Opcode(0); c < ir.MaxOpcode; c++ {
		if !slices.Equal(got.OpsByCode(c), want.OpsByCode(c)) {
			return fmt.Sprintf("OpsByCode(%s)", c)
		}
	}
	return ""
}

// testProgram is a program the replacement tests compile, with its
// combined candidates.
type testProgram struct {
	*ir.Program
	cands []*cfu.CFU
}

// testPrograms is every benchmark, synthetic programs of seeds 1-3 and the
// synthetic stress program, explored and combined once for all tests. The
// stress program's blocks are explored for at most 20000 examined
// subgraphs each.
var testPrograms = sync.OnceValues(func() ([]testProgram, error) {
	ps := []*ir.Program{}
	for _, b := range workloads.All() {
		ps = append(ps, b.Program)
	}
	specs := []synth.Spec{synth.DefaultSpec(), synth.DefaultSpec(), synth.DefaultSpec(), synth.StressSpec()}
	for i := range 3 {
		specs[i].Seed = uint64(i + 1)
	}
	for _, spec := range specs {
		p, err := synth.Generate(spec)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	lib := hwlib.Default()
	var out []testProgram
	for _, p := range ps {
		cfg := explore.DefaultConfig(lib)
		if p.Name == synth.StressSpec().Name {
			cfg.MaxExamined = 20000
		}
		out = append(out, testProgram{p, cfu.Combine(explore.Explore(p, cfg), lib, cfu.CombineOptions{})})
	}
	return out, nil
})

// reanalyzePrograms is every benchmark plus synthetic programs of seeds
// 1-3, with their combined candidates.
func reanalyzePrograms(t *testing.T) []testProgram {
	ps, err := testPrograms()
	if err != nil {
		t.Fatal(err)
	}
	return ps[:len(ps)-1]
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
		m := mdes.FromSelection(p.Name, 15, cfu.Select(p.cands, cfu.SelectOptions{Budget: 15, Lib: lib}))
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
	var prevBlock *ir.Block
	for _, p := range progs {
		for _, b := range p.Blocks {
			d.Reanalyze(b)
			if diff := sameDFG(d, ir.Analyze(b)); diff != "" {
				t.Fatalf("%s/%s: recycled DFG (previous block %d ops) differs in %s", p.Name, b.Name, prev, diff)
			}
			if prevBlock != nil {
				for _, op := range prevBlock.Ops {
					if i, ok := d.Pos.Lookup(op); ok {
						t.Fatalf("%s/%s: Pos.Lookup finds op %%%d of the previous block at %d", p.Name, b.Name, op.ID, i)
					}
				}
			}
			prevBlock = b
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
