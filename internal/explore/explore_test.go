package explore

import (
	"testing"

	"repro/internal/hwlib"
	"repro/internal/ir"
)

// feistelBlock builds a blowfish-like round: byte extracts from x feeding
// S-box loads, then the add-xor-add combine and the P-xor.
func feistelBlock(weight float64) *ir.Block {
	b := ir.NewBlock("round", weight)
	x := b.Arg(ir.R(1))
	sbase := b.Arg(ir.R(2))
	p := b.Arg(ir.R(3))
	a := b.Shr(x, b.Imm(24))
	bb := b.And(b.Shr(x, b.Imm(16)), b.Imm(0xFF))
	c := b.And(b.Shr(x, b.Imm(8)), b.Imm(0xFF))
	dd := b.And(x, b.Imm(0xFF))
	s0 := b.Load(b.Add(sbase, b.Shl(a, b.Imm(2))))
	s1 := b.Load(b.Add(sbase, b.Shl(bb, b.Imm(2))))
	s2 := b.Load(b.Add(sbase, b.Shl(c, b.Imm(2))))
	s3 := b.Load(b.Add(sbase, b.Shl(dd, b.Imm(2))))
	f := b.Add(b.Xor(b.Add(s0, s1), s2), s3)
	out := b.Xor(f, p)
	b.Def(ir.R(4), out)
	return b
}

// denseBlock builds a large connected ALU-only region like an unrolled
// encryption round: the kind of block where naive exploration explodes.
func denseBlock(n int) *ir.Block {
	b := ir.NewBlock("dense", 1000)
	vals := []ir.Operand{b.Arg(ir.R(1)), b.Arg(ir.R(2)), b.Arg(ir.R(3))}
	codes := []ir.Opcode{ir.Add, ir.Xor, ir.And, ir.Or, ir.Shl, ir.Sub, ir.Rotl, ir.Mul}
	s := uint64(12345)
	next := func(m int) int {
		s = s*2862933555777941757 + 3037000493
		return int((s >> 33) % uint64(m))
	}
	for i := 0; i < n; i++ {
		c := codes[next(len(codes))]
		// Wide structure: pick operands anywhere in the window so parallel
		// chains with real slack form, as in unrolled kernels.
		x := vals[next(len(vals))]
		y := vals[next(len(vals))]
		if c == ir.Shl || c == ir.Rotl {
			y = b.Imm(uint32(next(31) + 1))
		}
		vals = append(vals, b.Emit(c, x, y).Out())
	}
	// Fold the tails together so everything is reachable from the output.
	acc := vals[3]
	for i := 4; i < len(vals); i++ {
		acc = b.Xor(acc, vals[i])
	}
	b.Def(ir.R(4), acc)
	return b
}

func defaultCfg() Config { return DefaultConfig(hwlib.Default()) }

// openCfg is the guide function without any fanout bound.
func openCfg() Config {
	cfg := DefaultConfig(hwlib.Default())
	cfg.Fanout = nil
	return cfg
}

func TestExploreFindsCandidates(t *testing.T) {
	b := feistelBlock(1000)
	res := ExploreBlock(b, defaultCfg())
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates discovered")
	}
	lib := hwlib.Default()
	for _, c := range res.Candidates {
		for _, i := range c.Ops {
			if !lib.Allowed(b.Ops[i].Code) {
				t.Fatalf("candidate contains disallowed op %s", b.Ops[i].Code)
			}
		}
		if c.Inputs > 5 || c.Outputs > 3 {
			t.Fatalf("candidate violates IO constraints: %d/%d", c.Inputs, c.Outputs)
		}
		set := ir.NewOpSet(c.Ops...)
		if !set.Connected(c.DFG) {
			t.Fatal("disconnected candidate")
		}
		if !set.Convex(c.DFG) {
			t.Fatal("non-convex candidate recorded")
		}
	}
}

func TestGuidedPrunesVersusNaive(t *testing.T) {
	b := denseBlock(40)
	guided := ExploreBlock(b, defaultCfg())
	ncfg := defaultCfg()
	ncfg.Naive = true
	naive := ExploreBlock(b, ncfg)
	if guided.Stats.Examined*2 > naive.Stats.Examined {
		t.Fatalf("guided examined %d, naive %d: expected at least 2x pruning",
			guided.Stats.Examined, naive.Stats.Examined)
	}
	if guided.Stats.PrunedDirections == 0 {
		t.Fatal("guide pruned nothing")
	}
}

// bestCandidateKeys returns the set keys of the largest-savings candidates.
func bestCandidateKeys(res *Result, lib *hwlib.Library, n int) map[string]bool {
	type kv struct {
		key   string
		value float64
	}
	var list []kv
	for _, c := range res.Candidates {
		set := ir.NewOpSet(c.Ops...)
		saved := float64(len(set)) - float64(set.Cycles(c.DFG, lib))
		list = append(list, kv{set.Key(), saved})
	}
	// selection sort of top n (tiny lists)
	out := make(map[string]bool)
	for k := 0; k < n && k < len(list); k++ {
		bi := -1
		for i := range list {
			if !out[list[i].key] && (bi < 0 || list[i].value > list[bi].value) {
				bi = i
			}
		}
		out[list[bi].key] = true
	}
	return out
}

func TestGuidedMatchesNaiveOnSmallBlocks(t *testing.T) {
	// Paper: on small benchmarks the heuristic selects identical candidate
	// sets to full exponential search. Check the top candidates coincide.
	b := ir.NewBlock("small", 100)
	x, y := b.Arg(ir.R(1)), b.Arg(ir.R(2))
	v := b.Add(b.Xor(b.And(x, b.Imm(0xFF)), y), x)
	w := b.Shl(v, b.Imm(2))
	b.Def(ir.R(3), w)

	lib := hwlib.Default()
	guided := ExploreBlock(b, defaultCfg())
	ncfg := defaultCfg()
	ncfg.Naive = true
	naive := ExploreBlock(b, ncfg)
	gk := bestCandidateKeys(guided, lib, 3)
	nk := bestCandidateKeys(naive, lib, 3)
	for k := range nk {
		if !gk[k] {
			t.Fatalf("guided missed a top naive candidate (guided %d, naive %d candidates)",
				len(guided.Candidates), len(naive.Candidates))
		}
	}
}

func TestFanoutPolicies(t *testing.T) {
	if UniformFanout(3)(10, 1e6) != 3 {
		t.Fatal("uniform fanout wrong")
	}
	if DepthDecayFanout(4)(1, 0) != 4 || DepthDecayFanout(4)(10, 0) != 1 {
		t.Fatal("depth decay fanout wrong")
	}
	ws := WeightScaledFanout(4, 100)
	if ws(1, 1000) != 4 || ws(1, 10) != 2 {
		t.Fatal("weight scaled fanout wrong")
	}

	b := denseBlock(40)
	open := ExploreBlock(b, openCfg())
	tight := defaultCfg()
	tight.Fanout = UniformFanout(1)
	res := ExploreBlock(b, tight)
	if res.Stats.Examined >= open.Stats.Examined {
		t.Fatalf("fanout 1 examined %d >= unlimited %d", res.Stats.Examined, open.Stats.Examined)
	}
}

func TestAreaAndSizeConstraints(t *testing.T) {
	b := feistelBlock(1000)
	cfg := defaultCfg()
	cfg.MaxArea = 1.0
	for _, c := range ExploreBlock(b, cfg).Candidates {
		if c.Area > 1.0 {
			t.Fatalf("candidate area %v exceeds cap", c.Area)
		}
	}
	cfg = defaultCfg()
	cfg.MaxOps = 2
	for _, c := range ExploreBlock(b, cfg).Candidates {
		if len(c.Ops) > 2 {
			t.Fatalf("candidate size %d exceeds cap", len(c.Ops))
		}
	}
}

func TestMaxExaminedSafetyValve(t *testing.T) {
	b := feistelBlock(1000)
	cfg := defaultCfg()
	cfg.Naive = true
	cfg.MaxExamined = 10
	res := ExploreBlock(b, cfg)
	if res.Stats.Examined > 10 {
		t.Fatalf("examined %d > cap 10", res.Stats.Examined)
	}
}

func TestCandidatePruneAblation(t *testing.T) {
	b := denseBlock(40)
	cfg := openCfg()
	cfg.CandidatePrune = 0.9 // aggressive
	res := ExploreBlock(b, cfg)
	ncfg := defaultCfg()
	ncfg.Naive = true
	naive := ExploreBlock(b, ncfg)
	if res.Stats.Examined >= naive.Stats.Examined {
		t.Fatalf("candidate pruning examined %d >= naive %d", res.Stats.Examined, naive.Stats.Examined)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("candidate pruning dropped everything")
	}
}

func TestExploreProgram(t *testing.T) {
	p := ir.NewProgram("two")
	p.Blocks = append(p.Blocks, feistelBlock(100), feistelBlock(10))
	p.Blocks[1].Name = "round2"
	res := Explore(p, defaultCfg())
	seen := map[string]bool{}
	for _, c := range res.Candidates {
		seen[c.Block.Name] = true
	}
	if !seen["round"] || !seen["round2"] {
		t.Fatal("candidates must come from every block")
	}
}

func TestEvenWeightsDefault(t *testing.T) {
	var w GuideWeights
	if w.orEven() != EvenWeights() {
		t.Fatal("zero weights must default to even split")
	}
	if EvenWeights().total() != 40 {
		t.Fatal("even weights must total 40")
	}
}

func TestStatsBySize(t *testing.T) {
	b := feistelBlock(10)
	res := ExploreBlock(b, defaultCfg())
	if res.Stats.BySize[1] == 0 {
		t.Fatal("seeds must be counted at size 1")
	}
	if res.Stats.Recorded != len(res.Candidates) {
		t.Fatal("recorded count mismatch")
	}
}
