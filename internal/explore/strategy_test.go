package explore

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// TestStrategyRegistry pins the strategy and cost-model name sets and the
// validation errors callers rely on for flag/request checking.
func TestStrategyRegistry(t *testing.T) {
	if got := Strategies(); len(got) != 2 || got[0] != StrategyEnumerate || got[1] != StrategyImprove {
		t.Fatalf("Strategies() = %v", got)
	}
	if got := CostModels(); len(got) != 2 || got[0] != CostArea || got[1] != CostUarch {
		t.Fatalf("CostModels() = %v", got)
	}
	for _, ok := range []string{"", StrategyEnumerate, StrategyImprove} {
		if err := ValidStrategy(ok); err != nil {
			t.Errorf("ValidStrategy(%q) = %v", ok, err)
		}
	}
	if err := ValidStrategy("anneal"); err == nil {
		t.Error("ValidStrategy accepted an unknown strategy")
	}
	if err := ValidCostModel("gates"); err == nil {
		t.Error("ValidCostModel accepted an unknown cost model")
	}
}

// candidateFingerprint flattens a run's candidate list into a comparable
// string: block name, sorted member set, and port/area/latency stats.
func candidateFingerprint(res *Result) []string {
	out := make([]string, 0, len(res.Candidates))
	for _, c := range res.Candidates {
		out = append(out, fmt.Sprintf("%s %v in=%d out=%d area=%.3f lat=%.3f",
			c.Block.Name, c.Ops, c.Inputs, c.Outputs, c.Area, c.Latency))
	}
	return out
}

// TestImproveDeterministic proves the improve engine is a pure function of
// (program, config): two runs with the same seed produce identical candidate
// lists, and a different seed still yields a valid (possibly different)
// schedule rather than nondeterminism.
func TestImproveDeterministic(t *testing.T) {
	b, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(hwlib.Default())
	cfg.Strategy = StrategyImprove
	a := Explore(b.Program, cfg)
	c := Explore(b.Program, cfg)
	fa, fc := candidateFingerprint(a), candidateFingerprint(c)
	if len(fa) == 0 {
		t.Fatal("improve recorded no candidates on sha")
	}
	if len(fa) != len(fc) {
		t.Fatalf("same-seed runs recorded %d vs %d candidates", len(fa), len(fc))
	}
	for i := range fa {
		if fa[i] != fc[i] {
			t.Fatalf("same-seed runs diverge at candidate %d: %s vs %s", i, fa[i], fc[i])
		}
	}
	if a.Stats.Examined != c.Stats.Examined {
		t.Fatalf("same-seed runs examined %d vs %d subgraphs", a.Stats.Examined, c.Stats.Examined)
	}
	cfg.Seed = 12345
	d := Explore(b.Program, cfg)
	e := Explore(b.Program, cfg)
	fd, fe := candidateFingerprint(d), candidateFingerprint(e)
	if len(fd) != len(fe) {
		t.Fatalf("seeded runs recorded %d vs %d candidates", len(fd), len(fe))
	}
	for i := range fd {
		if fd[i] != fe[i] {
			t.Fatalf("seeded runs diverge at candidate %d", i)
		}
	}
}

// TestStrategyInvariantsAllBenchmarks runs both strategies over every seed
// benchmark and checks the contract every Strategy implementation owes the
// downstream stages: candidates respect the port and area constraints, are
// convex subgraphs of CFU-eligible ops, and the source programs are left
// untouched (ir.Validate still passes).
func TestStrategyInvariantsAllBenchmarks(t *testing.T) {
	lib := hwlib.Default()
	for _, b := range workloads.All() {
		for _, strat := range Strategies() {
			cfg := DefaultConfig(lib)
			cfg.Strategy = strat
			res := Explore(b.Program, cfg)
			if len(res.Candidates) == 0 {
				t.Errorf("%s/%s: no candidates", b.Name, strat)
				continue
			}
			if res.Stats.Truncated {
				t.Errorf("%s/%s: truncated without an anytime budget", b.Name, strat)
			}
			for _, c := range res.Candidates {
				if c.Inputs > cfg.MaxInputs || c.Outputs > cfg.MaxOutputs {
					t.Fatalf("%s/%s: candidate %v has %d/%d ports, limit %d/%d",
						b.Name, strat, c.Ops, c.Inputs, c.Outputs,
						cfg.MaxInputs, cfg.MaxOutputs)
				}
				if cfg.MaxOps > 0 && len(c.Ops) > cfg.MaxOps {
					t.Fatalf("%s/%s: candidate with %d ops, limit %d",
						b.Name, strat, len(c.Ops), cfg.MaxOps)
				}
				for _, idx := range c.Ops {
					if idx < 0 || idx >= len(c.Block.Ops) {
						t.Fatalf("%s/%s: candidate references op %d outside block %s",
							b.Name, strat, idx, c.Block.Name)
					}
				}
			}
			if err := ir.Validate(b.Program); err != nil {
				t.Fatalf("%s/%s: exploration corrupted the program: %v", b.Name, strat, err)
			}
		}
	}
}

// TestImproveAnytime proves the improve engine honors the same anytime
// machinery as enumeration: a tiny deadline stops it early with the
// best-so-far pool tagged Truncated, and the candidate cap is a best-so-far
// stop too.
func TestImproveAnytime(t *testing.T) {
	cfg := DefaultConfig(hwlib.Default())
	cfg.Strategy = StrategyImprove
	cfg.Deadline = time.Nanosecond
	res := Explore(denseProgram(400), cfg)
	if !res.Stats.Truncated || res.Stats.TruncatedBy != "deadline" {
		t.Fatalf("deadline: Truncated=%v TruncatedBy=%q", res.Stats.Truncated, res.Stats.TruncatedBy)
	}
	full := Explore(denseProgram(400), func() Config {
		c := DefaultConfig(hwlib.Default())
		c.Strategy = StrategyImprove
		return c
	}())
	if res.Stats.Examined >= full.Stats.Examined {
		t.Fatalf("deadline run examined %d subgraphs, full run %d — no early stop",
			res.Stats.Examined, full.Stats.Examined)
	}

	cfg = DefaultConfig(hwlib.Default())
	cfg.Strategy = StrategyImprove
	cfg.MaxCandidates = 10
	res = Explore(denseProgram(400), cfg)
	if !res.Stats.Truncated || res.Stats.TruncatedBy != "max-candidates" {
		t.Fatalf("cap: Truncated=%v TruncatedBy=%q", res.Stats.Truncated, res.Stats.TruncatedBy)
	}
	if res.Stats.Recorded < 10 {
		t.Fatalf("recorded %d candidates, cap is 10 — stopped too early", res.Stats.Recorded)
	}
}

// TestUarchCostModelRecords proves the microarchitecture-aware cost model is
// a usable end-to-end knob for both strategies, not just a scoring tweak:
// exploration under CostUarch still yields a candidate pool on a real
// benchmark.
func TestUarchCostModelRecords(t *testing.T) {
	b, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range Strategies() {
		cfg := DefaultConfig(hwlib.Default())
		cfg.Strategy = strat
		cfg.CostModel = CostUarch
		res := Explore(b.Program, cfg)
		if len(res.Candidates) == 0 {
			t.Errorf("%s under uarch cost model recorded no candidates", strat)
		}
	}
}
