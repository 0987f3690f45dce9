package experiment

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/vliwsim"
	"repro/internal/workloads"
)

// TestReportedCyclesAreExecuted checks the cycle model's promise on the
// memoized path: the weighted cycles a compile reports, for the original
// and for the customized program, are the cycles vliwsim executes. Every
// point compiles through the package's shared harness, so all of them
// share its schedule memo. The tier-1 run samples four benchmarks at
// budgets 4 and 15; with REPRO_CYCLE_GRID=all it covers all 240 Figure-7
// points.
func TestReportedCyclesAreExecuted(t *testing.T) {
	names := []string{"blowfish", "gsmdecode", "sha", "crc"}
	budgets := []float64{4, 15}
	if os.Getenv("REPRO_CYCLE_GRID") == "all" {
		names, budgets = workloads.Names(), Budgets1to15()
	}
	h := sharedHarness()
	cfg := h.config()
	mach := cfg.Machine
	for _, name := range names {
		b, err := h.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := vliwsim.ProgramCycles(b.Program, mach, mach.IntRegs, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, budget := range budgets {
			m, err := h.MDESAt(name, budget)
			if err != nil {
				t.Fatal(err)
			}
			out, rep, err := core.Compile(b.Program, m, cfg)
			if err != nil {
				t.Fatalf("%s at budget %g: %v", name, budget, err)
			}
			custom, _, err := vliwsim.ProgramCycles(out, mach, mach.IntRegs, 3)
			if err != nil {
				t.Fatalf("%s at budget %g: %v", name, budget, err)
			}
			if base != rep.BaselineCycles || custom != rep.CustomCycles {
				t.Errorf("%s at budget %g: executed baseline/custom cycles %v/%v, report %v/%v",
					name, budget, base, custom, rep.BaselineCycles, rep.CustomCycles)
			}
		}
	}
}
