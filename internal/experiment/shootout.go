// Strategy shootout: every registered exploration strategy run under
// identical budgets over the 16 seed benchmarks plus a deliberately large
// unrolled DFG and a seeded synthetic stress DFG, producing
// quality-versus-wallclock rows. The shootout is
// the repo's testbed harness for comparing ISE discovery algorithms — the
// enumerative grower is the quality reference, and the iterative-improvement
// engine is the raw speed play on the blocks where enumeration blows up.
package experiment

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cfu"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// ShootoutUnrollApp and ShootoutUnrollFactor define the shootout's
// stress input: sha unrolled 16x, whose straight-line compression rounds
// become one enormous basic block — the regime §2 of the paper reaches via
// unrolling, where enumerative growth examines hundreds of thousands of
// subgraphs and iterative improvement visits a few hundred.
const (
	ShootoutUnrollApp    = "sha"
	ShootoutUnrollFactor = 16
)

// ShootoutInput is one program in the strategy shootout.
type ShootoutInput struct {
	// Name labels the row ("sha", "sha-x16").
	Name string
	// Program is the input application.
	Program *ir.Program
}

// ShootoutInputs returns the shootout's program list: the 16 seed
// benchmarks, the large unrolled DFG (ShootoutUnrollApp unrolled by
// ShootoutUnrollFactor), and the synthetic stress program
// (synth.StressSpec), which reaches DFG sizes no hand-lowered kernel can.
func ShootoutInputs() ([]*ShootoutInput, error) {
	var out []*ShootoutInput
	for _, b := range workloads.All() {
		out = append(out, &ShootoutInput{Name: b.Name, Program: b.Program})
	}
	base, err := workloads.ByName(ShootoutUnrollApp)
	if err != nil {
		return nil, err
	}
	up, err := ir.UnrollProgram(base.Program, ShootoutUnrollFactor)
	if err != nil {
		return nil, err
	}
	out = append(out, &ShootoutInput{
		Name:    fmt.Sprintf("%s-x%d", ShootoutUnrollApp, ShootoutUnrollFactor),
		Program: up,
	})
	sp, err := synth.Generate(synth.StressSpec())
	if err != nil {
		return nil, err
	}
	out = append(out, &ShootoutInput{Name: sp.Name, Program: sp})
	return out, nil
}

// ShootoutRow is one (input, strategy) measurement of the shootout.
type ShootoutRow struct {
	Input    string
	Strategy string
	// Wall is the wall-clock time of candidate discovery (exploration, the
	// stage the strategies differ in, plus combination of its candidates).
	Wall time.Duration
	// Examined counts subgraphs the strategy visited; Candidates is the
	// recorded pool size after exploration.
	Examined   int
	Candidates int
	// Speedup and Savings (baseline minus custom weighted cycles) come
	// from compiling the input on its own selected CFUs.
	Speedup float64
	Savings float64
	// Truncated reports that candidate discovery hit an anytime budget.
	Truncated bool
}

// StrategyShootout runs every registered strategy over the inputs with
// identical budgets and constraints — same MaxExamined valve, same anytime
// deadline/candidate cap, same area budget at selection — and returns one
// row per (input, strategy) in input-major, explore.Strategies order. The
// shootout deliberately bypasses the harness memo caches: wall-clock is the
// quantity under test, so every exploration runs fresh.
func (h *Harness) StrategyShootout(inputs []*ShootoutInput, budget float64) ([]*ShootoutRow, error) {
	var out []*ShootoutRow
	for _, in := range inputs {
		for _, strat := range explore.Strategies() {
			cfg := h.config()
			cfg.Strategy = strat
			cfg.Budget = budget
			cfg.Corpus = nil // every exploration runs fresh
			start := time.Now()
			cands, stats, truncated := core.Explore(in.Program, cfg)
			wall := time.Since(start)
			m := core.Select(in.Name, cfu.NewSelector(cands), truncated, cfg)
			_, rep, err := core.Compile(in.Program, m, cfg)
			if err != nil {
				return out, fmt.Errorf("experiment: shootout %s/%s: %w", in.Name, strat, err)
			}
			out = append(out, &ShootoutRow{
				Input:      in.Name,
				Strategy:   strat,
				Wall:       wall,
				Examined:   stats.Examined,
				Candidates: stats.Recorded,
				Speedup:    rep.Speedup,
				Savings:    rep.BaselineCycles - rep.CustomCycles,
				Truncated:  truncated,
			})
		}
	}
	return out, nil
}

// RenderShootout prints the quality-versus-wallclock table: per input, one
// line per strategy with exploration wall time, visit/candidate counts and
// achieved speedup, plus each strategy's quality and wall-clock relative to
// the enumerate reference on the same input. Wall-clock figures vary run to
// run, so this table is a measurement report, not golden-comparable output.
func RenderShootout(w io.Writer, budget float64, rows []*ShootoutRow) {
	fmt.Fprintf(w, "Strategy shootout at the %.0f-adder point: quality vs wall-clock\n", budget)
	fmt.Fprintf(w, "  %-14s %-10s %10s %10s %8s %8s %9s %8s\n",
		"input", "strategy", "wall", "examined", "cands", "speedup", "quality", "time")
	ref := map[string]*ShootoutRow{}
	for _, r := range rows {
		if r.Strategy == explore.StrategyEnumerate {
			ref[r.Input] = r
		}
	}
	for _, r := range rows {
		quality, rel := "-", "-"
		if base := ref[r.Input]; base != nil && r.Strategy != explore.StrategyEnumerate {
			if base.Savings > 0 {
				quality = fmt.Sprintf("%.0f%%", 100*r.Savings/base.Savings)
			}
			if base.Wall > 0 {
				rel = fmt.Sprintf("%.0f%%", 100*float64(r.Wall)/float64(base.Wall))
			}
		}
		label := r.Input
		if r.Truncated {
			label += "*"
		}
		fmt.Fprintf(w, "  %-14s %-10s %10s %10d %8d %8.2f %9s %8s\n",
			label, r.Strategy, r.Wall.Round(time.Millisecond), r.Examined,
			r.Candidates, r.Speedup, quality, rel)
	}
}
