package compile

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mdes"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Options configures compilation against an extended machine.
type Options struct {
	// Machine is the baseline VLIW (nil = machine.Default4Wide()).
	Machine *machine.Desc
	// Lib supplies opcode classes for wildcard matching (nil = default).
	Lib *hwlib.Library
	// UseVariants enables matching of subsumed-subgraph patterns onto
	// larger CFUs (the paper's compiler generalization).
	UseVariants bool
	// UseOpcodeClasses lets any pattern node match any opcode of the same
	// hardware class (the paper's wildcard hardware generalization).
	UseOpcodeClasses bool
	// Optimize runs common-subexpression elimination and dead-code
	// elimination before matching. Both the baseline and the customized
	// cycle counts then use the optimized program, so the reported speedup
	// still isolates the CFU effect.
	Optimize bool
	// Telemetry, when non-nil, receives the compile/match/schedule spans
	// and the match-and-replace counters.
	Telemetry *telemetry.Registry
}

// BlockReport is per-block accounting.
type BlockReport struct {
	Name          string
	Weight        float64
	BaseCycles    int
	CustomCycles  int
	Replacements  int
	SpilledValues int
}

// Report summarizes one compilation.
type Report struct {
	Source     string
	MDESSource string
	// Weighted cycle totals over all blocks.
	BaselineCycles float64
	CustomCycles   float64
	Speedup        float64
	// Replacement counts, split by match kind.
	ExactReplacements   int
	VariantReplacements int
	// PerCFU counts replacements by CFU name.
	PerCFU map[string]int
	Blocks []BlockReport
	// Truncated mirrors the MDES's truncation tag: the hardware this
	// program was compiled against came from an exploration that ran out of
	// its anytime budget, so the speedup is a valid lower bound rather than
	// the full-search figure.
	Truncated bool
}

// Compile lowers p against the CFUs in m: it discovers every pattern match,
// assigns contested operations to the highest-priority CFU, replaces
// matches with custom instructions, and schedules both the original and the
// customized program to produce the speedup report. p is not modified.
func Compile(p *ir.Program, m *mdes.MDES, opts Options) (*ir.Program, *Report, error) {
	mach := opts.Machine
	if mach == nil {
		mach = machine.Default4Wide()
	}
	lib := opts.Lib
	if lib == nil {
		lib = hwlib.Default()
	}
	defer opts.Telemetry.StartSpan("compile")()

	if opts.Optimize {
		p = p.Clone()
		ir.Optimize(p)
	}
	out := p.Clone()
	rep := &Report{Source: p.Name, MDESSource: m.Source, PerCFU: make(map[string]int), Truncated: m.Truncated}

	var opMatch func(pat, op ir.Opcode) bool
	if opts.UseOpcodeClasses {
		opMatch = func(pat, op ir.Opcode) bool {
			if pat == op {
				return true
			}
			c := lib.ClassOf(pat)
			return c != hwlib.ClassNone && c == lib.ClassOf(op)
		}
	}

	classOf := func(c ir.Opcode) uint8 { return uint8(lib.ClassOf(c)) }
	endMatch := opts.Telemetry.StartSpan("compile.match")
	var mstats graph.MatchStats
	for _, b := range out.Blocks {
		exact, variant, err := customizeBlock(b, m, opMatch, classOf, opts.UseVariants, rep.PerCFU, &mstats)
		if err != nil {
			return nil, nil, err
		}
		rep.ExactReplacements += exact
		rep.VariantReplacements += variant
	}
	endMatch()
	opts.Telemetry.Add("compile.replacements.exact", int64(rep.ExactReplacements))
	opts.Telemetry.Add("compile.replacements.variant", int64(rep.VariantReplacements))
	opts.Telemetry.Add("compile.blocks", int64(len(out.Blocks)))
	opts.Telemetry.Add("match.seeds.considered", mstats.SeedsConsidered)
	opts.Telemetry.Add("match.seeds.filtered", mstats.SeedsFiltered)

	// Cycle accounting: schedule baseline and customized programs.
	endSched := opts.Telemetry.StartSpan("compile.schedule")
	defer endSched()
	for bi, b := range p.Blocks {
		baseSched, _, err := sched.ScheduleWithRegAlloc(b, mach, mach.IntRegs)
		if err != nil {
			return nil, nil, fmt.Errorf("compile: baseline %s: %w", b.Name, err)
		}
		nb := out.Blocks[bi]
		customSched, stats, err := sched.ScheduleWithRegAlloc(nb, mach, mach.IntRegs)
		if err != nil {
			return nil, nil, fmt.Errorf("compile: customized %s: %w", nb.Name, err)
		}
		br := BlockReport{
			Name: b.Name, Weight: b.Weight,
			BaseCycles: baseSched.Length, CustomCycles: customSched.Length,
			SpilledValues: stats.SpilledValues,
		}
		for _, op := range nb.Ops {
			if op.Code == ir.Custom {
				br.Replacements++
			}
		}
		rep.Blocks = append(rep.Blocks, br)
		rep.BaselineCycles += b.Weight * float64(baseSched.Length)
		rep.CustomCycles += b.Weight * float64(customSched.Length)
	}
	if rep.CustomCycles > 0 {
		rep.Speedup = rep.BaselineCycles / rep.CustomCycles
	} else {
		rep.Speedup = 1
	}
	return out, rep, nil
}

// customizeBlock runs match discovery and replacement for one block.
// Matching proceeds in two passes — exact patterns of every CFU in priority
// order, then subsumed variants — so exact uses of the hardware win
// contested operations, mirroring the hardware compiler's desirability
// ordering.
func customizeBlock(b *ir.Block, m *mdes.MDES, opMatch func(ir.Opcode, ir.Opcode) bool, classOf func(ir.Opcode) uint8, useVariants bool, perCFU map[string]int, mstats *graph.MatchStats) (exact, variant int, err error) {
	claimed := make(map[int]bool) // op IDs absorbed into custom instructions

	type patref struct {
		spec    *mdes.CFUSpec
		shape   *graph.Shape
		isExact bool
	}
	var passes [2][]patref
	for i := range m.CFUs {
		spec := &m.CFUs[i]
		passes[0] = append(passes[0], patref{spec, spec.Shape, true})
		if useVariants {
			vs := append([]*graph.Shape(nil), spec.Variants...)
			sort.Slice(vs, func(a, b int) bool { return len(vs[a].Nodes) > len(vs[b].Nodes) })
			for _, v := range vs {
				// A variant still pays the full unit's pipelined latency,
				// so replacing fewer ops than that latency cannot help.
				if len(v.Nodes) <= spec.Latency {
					continue
				}
				passes[1] = append(passes[1], patref{spec, v, false})
			}
		}
	}

	// The DFG depends only on the block, which changes only inside
	// replaceMatch — so analyze once up front and re-analyze only after a
	// successful replacement, instead of on every pattern probe. This is
	// the dominant cost of a compile: most probes find nothing. The
	// re-analysis rebuilds into the same DFG's buffers.
	w := newBlockWork(b)
	d := w.d
	notClaimed := func(i int) bool { return !claimed[b.Ops[i].ID] }
	for _, pass := range passes {
		for _, pr := range pass {
			// Replace one match at a time, re-deriving the DFG after each
			// rewrite: two disjoint convex matches replaced simultaneously
			// can still form a dependence cycle between the collapsed
			// nodes, so sequential replacement is required for safety.
			for {
				ms := graph.FindMatches(d, pr.shape, graph.MatchOptions{
					OpMatch:    opMatch,
					ClassOf:    classOf,
					OpAllowed:  notClaimed,
					MaxMatches: 1,
					Stats:      mstats,
				})
				if len(ms) == 0 {
					break
				}
				match := ms[0]
				ci := buildCustomInst(d, pr.spec, pr.shape, match)
				for i := range match.Set {
					claimed[b.Ops[i].ID] = true
				}
				if err := w.replaceMatch(b, pr.shape, match, ci); err != nil {
					return exact, variant, err
				}
				perCFU[pr.spec.Name]++
				if pr.isExact {
					exact++
				} else {
					variant++
				}
			}
		}
	}
	return exact, variant, nil
}

// buildCustomInst creates the runtime semantics of one replacement: the
// matched pattern, with the program's actual opcodes substituted (relevant
// under class matching) and the occurrence's immediates bound.
func buildCustomInst(d *ir.DFG, spec *mdes.CFUSpec, pattern *graph.Shape, m graph.Match) *ir.CustomInst {
	evalShape := graph.SubstitutedShape(d, pattern, m)
	imms := append([]uint32(nil), m.Imms...)
	lat := spec.Latency
	if lat < 1 {
		lat = 1
	}
	ci := &ir.CustomInst{
		Name:    spec.Name,
		Latency: lat,
		NumOut:  len(pattern.Outputs),
	}
	if evalShape.UsesMemory() {
		ci.UsesMemory = true
		ci.EvalMem = func(args []uint32, mem ir.MemoryAccessor) []uint32 {
			return evalShape.EvalMem(args, imms, mem)
		}
	} else {
		ci.Eval = func(args []uint32) []uint32 {
			return evalShape.Eval(args, imms)
		}
	}
	return ci
}
