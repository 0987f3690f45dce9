package core

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/internal/cfu"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mdes"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config parameterizes the end-to-end flow. The zero value uses the
// paper's defaults everywhere.
//
// The JSON tags are iscd's wire format: a tagged field is a request knob,
// and a field tagged "-" is fixed by the server (the library and machine,
// the seed) or belongs to the execution environment (the corpus,
// telemetry, context, worker pool, schedule memo). Because the service's
// cache key hashes this JSON form, every wire knob is part of the cache
// identity by construction.
type Config struct {
	// Lib is the hardware library (nil = hwlib.Default()).
	Lib *hwlib.Library `json:"-"`
	// Machine is the baseline VLIW (nil = machine.Default4Wide()).
	Machine *machine.Desc `json:"-"`
	// Constraints bound individual CFUs' register ports (a zero MaxInputs
	// / MaxOutputs = 5 inputs / 3 outputs, each field defaulted on its
	// own).
	explore.Constraints
	// Budget is the total CFU die area in adder units (0 = 15, the
	// paper's largest sweep point).
	Budget float64 `json:"budget,omitempty"`
	// SelectMode picks the selection heuristic (default greedy
	// value/cost).
	SelectMode cfu.SelectMode `json:"select_mode,omitempty"`
	// Strategy picks the candidate-discovery algorithm:
	// explore.StrategyEnumerate (the default; "" means the same) or
	// explore.StrategyImprove. Unknown names are rejected up front.
	Strategy string `json:"strategy,omitempty"`
	// CostModel picks the guide's pricing: explore.CostArea (the default;
	// "" means the same) or explore.CostUarch, the microarchitecture-aware
	// mode that prices candidates by register-port fit and pipeline stages
	// instead of die area.
	CostModel string `json:"cost_model,omitempty"`
	// Seed perturbs the improve strategy's restart schedule; runs are
	// deterministic for any fixed value. Ignored by enumerate.
	Seed int64 `json:"-"`
	// UseVariants enables subsumed-subgraph matching in the compiler.
	UseVariants bool `json:"use_variants,omitempty"`
	// UseOpcodeClasses enables wildcard (opcode-class) matching.
	UseOpcodeClasses bool `json:"use_opcode_classes,omitempty"`
	// MultiFunction adds merged multi-function CFUs (wildcard pairs
	// generalized to opcode-class nodes) to the candidate pool before
	// selection — the paper's proposed future work.
	MultiFunction bool `json:"multi_function,omitempty"`
	// Optimize runs CSE and dead-code elimination before matching; see
	// compile.Options.Optimize.
	Optimize bool `json:"optimize,omitempty"`
	// Verify cross-checks every transformed block against the original in
	// the functional simulator.
	Verify bool `json:"verify,omitempty"`
	// Corpus, when non-nil, memoizes per-block exploration results across
	// runs: repeated and overlapping workloads replay memoized candidates
	// instead of re-searching, with selected results byte-identical to a
	// cold run. Bypassed automatically when MaxCandidates is set.
	Corpus *corpus.Corpus `json:"-"`
	// Schedules, when non-nil, memoizes block schedules across compiles
	// (compile.ScheduleMemo); outputs are identical with or without it.
	Schedules *compile.ScheduleMemo `json:"-"`
	// Telemetry, when non-nil, receives per-stage spans and counters from
	// every stage of the flow (explore, combine, select, compile, sim).
	Telemetry *telemetry.Registry `json:"-"`
	// Ctx, when non-nil, cancels the hardware-compiler stages (explore,
	// combine, select) cooperatively: each stage returns best-so-far
	// results tagged Truncated instead of aborting. nil = background.
	Ctx context.Context `json:"-"`
	// ExploreDeadline bounds the exploration stage's wall-clock time (0 =
	// none). Expiry yields a Truncated, best-so-far candidate pool.
	ExploreDeadline time.Duration `json:"-"`
	// MaxCandidates caps the candidates exploration records (0 =
	// unlimited); hitting the cap tags the result Truncated.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// Workers bounds the goroutines one exploration runs, the caller's
	// included (0 or 1 = serial); each explores whole blocks. Results are
	// merged in block order, so the output is identical at every setting;
	// exploration falls back to serial while an anytime budget is active.
	// Each call has its own bound, so concurrent calls each use up to
	// Workers goroutines.
	Workers int `json:"-"`
}

// Normalize returns the configuration with each zero-valued default made
// explicit, field by field: a partially set Constraints keeps the fields
// it sets and takes the paper's value for the rest.
func (c Config) Normalize() Config {
	if c.Lib == nil {
		c.Lib = hwlib.Default()
	}
	if c.Machine == nil {
		c.Machine = machine.Default4Wide()
	}
	def := explore.DefaultConstraints()
	if c.Constraints.MaxInputs == 0 {
		c.Constraints.MaxInputs = def.MaxInputs
	}
	if c.Constraints.MaxOutputs == 0 {
		c.Constraints.MaxOutputs = def.MaxOutputs
	}
	if c.Budget == 0 {
		c.Budget = 15
	}
	if c.Strategy == "" {
		c.Strategy = explore.StrategyEnumerate
	}
	if c.CostModel == "" {
		c.CostModel = explore.CostArea
	}
	return c
}

// Validate rejects an unknown strategy, cost model or selection mode.
func (c Config) Validate() error {
	if err := explore.ValidStrategy(c.Strategy); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := explore.ValidCostModel(c.CostModel); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if _, err := c.SelectMode.MarshalText(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// BindFlags registers the pipeline knobs every command-line tool shares
// (-strategy, -cost, -seed, -deadline, -max-candidates) on fs, writing
// into c. Call Validate after fs.Parse.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Strategy, "strategy", explore.StrategyEnumerate, "exploration strategy: "+fmt.Sprint(explore.Strategies()))
	fs.StringVar(&c.CostModel, "cost", explore.CostArea, "guide cost model: "+fmt.Sprint(explore.CostModels()))
	fs.Int64Var(&c.Seed, "seed", 0, "restart-schedule seed for -strategy improve (deterministic per value)")
	fs.DurationVar(&c.ExploreDeadline, "deadline", 0, "exploration wall-clock budget per program (0 = none); on expiry the best-so-far candidates are used and the results are tagged truncated")
	fs.IntVar(&c.MaxCandidates, "max-candidates", 0, "cap on candidate subgraphs recorded per program (0 = unlimited); hitting it tags the results truncated")
}

// Result is the outcome of a full customization run.
type Result struct {
	// MDES is the generated machine description.
	MDES *mdes.MDES
	// Candidates is the full candidate CFU list before selection.
	Candidates []*cfu.CFU
	// Program is the application recompiled with custom instructions.
	Program *ir.Program
	// Report carries the cycle accounting and speedup.
	Report *compile.Report
	// CorpusHits and CorpusMisses count the blocks exploration replayed
	// from (respectively searched into) cfg.Corpus. Both zero when no
	// corpus was attached. They describe how the result was produced, not
	// what it is — byte-identical results can carry different counts.
	CorpusHits   int
	CorpusMisses int
}

// Customize runs the complete flow of the paper on one application:
// dataflow-graph exploration, candidate combination, CFU selection, MDES
// generation, and compilation of the application onto its own extended
// machine.
func Customize(p *ir.Program, cfg Config) (*Result, error) {
	cfg, err := prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	cands, stats, truncated := Explore(p, cfg)
	m := Select(p.Name, cfu.NewSelector(cands), truncated, cfg)
	out, rep, err := Compile(p, m, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		MDES: m, Candidates: cands, Program: out, Report: rep,
		CorpusHits: stats.CorpusHits, CorpusMisses: stats.CorpusMisses,
	}, nil
}

// GenerateMDES runs only the hardware compiler: profiled application in,
// prioritized CFU machine description out.
func GenerateMDES(p *ir.Program, cfg Config) (*mdes.MDES, error) {
	cfg, err := prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	cands, _, truncated := Explore(p, cfg)
	return Select(p.Name, cfu.NewSelector(cands), truncated, cfg), nil
}

// CompileWith runs only the software compiler: application plus MDES in,
// customized program and speedup report out.
func CompileWith(p *ir.Program, m *mdes.MDES, cfg Config) (*ir.Program, *compile.Report, error) {
	cfg, err := prepare(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	return Compile(p, m, cfg)
}

// prepare normalizes and validates the configuration and validates the
// input program: the checks every public entry point makes once before
// running the stages.
func prepare(p *ir.Program, cfg Config) (Config, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if err := ir.Validate(p); err != nil {
		return cfg, fmt.Errorf("core: input program: %w", err)
	}
	return cfg, nil
}

// ExploreConfig returns the exploration settings c describes: the one
// place a core.Config becomes an explore.Config. Callers that study an
// exploration setting core.Config does not carry (naive growth, guide
// weights, a relaxed port pool) adjust the returned value. c must be
// normalized.
func (c Config) ExploreConfig() explore.Config {
	ecfg := explore.DefaultConfig(c.Lib)
	ecfg.Strategy = c.Strategy
	ecfg.CostModel = c.CostModel
	ecfg.Seed = c.Seed
	ecfg.Constraints = c.Constraints
	ecfg.Telemetry = c.Telemetry
	ecfg.Ctx = c.Ctx
	ecfg.Deadline = c.ExploreDeadline
	ecfg.MaxCandidates = c.MaxCandidates
	ecfg.Corpus = c.Corpus
	ecfg.Workers = c.Workers
	return ecfg
}

// Explore runs the flow's discovery stages on p: dataflow-graph
// exploration under cfg.ExploreConfig(), then Combine. truncated reports
// that an anytime budget cut exploration or combination short. cfg must
// be normalized and valid.
func Explore(p *ir.Program, cfg Config) (cands []*cfu.CFU, stats explore.Stats, truncated bool) {
	res := explore.Explore(p, cfg.ExploreConfig())
	cands, truncated = Combine(res, cfg)
	return cands, res.Stats, truncated
}

// Combine groups an exploration's candidates into CFUs, then adds the
// multi-function merge when cfg.MultiFunction is set. truncated reports
// that an anytime budget cut the exploration (res.Stats.Truncated) or the
// combination short.
func Combine(res *explore.Result, cfg Config) (cands []*cfu.CFU, truncated bool) {
	cands, truncated = cfu.CombinePartial(res, cfg.Lib, cfu.CombineOptions{Telemetry: cfg.Telemetry, Ctx: cfg.Ctx})
	if cfg.MultiFunction {
		cands = cfu.BuildMultiFunction(cands, cfg.Lib)
	}
	return cands, res.Stats.Truncated || truncated
}

// Select spends cfg.Budget on sel's candidates and returns the machine
// description for the program named name. truncated marks the candidate
// pool as cut short (see Explore); the MDES inherits the tag. Selection
// mutates the candidates, so calls on one Selector must be serialized.
func Select(name string, sel *cfu.Selector, truncated bool, cfg Config) *mdes.MDES {
	m := mdes.FromSelection(name, cfg.Budget, sel.Select(cfu.SelectOptions{
		Budget:    cfg.Budget,
		Mode:      cfg.SelectMode,
		Lib:       cfg.Lib,
		Telemetry: cfg.Telemetry,
		Ctx:       cfg.Ctx,
	}))
	m.Truncated = m.Truncated || truncated
	return m
}

// Compile compiles p onto the machine m extends and, when cfg.Verify is
// set, checks every transformed block against the original in the
// functional simulator. cfg must be normalized.
func Compile(p *ir.Program, m *mdes.MDES, cfg Config) (*ir.Program, *compile.Report, error) {
	out, rep, err := compile.Compile(p, m, compile.Options{
		Machine:          cfg.Machine,
		Lib:              cfg.Lib,
		UseVariants:      cfg.UseVariants,
		UseOpcodeClasses: cfg.UseOpcodeClasses,
		Optimize:         cfg.Optimize,
		Schedules:        cfg.Schedules,
		Telemetry:        cfg.Telemetry,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Verify {
		endSim := cfg.Telemetry.StartSpan("sim.verify")
		defer endSim()
		for i := range p.Blocks {
			if err := sim.Equivalent(p.Blocks[i], out.Blocks[i], 12, uint32(17*i+3)); err != nil {
				return nil, nil, fmt.Errorf("core: verification of block %s: %w", p.Blocks[i].Name, err)
			}
			cfg.Telemetry.Add("sim.blocks.verified", 1)
		}
	}
	return out, rep, nil
}
