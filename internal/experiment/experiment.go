package experiment

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cfu"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faultinject"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mdes"
	"repro/internal/workloads"
)

// Budgets1to15 is the paper's area sweep: one through fifteen adders.
func Budgets1to15() []float64 {
	out := make([]float64, 15)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// Harness caches the expensive pipeline artifacts so sweeps over budgets
// and cross-compiles reuse them. It keeps four compute-once memos: the
// benchmarks, each benchmark's explored and combined candidates, each
// (benchmark, budget) selection, and each compile. A compile is keyed on
// what the compiler reads (the application, the MDES's source, truncation
// tag and ordered CFU names, and the compiler knobs), not on the budget,
// so budgets that select the same CFUs share one compile. Returned
// reports are shared between callers and must be treated as read-only.
//
// All methods are safe for concurrent use: the caches are compute-once
// across goroutines, and the sweep/study harnesses fan their compile jobs
// out over Parallelism workers while merging results in input order, so
// their output is byte-identical to a serial run.
//
// The embedded Config configures every run, which goes through core's
// pipeline stages; set it before the first run, since the memo caches key
// on benchmark name and budget (and the compile memo on four compiler
// knobs), not on the whole configuration. Each call names its own budget,
// and Parallelism replaces Config.Workers. A study that varies an
// exploration setting adjusts only that setting of Config.ExploreConfig().
// Fig3 and GuideWeightAblation study the enumerative guide function: they
// refuse any other Strategy, and explore without the Corpus, whose replays
// leave the effort counters they print at zero.
// Config.Telemetry also receives the memo-cache hit/miss counters and the
// worker-pool utilization.
type Harness struct {
	core.Config
	// Parallelism bounds each level of parallelism on its own: at most
	// Parallelism concurrent jobs in the sweep and study harnesses, and at
	// most Parallelism goroutines in each exploration
	// (0 = runtime.GOMAXPROCS(0), 1 = serial).
	Parallelism int

	mu       sync.Mutex
	benches  map[string]*memoCell[*workloads.Benchmark]
	cands    map[string]*memoCell[candSet]
	mdess    map[mdesKey]*memoCell[*mdes.MDES]
	compiles map[compileKey]*memoCell[*compile.Report]
	// schedules is every compile's schedule memo (core.Config.Schedules):
	// the harness's compiles share most of their blocks.
	schedules *compile.ScheduleMemo
	selLocks  map[string]*sync.Mutex
	// jobNanos accumulates the pool jobs' busy time (AggregateJobTime);
	// waitNanos accumulates time any harness call spent blocked on a memo
	// cell another goroutine was computing or on a selection lock.
	jobNanos  atomic.Int64
	waitNanos atomic.Int64
}

// mdesKey identifies one selection: an application's candidates spent at
// one area budget.
type mdesKey struct {
	name   string
	budget float64
}

// compileKey identifies one compile by everything compile.Compile reads
// beyond the harness-wide Lib and Machine. A CFU name (cfu<ID><mnemonic>)
// is unique within one source's compute-once candidate pool, and a
// selected CFU's shape, variants and latency are fixed by then, so the
// ordered names stand for the hardware. The budget, total area and value
// estimates are not read by the compiler and stay out of the key.
type compileKey struct {
	app, source string
	truncated   bool
	// cfus is the MDES's CFU names in priority order, NUL-separated.
	cfus                                string
	variants, classes, optimize, verify bool
}

func newCompileKey(app string, m *mdes.MDES, cfg core.Config) compileKey {
	var names strings.Builder
	for i := range m.CFUs {
		if i > 0 {
			names.WriteByte(0)
		}
		names.WriteString(m.CFUs[i].Name)
	}
	return compileKey{
		app: app, source: m.Source, truncated: m.Truncated, cfus: names.String(),
		variants: cfg.UseVariants, classes: cfg.UseOpcodeClasses,
		optimize: cfg.Optimize, verify: cfg.Verify,
	}
}

// candSet is one benchmark's candidate pool, the Selector every selection
// over it shares, and whether an anytime budget cut the exploration or
// combination short while building it.
type candSet struct {
	cfus      []*cfu.CFU
	selector  *cfu.Selector
	truncated bool
}

// NewHarness returns a harness with the paper's defaults.
func NewHarness() *Harness {
	return &Harness{
		Config:    core.Config{Lib: hwlib.Default(), Machine: machine.Default4Wide()},
		benches:   make(map[string]*memoCell[*workloads.Benchmark]),
		cands:     make(map[string]*memoCell[candSet]),
		mdess:     make(map[mdesKey]*memoCell[*mdes.MDES]),
		compiles:  make(map[compileKey]*memoCell[*compile.Report]),
		schedules: compile.NewScheduleMemo(),
		selLocks:  make(map[string]*sync.Mutex),
	}
}

// Benchmark returns (and caches) the named benchmark.
func (h *Harness) Benchmark(name string) (*workloads.Benchmark, error) {
	v, hit, err := memoize(&h.mu, h.benches, name, &h.waitNanos, func() (*workloads.Benchmark, error) {
		if err := faultinject.Fire("benchmark", name); err != nil {
			return nil, err
		}
		return workloads.ByName(name)
	})
	h.Telemetry.AddHitMiss("memo.benchmark", hit)
	return v, err
}

// RegisterBenchmark installs a pre-built benchmark — typically an
// internal/synth program — into the benchmark cache under b.Name, so every
// harness surface (Sweep, CompileOn, the studies) accepts the name exactly
// like a seed workload. Register before any exploration under that name:
// the downstream candidate/MDES memos key on the name and are not evicted.
func (h *Harness) RegisterBenchmark(b *workloads.Benchmark) {
	c := &memoCell[*workloads.Benchmark]{val: b}
	c.once.Do(func() {})
	h.mu.Lock()
	h.benches[b.Name] = c
	h.mu.Unlock()
}

// Candidates runs exploration + combination for the named benchmark once,
// no matter how many workers ask for it concurrently.
func (h *Harness) Candidates(name string) ([]*cfu.CFU, error) {
	cs, err := h.candidatesFull(name)
	return cs.cfus, err
}

// candidatesFull is Candidates plus the truncation tag of the pool.
func (h *Harness) candidatesFull(name string) (candSet, error) {
	v, hit, err := memoize(&h.mu, h.cands, name, &h.waitNanos, func() (candSet, error) {
		if err := faultinject.Fire("explore", name); err != nil {
			return candSet{}, err
		}
		b, err := h.Benchmark(name)
		if err != nil {
			return candSet{}, err
		}
		cfg := h.config()
		if err := cfg.Validate(); err != nil {
			return candSet{}, err
		}
		cfus, _, truncated := core.Explore(b.Program, cfg)
		return candSet{cfus: cfus, selector: cfu.NewSelector(cfus), truncated: truncated}, nil
	})
	h.Telemetry.AddHitMiss("memo.candidates", hit)
	return v, err
}

// MDESAt selects CFUs for the named benchmark at the given area budget.
// Selections are memoized per (benchmark, budget), and the cfu.Select call
// itself is serialized per benchmark because selection lazily mutates the
// shared candidate list. The MDES carries a Truncated tag when any anytime
// budget (harness deadline, candidate cap, context) cut exploration,
// combination, or selection short.
func (h *Harness) MDESAt(name string, budget float64) (*mdes.MDES, error) {
	v, hit, err := memoize(&h.mu, h.mdess, mdesKey{name, budget}, &h.waitNanos, func() (*mdes.MDES, error) {
		if err := faultinject.Fire("select", name); err != nil {
			return nil, err
		}
		cs, err := h.candidatesFull(name)
		if err != nil {
			return nil, err
		}
		cfg := h.config()
		cfg.Budget = budget
		unlock := h.lockSel(name)
		defer unlock()
		return core.Select(name, cs.selector, cs.truncated, cfg), nil
	})
	h.Telemetry.AddHitMiss("memo.mdesat", hit)
	return v, err
}

// CompileOn compiles application app against the CFUs generated for
// cfuSource at the given budget and returns the speedup report. The
// report is memoized and shared: callers must not modify it.
func (h *Harness) CompileOn(app, cfuSource string, budget float64) (*compile.Report, error) {
	return h.compileOn(app, cfuSource, budget, h.config())
}

// compileOn is CompileOn under cfg, a variant of h.config() (studies vary
// its compiler knobs).
func (h *Harness) compileOn(app, cfuSource string, budget float64, cfg core.Config) (*compile.Report, error) {
	if err := faultinject.Fire("compile", app); err != nil {
		return nil, err
	}
	b, err := h.Benchmark(app)
	if err != nil {
		return nil, err
	}
	m, err := h.MDESAt(cfuSource, budget)
	if err != nil {
		return nil, err
	}
	// Keep only the report: holding every compiled program for the life of
	// the harness would raise a sweep's peak memory.
	rep, hit, err := memoize(&h.mu, h.compiles, newCompileKey(app, m, cfg), &h.waitNanos, func() (*compile.Report, error) {
		_, rep, err := core.Compile(b.Program, m, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s on %s: %w", app, cfuSource, err)
		}
		return rep, nil
	})
	h.Telemetry.AddHitMiss("memo.compile", hit)
	return rep, err
}

// config returns the harness's normalized pipeline configuration, with
// each exploration bounded to workers() goroutines and every compile
// scheduling through the harness's schedule memo.
func (h *Harness) config() core.Config {
	cfg := h.Config.Normalize()
	cfg.Workers = h.workers()
	cfg.Schedules = h.schedules
	return cfg
}

// SweepPoint is one (budget, speedup) sample of a Figure 7 curve.
type SweepPoint struct {
	Budget  float64
	Speedup float64
	// Truncated marks a point whose hardware came from a budget-cut
	// (anytime) exploration: a valid lower bound, not the full search.
	Truncated bool
}

// SweepResult is one curve of Figure 7.
type SweepResult struct {
	App       string
	CFUSource string // equals App for native compiles
	Points    []SweepPoint
	// Err is the first failure among this curve's compile jobs (nil when
	// every point succeeded). Renderers skip failed curves; the sweep's
	// overall error joins every job failure across all curves.
	Err error
	// Truncated reports that at least one point of the curve is truncated.
	Truncated bool
}

// Label renders the curve name as the paper does ("rijndael-blowfish").
func (s *SweepResult) Label() string { return pairLabel(s.App, s.CFUSource) }

// pairLabel renders an (application, CFU source) pair as "app-source", or
// just "app" for a native pair.
func pairLabel(app, src string) string {
	if app == src {
		return app
	}
	return app + "-" + src
}

// sweepPair is one (application, CFU source) curve request.
type sweepPair struct {
	app, src string
}

// sweepAll compiles every (pair, budget) combination as one flat job list
// on the worker pool, writing each speedup into its predetermined slot so
// the curves come back in input order regardless of scheduling.
//
// Jobs are issued budget-major — job j is curve j mod len(pairs) at budget
// j div len(pairs) — so concurrent workers start on distinct benchmarks
// instead of queueing on one benchmark's compute-once candidates and its
// selection lock while the others wait.
//
// Failures are isolated per curve: a benchmark whose pipeline errors (or
// panics) marks only its own SweepResult.Err, every other curve completes
// normally, and the returned error joins all job failures, curve by curve
// in budget order, so the caller can report each one and still render the
// healthy curves.
func (h *Harness) sweepAll(pairs []sweepPair, budgets []float64) ([]*SweepResult, error) {
	out := make([]*SweepResult, len(pairs))
	for k, p := range pairs {
		out[k] = &SweepResult{App: p.app, CFUSource: p.src, Points: make([]SweepPoint, len(budgets))}
	}
	np, nb := len(pairs), len(budgets)
	if nb == 0 {
		return out, nil
	}
	cfg := h.config()
	errs := h.parallelForAll(np*nb,
		func(j int) string {
			p := pairs[j%np]
			return fmt.Sprintf("benchmark %q on %q at budget %g", p.app, p.src, budgets[j/np])
		},
		func(j int) error {
			k, bi := j%np, j/np
			rep, err := h.compileOn(pairs[k].app, pairs[k].src, budgets[bi], cfg)
			if err != nil {
				return fmt.Errorf("benchmark %s on %s at budget %g: %w",
					pairs[k].app, pairs[k].src, budgets[bi], err)
			}
			out[k].Points[bi] = SweepPoint{Budget: budgets[bi], Speedup: rep.Speedup, Truncated: rep.Truncated}
			return nil
		})
	// Attribute failures and truncation to curves after the pool drains —
	// jobs write only their own slot, so no concurrent flag updates.
	byCurve := make([]error, len(errs))
	for j, err := range errs {
		byCurve[(j%np)*nb+j/np] = err
	}
	for i, err := range byCurve {
		if err != nil && out[i/nb].Err == nil {
			out[i/nb].Err = err
		}
	}
	for _, r := range out {
		for _, pt := range r.Points {
			if pt.Truncated {
				r.Truncated = true
				break
			}
		}
	}
	return out, errors.Join(byCurve...)
}

// Sweep compiles app against cfuSource's CFUs across the budgets. The
// compiler generalizations are enabled as in the paper's Figure 7 runs
// (exact matching only; extensions are studied separately). The curve is
// returned even on error, holding the points that did compile.
func (h *Harness) Sweep(app, cfuSource string, budgets []float64) (*SweepResult, error) {
	res, err := h.sweepAll([]sweepPair{{app, cfuSource}}, budgets)
	return res[0], err
}

// Fig7Native produces the left half of Figure 7 for one domain: every
// application in the domain compiled on its own CFUs.
func (h *Harness) Fig7Native(domain string, budgets []float64) ([]*SweepResult, error) {
	apps, err := domainApps(domain)
	if err != nil {
		return nil, err
	}
	pairs := make([]sweepPair, len(apps))
	for i, app := range apps {
		pairs[i] = sweepPair{app, app}
	}
	return h.sweepAll(pairs, budgets)
}

// Fig7Cross produces the right half of Figure 7 for one domain: every
// application compiled on every *other* application's CFUs.
func (h *Harness) Fig7Cross(domain string, budgets []float64) ([]*SweepResult, error) {
	apps, err := domainApps(domain)
	if err != nil {
		return nil, err
	}
	var pairs []sweepPair
	for _, app := range apps {
		for _, src := range apps {
			if src != app {
				pairs = append(pairs, sweepPair{app, src})
			}
		}
	}
	return h.sweepAll(pairs, budgets)
}

func domainApps(domain string) ([]string, error) {
	var out []string
	for _, b := range workloads.All() {
		if b.Domain == domain {
			out = append(out, b.Name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: unknown domain %q", domain)
	}
	return out, nil
}

// ExtensionResult is one bar group of Figures 8/9: the four speedups for
// an (application, CFU set) pair at the 15-adder point.
type ExtensionResult struct {
	App, CFUSource string
	// Exact: exact subgraph matches only (grey bar, left pair).
	Exact float64
	// ExactSubsumed: exact + subsumed subgraph matching (full left bar).
	ExactSubsumed float64
	// Wildcard: opcode-class hardware, exact matching (grey bar, right).
	Wildcard float64
	// WildcardSubsumed: opcode classes + subsumed matching (full right).
	WildcardSubsumed float64
}

// Label renders "app-source" or just "app" for native pairs.
func (e *ExtensionResult) Label() string { return pairLabel(e.App, e.CFUSource) }

// ExtensionStudy reproduces Figures 8 and 9 for one domain: all app x CFU
// set combinations at the given cost point, under the four matching modes.
func (h *Harness) ExtensionStudy(domain string, budget float64) ([]*ExtensionResult, error) {
	apps, err := domainApps(domain)
	if err != nil {
		return nil, err
	}
	var out []*ExtensionResult
	for _, app := range apps {
		for _, src := range apps {
			out = append(out, &ExtensionResult{App: app, CFUSource: src})
		}
	}
	// The four matching modes of one bar group are independent compiles,
	// so the job list is (pair, mode); each job writes its own field.
	modes := [4]struct{ variants, classes bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	}
	base := h.config()
	err = h.parallelFor(len(out)*len(modes), func(j int) error {
		er, m := out[j/len(modes)], modes[j%len(modes)]
		cfg := base
		cfg.UseVariants, cfg.UseOpcodeClasses = m.variants, m.classes
		rep, err := h.compileOn(er.App, er.CFUSource, budget, cfg)
		if err != nil {
			return err
		}
		switch {
		case m.variants && m.classes:
			er.WildcardSubsumed = rep.Speedup
		case m.variants:
			er.ExactSubsumed = rep.Speedup
		case m.classes:
			er.Wildcard = rep.Speedup
		default:
			er.Exact = rep.Speedup
		}
		return nil
	})
	// Partial results: bar groups whose jobs all succeeded are complete;
	// the joined error names every failed (pair, mode) job.
	return out, err
}

// LimitResult is one row of the limit study.
type LimitResult struct {
	App string
	// At15 is the speedup at the paper's 15-adder point with the default
	// 5-in/3-out port constraints.
	At15 float64
	// Unlimited is the speedup with effectively infinite area and ports.
	Unlimited float64
}

// LimitStudy compares each benchmark's constrained speedup to the
// infinite-resource ideal, as in §5's limit discussion.
func (h *Harness) LimitStudy(apps []string) ([]*LimitResult, error) {
	if apps == nil {
		apps = workloads.Names()
	}
	cfg := h.config()
	inf := cfg
	inf.Budget = 1e9
	// The unconstrained pool is the union of a relaxed exploration
	// (generous ports, narrow fanout, high effort cap), which grows
	// candidates toward the paper's 200-op, 80-port CFUs without
	// enumerating the now-enormous middle of the design space, and the
	// constrained one, of which it is thus a superset.
	relaxed := cfg.ExploreConfig()
	relaxed.Constraints = explore.Constraints{MaxInputs: 96, MaxOutputs: 48}
	relaxed.OvershootIO, relaxed.Fanout, relaxed.MaxExamined = 8, 2, 60000
	out := make([]*LimitResult, len(apps))
	err := h.parallelFor(len(apps), func(i int) error {
		app := apps[i]
		rep15, err := h.compileOn(app, app, 15, cfg)
		if err != nil {
			return err
		}
		b, err := h.Benchmark(app)
		if err != nil {
			return err
		}
		_, unlimited, _, err := customize(app, b.Program, inf, relaxed, cfg.ExploreConfig())
		if err != nil {
			return err
		}
		out[i] = &LimitResult{App: app, At15: rep15.Speedup, Unlimited: unlimited}
		return nil
	})
	// Partial results: rows for failed apps stay nil; renderers skip them.
	return out, err
}

// customize runs the flow on a study's own candidate pool, local to the
// call and so needing no selection lock: the union, in order, of p's
// explorations under ecfgs, combined and selected under cfg and compiled.
// examined sums the explorations' examined subgraphs.
func customize(name string, p *ir.Program, cfg core.Config, ecfgs ...explore.Config) (m *mdes.MDES, speedup float64, examined int, err error) {
	var res explore.Result
	for _, ecfg := range ecfgs {
		r := explore.Explore(p, ecfg)
		res.Candidates = append(res.Candidates, r.Candidates...)
		res.Stats.Examined += r.Stats.Examined
		res.Stats.Truncated = res.Stats.Truncated || r.Stats.Truncated
	}
	cands, truncated := core.Combine(&res, cfg)
	m = core.Select(name, cfu.NewSelector(cands), truncated, cfg)
	_, rep, err := core.Compile(p, m, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	return m, rep.Speedup, res.Stats.Examined, nil
}

// guideStudyConfig returns the configuration of a study of the enumerative
// guide function, or an error naming a strategy that does not read Naive,
// Weights or Fanout. The corpus is left out: the studies print effort
// counters, and a replayed block examines nothing.
func (h *Harness) guideStudyConfig(study string) (core.Config, error) {
	cfg := h.config()
	if cfg.Strategy != explore.StrategyEnumerate {
		return cfg, fmt.Errorf("experiment: %s studies the enumerative guide function, which strategy %q does not use", study, cfg.Strategy)
	}
	cfg.Corpus = nil
	return cfg, nil
}

// ExplorationStats reproduces Figure 3: subgraphs examined by candidate
// size for naive exponential growth versus the guide-function heuristic, on
// one benchmark (the paper uses blowfish, whose 16-round straight-line
// encrypt block is the "very large basic block" case). Both modes run
// under the same examination budget; the naive search burns it on an
// exponential wall of small subgraphs while the guided search reaches far
// larger candidates.
type ExplorationStats struct {
	App          string
	Budget       int
	NaiveBySize  map[int]int
	GuidedBySize map[int]int
	NaiveTotal   int
	GuidedTotal  int
	// NaiveMaxSize and GuidedMaxSize are the largest candidate sizes each
	// mode reached within the budget.
	NaiveMaxSize, GuidedMaxSize int
}

// Fig3 runs both exploration modes over the benchmark with the same
// examination budget (0 = 200000). It refuses any strategy but enumerate.
func (h *Harness) Fig3(app string, budget int) (*ExplorationStats, error) {
	cfg, err := h.guideStudyConfig("Figure 3")
	if err != nil {
		return nil, err
	}
	b, err := h.Benchmark(app)
	if err != nil {
		return nil, err
	}
	if budget == 0 {
		budget = 200000
	}
	gcfg := cfg.ExploreConfig()
	gcfg.MaxExamined = budget
	guided := explore.Explore(b.Program, gcfg)
	ncfg := gcfg
	ncfg.Naive = true
	naive := explore.Explore(b.Program, ncfg)

	st := &ExplorationStats{
		App:          app,
		Budget:       budget,
		NaiveBySize:  naive.Stats.BySize,
		GuidedBySize: guided.Stats.BySize,
		NaiveTotal:   naive.Stats.Examined,
		GuidedTotal:  guided.Stats.Examined,
	}
	for s := range st.NaiveBySize {
		st.NaiveMaxSize = max(st.NaiveMaxSize, s)
	}
	for s := range st.GuidedBySize {
		st.GuidedMaxSize = max(st.GuidedMaxSize, s)
	}
	return st, nil
}

// CumulativeAtSize returns how many candidates of size <= k each mode
// examined: the height of the Figure 3 curves at size k.
func (st *ExplorationStats) CumulativeAtSize(k int) (naive, guided int) {
	for s, n := range st.NaiveBySize {
		if s <= k {
			naive += n
		}
	}
	for s, n := range st.GuidedBySize {
		if s <= k {
			guided += n
		}
	}
	return naive, guided
}

// MultiFunctionResult compares one compile against a CFU set selected
// without and with merged multi-function candidates in the pool (the
// paper's future work). Native rows show that multi-function units rarely
// help the application that shaped them (both parents fit the budget
// anyway); cross rows show where generality pays.
type MultiFunctionResult struct {
	App, CFUSource string
	Single, Multi  float64
	MergedSelected int
}

// Label renders "app-source" or just "app" for native pairs.
func (r *MultiFunctionResult) Label() string { return pairLabel(r.App, r.CFUSource) }

// multiFuncMDES selects CFUs for source under cfg with merged
// multi-function candidates admitted, returning the MDES and how many
// merged units made the cut. Pairing and selection both mutate the shared
// candidate list, so the whole computation runs under the source's select
// lock.
func (h *Harness) multiFuncMDES(source string, cfg core.Config) (*mdes.MDES, int, error) {
	cs, err := h.candidatesFull(source)
	if err != nil {
		return nil, 0, err
	}
	unlock := h.lockSel(source)
	multi := cfu.BuildMultiFunction(cs.cfus, cfg.Lib)
	m := core.Select(source, cfu.NewSelector(multi), cs.truncated, cfg)
	unlock()
	merged := 0
	for _, spec := range m.CFUs {
		for _, n := range spec.Shape.Nodes {
			if n.Class != 0 {
				merged++
				break
			}
		}
	}
	return m, merged, nil
}

// MultiFunctionStudy measures multi-function CFU selection at one budget
// point over a domain: every (app, CFU source) combination, native and
// cross, compiled with exact matching against the single-function and the
// multi-function hardware.
func (h *Harness) MultiFunctionStudy(domain string, budget float64) ([]*MultiFunctionResult, error) {
	apps, err := domainApps(domain)
	if err != nil {
		return nil, err
	}
	// One multi-function MDES per source, computed once and shared by the
	// (src, app) compile jobs through a local memo.
	type multiSel struct {
		m      *mdes.MDES
		merged int
	}
	var multiMu sync.Mutex
	multiCells := make(map[string]*memoCell[multiSel])
	cfg := h.config()
	cfg.Budget = budget
	out := make([]*MultiFunctionResult, len(apps)*len(apps))
	err = h.parallelFor(len(out), func(j int) error {
		src, app := apps[j/len(apps)], apps[j%len(apps)]
		ms, _, err := memoize(&multiMu, multiCells, src, &h.waitNanos, func() (multiSel, error) {
			m, merged, err := h.multiFuncMDES(src, cfg)
			return multiSel{m, merged}, err
		})
		if err != nil {
			return err
		}
		b, err := h.Benchmark(app)
		if err != nil {
			return err
		}
		r := &MultiFunctionResult{App: app, CFUSource: src, MergedSelected: ms.merged}
		repS, err := h.compileOn(app, src, budget, cfg)
		if err != nil {
			return err
		}
		r.Single = repS.Speedup
		_, repM, err := core.Compile(b.Program, ms.m, cfg)
		if err != nil {
			return err
		}
		r.Multi = repM.Speedup
		out[j] = r
		return nil
	})
	// Partial results: rows for failed pairs stay nil; renderers skip them.
	return out, err
}

// MemoryCFUResult is one row of the relaxed-memory study.
type MemoryCFUResult struct {
	App string
	// NoMem is the speedup under the paper's no-memory-ops restriction;
	// WithMem allows loads inside CFUs (the future-work relaxation).
	NoMem, WithMem float64
	// MemCFUs counts selected CFUs containing loads.
	MemCFUs int
}

// MemoryCFUStudy measures the paper's proposed memory-restriction
// relaxation: native speedups with load-bearing CFUs allowed, verified in
// the functional simulator. nil apps means all benchmarks.
func (h *Harness) MemoryCFUStudy(apps []string, budget float64) ([]*MemoryCFUResult, error) {
	if apps == nil {
		apps = workloads.Names()
	}
	cfg := h.config()
	mem := cfg
	mem.Lib, mem.Budget, mem.Verify = hwlib.MemoryEnabled(), budget, true
	out := make([]*MemoryCFUResult, len(apps))
	err := h.parallelFor(len(apps), func(i int) error {
		app := apps[i]
		base, err := h.compileOn(app, app, budget, cfg)
		if err != nil {
			return err
		}
		b, err := h.Benchmark(app)
		if err != nil {
			return err
		}
		m, withMem, _, err := customize(app, b.Program, mem, mem.ExploreConfig())
		if err != nil {
			return fmt.Errorf("experiment: memcfu %s: %w", app, err)
		}
		out[i] = &MemoryCFUResult{App: app, NoMem: base.Speedup, WithMem: withMem}
		for _, spec := range m.CFUs {
			if spec.Shape.UsesMemory() {
				out[i].MemCFUs++
			}
		}
		return nil
	})
	// Partial results: rows for failed apps stay nil; renderers skip them.
	return out, err
}

// UnrollResult is one row of the unrolling study: speedup with CFUs
// generated and exploited on the program unrolled by Factor.
type UnrollResult struct {
	App     string
	Factor  int
	Speedup float64
}

// UnrollStudy measures how loop unrolling (which enlarges basic blocks and
// exposes cross-iteration subgraphs, per §2's discussion of Goodwin and of
// unrolling-created large blocks) changes the attainable speedup at one
// budget. Speedups are relative to the unrolled baseline, so they isolate
// the CFU effect from the unrolling effect itself.
func (h *Harness) UnrollStudy(app string, factors []int, budget float64) ([]*UnrollResult, error) {
	b, err := h.Benchmark(app)
	if err != nil {
		return nil, err
	}
	cfg := h.config()
	cfg.Budget = budget
	var out []*UnrollResult
	for _, f := range factors {
		up, err := ir.UnrollProgram(b.Program, f)
		if err != nil {
			return nil, err
		}
		_, speedup, _, err := customize(app, up, cfg, cfg.ExploreConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, &UnrollResult{App: app, Factor: f, Speedup: speedup})
	}
	return out, nil
}

// AblationPoint is one (budget, speedup) sample for a selection mode.
type AblationPoint struct {
	Mode    cfu.SelectMode
	Budget  float64
	Speedup float64
}

// SelectionAblation compares the selection heuristics (§3.4): greedy
// value/cost, greedy raw value, and the knapsack DP.
func (h *Harness) SelectionAblation(app string, budgets []float64) ([]AblationPoint, error) {
	cs, err := h.candidatesFull(app)
	if err != nil {
		return nil, err
	}
	b, err := h.Benchmark(app)
	if err != nil {
		return nil, err
	}
	modes := []cfu.SelectMode{cfu.GreedyRatio, cfu.GreedyValue, cfu.Knapsack}
	base := h.config()
	out := make([]AblationPoint, len(modes)*len(budgets))
	err = h.parallelFor(len(out), func(j int) error {
		mode, budget := modes[j/len(budgets)], budgets[j%len(budgets)]
		cfg := base
		cfg.SelectMode, cfg.Budget = mode, budget
		unlock := h.lockSel(app)
		m := core.Select(app, cs.selector, cs.truncated, cfg)
		unlock()
		_, rep, err := core.Compile(b.Program, m, cfg)
		if err != nil {
			return err
		}
		out[j] = AblationPoint{Mode: mode, Budget: budget, Speedup: rep.Speedup}
		return nil
	})
	// Partial results: failed points stay zero-valued; the joined error
	// names each failed (mode, budget) job.
	return out, err
}

// GuideAblation compares guide-function weightings (§3.2): the paper's even
// split against skews that zero out single categories.
type GuideAblation struct {
	Name     string
	Weights  explore.GuideWeights
	Examined int
	Speedup  float64
}

// GuideWeightAblation runs the named weight settings on one app at the
// 15-adder point. It refuses any strategy but enumerate.
func (h *Harness) GuideWeightAblation(app string) ([]*GuideAblation, error) {
	cfg, err := h.guideStudyConfig("the guide-weight ablation")
	if err != nil {
		return nil, err
	}
	b, err := h.Benchmark(app)
	if err != nil {
		return nil, err
	}
	cases := []*GuideAblation{
		{Name: "even", Weights: explore.EvenWeights()},
		{Name: "criticality-only", Weights: explore.GuideWeights{Criticality: 40}},
		{Name: "latency-heavy", Weights: explore.GuideWeights{Criticality: 5, Latency: 25, Area: 5, IO: 5}},
		{Name: "io-heavy", Weights: explore.GuideWeights{Criticality: 5, Latency: 5, Area: 5, IO: 25}},
	}
	cfg.Budget = 15
	for _, c := range cases {
		ecfg := cfg.ExploreConfig()
		ecfg.Weights = c.Weights
		if _, c.Speedup, c.Examined, err = customize(app, b.Program, cfg, ecfg); err != nil {
			return nil, err
		}
	}
	return cases, nil
}

// SortedSizes returns the ascending subgraph sizes present in either mode.
func (st *ExplorationStats) SortedSizes() []int {
	var out []int
	for s := range st.NaiveBySize {
		out = append(out, s)
	}
	for s := range st.GuidedBySize {
		if _, dup := st.NaiveBySize[s]; !dup {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}
