package explore

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Constraints are the externally supplied design limits on any single CFU.
type Constraints struct {
	// MaxInputs and MaxOutputs bound the register-file read and write
	// ports. The paper's experiments use 5 and 3.
	MaxInputs  int `json:"max_inputs,omitempty"`
	MaxOutputs int `json:"max_outputs,omitempty"`
	// MaxArea caps one CFU's die area in adder units (0 = unlimited).
	MaxArea float64 `json:"-"`
	// MaxOps caps the subgraph size (0 = unlimited). The limit study uses
	// unlimited everything.
	MaxOps int `json:"-"`
}

// DefaultConstraints returns the paper's experimental limits.
func DefaultConstraints() Constraints {
	return Constraints{MaxInputs: 5, MaxOutputs: 3}
}

// DefaultConfig returns the configuration the experiments use: the paper's
// port constraints, evenly weighted guide categories, and a moderate fanout
// cap (the guide ranks directions; the fanout bound takes the best few, the
// paper's lever for curbing exponential growth in cheap-operation regions).
func DefaultConfig(lib *hwlib.Library) Config {
	return Config{
		Constraints: DefaultConstraints(),
		Lib:         lib,
		Fanout:      UniformFanout(4),
		FanoutDesc:  "uniform:4",
	}
}

// FanoutPolicy bounds how many growth directions a candidate may take,
// given its current size and its block's profile weight. Returning 0 means
// unlimited. Varying the policy by size or weight is the flexibility the
// paper highlights over single-strategy explorers.
type FanoutPolicy func(size int, blockWeight float64) int

// UniformFanout allows at most k directions everywhere.
func UniformFanout(k int) FanoutPolicy {
	return func(int, float64) int { return k }
}

// DepthDecayFanout allows k0 directions for seeds, decaying by one per
// grown node, never below 1: broad early search, focused late search.
func DepthDecayFanout(k0 int) FanoutPolicy {
	return func(size int, _ float64) int {
		k := k0 - (size - 1)
		if k < 1 {
			k = 1
		}
		return k
	}
}

// WeightScaledFanout allows more directions in hot blocks: k directions
// when the block weight is at least hot, otherwise k/2 (minimum 1).
func WeightScaledFanout(k int, hot float64) FanoutPolicy {
	return func(_ int, w float64) int {
		if w >= hot {
			return k
		}
		if k/2 < 1 {
			return 1
		}
		return k / 2
	}
}

// Config controls one exploration run.
type Config struct {
	Constraints
	// Lib supplies cost estimates and CFU eligibility. Required.
	Lib *hwlib.Library
	// Strategy picks the candidate-discovery algorithm: StrategyEnumerate
	// (the default; "" means the same) or StrategyImprove. Validate names
	// arriving from a configuration boundary with ValidStrategy first:
	// Explore panics on an unknown name rather than silently falling back.
	Strategy string
	// CostModel picks how the guide scoring prices candidates: CostArea
	// (the default; "" means the same) prices by die area as in the paper,
	// CostUarch by pipeline-port and latency fit (microarchitecture-aware).
	CostModel string
	// Seed perturbs the improve strategy's restart schedule. Runs with the
	// same seed are deterministic; enumeration ignores it entirely.
	Seed int64
	// Naive disables the guide function, growing in all directions; used
	// by the Figure 3 comparison. Protect with MaxExamined.
	Naive bool
	// Threshold is the minimum guide score (out of 40) a direction needs
	// to be explored. 0 means the paper's default of half the points (20).
	Threshold float64
	// Weights scales each guide category (criticality, latency, area, IO).
	// Zero value means the paper's even 10/10/10/10 split.
	Weights GuideWeights
	// Fanout bounds growth directions (nil = unlimited).
	Fanout FanoutPolicy
	// FanoutDesc names the Fanout policy for corpus keying (e.g.
	// "uniform:4"); policies are funcs and cannot be hashed themselves.
	// Callers installing a custom Fanout must give each distinct policy a
	// distinct descriptor, or leave it empty to bypass the corpus — an
	// empty descriptor with a non-nil Fanout disables memoization rather
	// than risking aliased entries.
	FanoutDesc string
	// Corpus, when non-nil, memoizes completed per-block exploration
	// results keyed by block structure and configuration. Warm hits replay
	// the memoized candidates byte-identically to a cold search; only
	// wall-clock time and the examined/pruned effort counters change. It
	// is bypassed (cold path) under a MaxCandidates budget and for
	// undescribed custom fanout policies; see corpusUsable.
	Corpus *corpus.Corpus
	// OvershootIO lets candidates exceed the port limits by this much
	// while growing (reconvergence can bring ports back down); such
	// intermediates are explored but never recorded. Default 2.
	OvershootIO int
	// MaxExamined aborts a block's exploration after this many distinct
	// subgraphs (0 = 200000); a safety valve for naive mode.
	MaxExamined int
	// CandidatePrune, when in (0,1], switches to Sun-style pruning for the
	// ablation study: after each growth wave, only candidates whose
	// estimated merit reaches this fraction of the best merit seen so far
	// are kept for further growth. Directions are then not pruned.
	CandidatePrune float64
	// Telemetry, when non-nil, receives the exploration span and the
	// examined/pruned/recorded counters.
	Telemetry *telemetry.Registry
	// Workers bounds the number of goroutines exploring one program's
	// blocks concurrently (0 or 1 = serial). Per-block results are merged
	// in block order, so the output is byte-identical at every setting.
	// Anytime budgets (Ctx/Deadline/MaxCandidates) force a serial run:
	// cross-block truncation points stay deterministic that way.
	Workers int
	// Spare, when non-nil, gates the extra block workers: each one must
	// win a token from this pool for its lifetime. The experiment harness
	// hands its own worker pool here so the two parallelism levels share
	// one -j budget instead of oversubscribing. nil means Workers is the
	// only bound.
	Spare *Tokens

	// Ctx, when non-nil, lets the caller cancel exploration; the run stops
	// at the next budget check and returns its best-so-far candidates with
	// Stats.Truncated set. nil means context.Background().
	Ctx context.Context
	// Deadline bounds one Explore call's wall-clock time (0 = none). The
	// exploration is anytime: on expiry the candidates recorded so far are
	// returned, tagged Truncated, rather than the run aborting.
	Deadline time.Duration
	// MaxCandidates stops exploration after recording this many
	// constraint-satisfying candidates across the whole program (0 =
	// unlimited); the result is tagged Truncated.
	MaxCandidates int
}

// GuideWeights are the per-category points of the guide function.
type GuideWeights struct {
	Criticality, Latency, Area, IO float64
}

// EvenWeights is the paper's recommended balance.
func EvenWeights() GuideWeights { return GuideWeights{10, 10, 10, 10} }

func (w GuideWeights) total() float64 { return w.Criticality + w.Latency + w.Area + w.IO }

func (w GuideWeights) orEven() GuideWeights {
	if w.total() == 0 {
		return EvenWeights()
	}
	return w
}

// Candidate is one discovered subgraph, annotated with hardware estimates,
// as handed to the candidate-combination stage.
type Candidate struct {
	Block *ir.Block
	DFG   *ir.DFG
	// Ops are the subgraph's op indices within Block, ascending. The slice
	// is read-only: corpus replay shares one entry's member list with every
	// run that replays it.
	Ops     []int
	Area    float64
	Latency float64
	Inputs  int
	Outputs int
}

// Stats records exploration effort for the Figure 3 study.
type Stats struct {
	// Examined is the number of distinct subgraphs visited.
	Examined int
	// BySize counts examined subgraphs by node count.
	BySize map[int]int
	// PrunedDirections counts growth directions rejected by the guide.
	PrunedDirections int
	// Recorded is the number of constraint-satisfying candidates kept.
	Recorded int
	// Truncated reports that an anytime budget (deadline, cancellation, or
	// MaxCandidates) ended the run early; the candidates recorded so far
	// are still valid. The MaxExamined safety valve does NOT set it: that
	// cap predates the budgets and bounds pathological blocks even in
	// default runs.
	Truncated bool
	// TruncatedBy names the exhausted budget: "deadline", "canceled", or
	// "max-candidates".
	TruncatedBy string
	// CorpusHits counts blocks whose candidates were replayed from the
	// corpus without searching; CorpusMisses counts blocks that ran the
	// cold path with a corpus attached. Both stay zero when no corpus is
	// configured or it is bypassed.
	CorpusHits, CorpusMisses int
	// PoolHits and PoolMisses count work-item allocations served from the
	// per-block freelist versus fresh from the heap.
	PoolHits, PoolMisses int64
	// VisitedCollisions counts hash-probe steps over non-matching entries
	// in the visited-subgraph set.
	VisitedCollisions int64
}

// Result is the output of exploring one program.
type Result struct {
	Candidates []Candidate
	Stats      Stats
}

// budget is the anytime-exploration bookkeeping shared by every block of
// one Explore call: a context (carrying any deadline) and a program-wide
// candidate cap. Context polls are amortized over checkEvery worklist pops
// so the hot loop pays an integer decrement, not a channel select.
type budget struct {
	ctx           context.Context
	cancel        context.CancelFunc
	maxCandidates int
	countdown     int
}

const budgetCheckEvery = 64

// newBudget returns nil when cfg sets no anytime budget, keeping the
// default path allocation- and branch-free.
func newBudget(cfg Config) *budget {
	if cfg.Ctx == nil && cfg.Deadline <= 0 && cfg.MaxCandidates <= 0 {
		return nil
	}
	bud := &budget{ctx: cfg.Ctx, maxCandidates: cfg.MaxCandidates, countdown: budgetCheckEvery}
	if bud.ctx == nil {
		bud.ctx = context.Background()
	}
	if cfg.Deadline > 0 {
		bud.ctx, bud.cancel = context.WithTimeout(bud.ctx, cfg.Deadline)
	}
	return bud
}

// exhausted reports whether an anytime budget has run out, recording the
// reason in res the first time it trips.
func (bud *budget) exhausted(res *Result) bool {
	if bud == nil {
		return false
	}
	if res.Stats.Truncated {
		return true
	}
	if bud.maxCandidates > 0 && res.Stats.Recorded >= bud.maxCandidates {
		res.Stats.Truncated = true
		res.Stats.TruncatedBy = "max-candidates"
		return true
	}
	bud.countdown--
	if bud.countdown > 0 {
		return false
	}
	bud.countdown = budgetCheckEvery
	select {
	case <-bud.ctx.Done():
		res.Stats.Truncated = true
		if bud.ctx.Err() == context.DeadlineExceeded {
			res.Stats.TruncatedBy = "deadline"
		} else {
			res.Stats.TruncatedBy = "canceled"
		}
		return true
	default:
		return false
	}
}

// Explore runs the space explorer over every block of p. With an anytime
// budget configured (Ctx, Deadline, or MaxCandidates) it may stop early,
// returning best-so-far candidates with Stats.Truncated set. With
// cfg.Workers > 1 and no budget, blocks are explored concurrently and the
// per-block results merged in block order, which is byte-identical to the
// serial run.
func Explore(p *ir.Program, cfg Config) *Result {
	defer cfg.Telemetry.StartSpan("explore")()
	strat := cfg.strategy()
	res := &Result{Stats: Stats{BySize: make(map[int]int)}}
	bud := newBudget(cfg)
	if bud != nil && bud.cancel != nil {
		defer bud.cancel()
	}
	nonEmpty := 0
	for _, b := range p.Blocks {
		if len(b.Ops) > 0 {
			nonEmpty++
		}
	}
	useCorpus := cfg.corpusUsable()
	sig := ""
	if useCorpus {
		sig = cfg.corpusConfigSig()
	}
	if bud == nil && cfg.Workers > 1 && nonEmpty > 1 {
		exploreBlocksParallel(strat, p.Blocks, cfg, res, sig, useCorpus)
	} else {
		for _, b := range p.Blocks {
			if bud.exhausted(res) {
				break
			}
			exploreBlockMemo(strat, b, cfg, res, bud, sig, useCorpus)
		}
	}
	// Candidate counts before/after guide pruning: every examined subgraph
	// plus every pruned direction is a candidate the naive search would
	// have visited; recorded is what survives the CFU constraints.
	cfg.Telemetry.Add("explore.subgraphs.examined", int64(res.Stats.Examined))
	cfg.Telemetry.Add("explore.directions.pruned", int64(res.Stats.PrunedDirections))
	cfg.Telemetry.Add("explore.candidates.recorded", int64(res.Stats.Recorded))
	cfg.Telemetry.Add("explore.pool.hits", res.Stats.PoolHits)
	cfg.Telemetry.Add("explore.pool.misses", res.Stats.PoolMisses)
	cfg.Telemetry.Add("explore.visited.collisions", res.Stats.VisitedCollisions)
	cfg.Telemetry.Add("explore.corpus.hits", int64(res.Stats.CorpusHits))
	cfg.Telemetry.Add("explore.corpus.misses", int64(res.Stats.CorpusMisses))
	if res.Stats.Truncated {
		cfg.Telemetry.Add("explore.truncated", 1)
	}
	return res
}

// exploreBlocksParallel fans the blocks out over a small worker group: the
// calling goroutine plus up to Workers-1 extras, each extra gated by a
// token from cfg.Spare (when set) so the harness's -j budget is shared, not
// multiplied. Every block gets a private Result; the merge concatenates
// them in block order, making the output independent of scheduling. A
// panicking block re-panics here (lowest block index first, matching the
// serial run) after all workers have drained, for the caller's panic fence
// to convert.
func exploreBlocksParallel(strat Strategy, blocks []*ir.Block, cfg Config, res *Result, sig string, useCorpus bool) {
	n := len(blocks)
	results := make([]*Result, n)
	panics := make([]any, n)
	var panicked atomic.Bool
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panics[i] = r
						panicked.Store(true)
					}
				}()
				r := &Result{Stats: Stats{BySize: make(map[int]int)}}
				exploreBlockMemo(strat, blocks[i], cfg, r, nil, sig, useCorpus)
				results[i] = r
			}()
		}
	}
	extra := cfg.Workers - 1
	if extra > n-1 {
		extra = n - 1
	}
	var wg sync.WaitGroup
	for k := 0; k < extra; k++ {
		release := func() {}
		if cfg.Spare != nil {
			if !cfg.Spare.TryAcquire() {
				break
			}
			release = cfg.Spare.Release
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked.Load() {
		for _, pv := range panics {
			if pv != nil {
				panic(pv)
			}
		}
	}
	for _, r := range results {
		if r == nil {
			continue
		}
		res.Candidates = append(res.Candidates, r.Candidates...)
		res.Stats.Examined += r.Stats.Examined
		res.Stats.PrunedDirections += r.Stats.PrunedDirections
		res.Stats.Recorded += r.Stats.Recorded
		res.Stats.CorpusHits += r.Stats.CorpusHits
		res.Stats.CorpusMisses += r.Stats.CorpusMisses
		res.Stats.PoolHits += r.Stats.PoolHits
		res.Stats.PoolMisses += r.Stats.PoolMisses
		res.Stats.VisitedCollisions += r.Stats.VisitedCollisions
		for s, c := range r.Stats.BySize {
			res.Stats.BySize[s] += c
		}
	}
}

// ExploreBlock runs the configured strategy over a single block.
func ExploreBlock(b *ir.Block, cfg Config) *Result {
	strat := cfg.strategy()
	res := &Result{Stats: Stats{BySize: make(map[int]int)}}
	bud := newBudget(cfg)
	if bud != nil && bud.cancel != nil {
		defer bud.cancel()
	}
	useCorpus := cfg.corpusUsable()
	sig := ""
	if useCorpus {
		sig = cfg.corpusConfigSig()
	}
	exploreBlockMemo(strat, b, cfg, res, bud, sig, useCorpus)
	return res
}

// blockCtx precomputes the per-block structures the hot loop needs:
// dependence masks, value-consumption masks, reachability (for convexity),
// and per-op hardware costs.
type blockCtx struct {
	b *ir.Block
	d *ir.DFG
	n int // op count

	allowed   bitset
	dataPreds [][]int  // data predecessor op indices
	nbrMask   []bitset // data preds | data users, per op
	userMask  []bitset // data users, per op
	succsAll  [][]int  // all dependence successors (for convexity)
	reach     []bitset // forward reachability over all dependence edges
	argVals   []bitset // value-space consumption per op (ops then regs)
	escapes   []bool   // op has a live-out Dest
	area      []float64
	delay     []float64

	scratch []float64 // member depths of the item being priced (loadDepths)
	suffix  []float64 // probe's depths for the grown op and the members after it

	nv int // value-space width (ops then regs); argUnion bitset width

	// free is the work-item freelist. One blockCtx is owned by exactly one
	// goroutine (block parallelism is across blockCtxs), so a plain slice
	// beats sync.Pool: no atomics, and items never migrate between blocks
	// of different widths.
	free                 []*workItem
	poolHits, poolMisses int64
}

func newBlockCtx(b *ir.Block, lib *hwlib.Library) *blockCtx {
	d := ir.Analyze(b)
	n := len(b.Ops)
	c := &blockCtx{
		b: b, d: d, n: n,
		allowed:   newBitset(n),
		dataPreds: make([][]int, n),
		nbrMask:   make([]bitset, n),
		userMask:  make([]bitset, n),
		succsAll:  make([][]int, n),
		reach:     make([]bitset, n),
		argVals:   make([]bitset, n),
		escapes:   make([]bool, n),
		area:      make([]float64, n),
		delay:     make([]float64, n),
		scratch:   make([]float64, n),
		suffix:    make([]float64, n),
	}
	regID := make(map[ir.Reg]int)
	for _, op := range b.Ops {
		for _, a := range op.Args {
			if a.Kind == ir.FromReg {
				if _, ok := regID[a.Reg]; !ok {
					regID[a.Reg] = len(regID)
				}
			}
		}
	}
	nv := n + len(regID)
	c.nv = nv
	for i, op := range b.Ops {
		if lib.Allowed(op.Code) {
			c.allowed.set(i)
		}
		c.area[i] = lib.Area(op.Code)
		c.delay[i] = lib.Delay(op.Code)
		c.escapes[i] = op.Dest != 0
		for _, r := range op.Dests {
			if r != 0 {
				c.escapes[i] = true
			}
		}
		c.dataPreds[i] = d.DataPreds[i]
		c.nbrMask[i] = newBitset(n)
		c.userMask[i] = newBitset(n)
		c.argVals[i] = newBitset(nv)
		for _, p := range d.DataPreds[i] {
			c.nbrMask[i].set(p)
		}
		for _, a := range op.Args {
			switch a.Kind {
			case ir.FromOp:
				c.argVals[i].set(d.Pos[a.X])
			case ir.FromReg:
				c.argVals[i].set(n + regID[a.Reg])
			}
		}
		c.succsAll[i] = d.Succs[i]
	}
	for i := 0; i < n; i++ {
		for _, u := range c.d.Users(i) {
			c.userMask[i].set(u)
			c.nbrMask[u].set(i)
			c.nbrMask[i].set(u)
		}
	}
	// Reachability over all dependence edges, in reverse topological
	// (block) order.
	for i := n - 1; i >= 0; i-- {
		r := newBitset(n)
		for _, s := range c.succsAll[i] {
			r.set(s)
			r.orInto(c.reach[s])
		}
		c.reach[i] = r
	}
	return c
}

// workItem is one candidate subgraph with incrementally maintained state.
// Items are recycled through the blockCtx freelist: every buffer is a
// fixed-width bitset (or a length-reset slice), so alloc/release reuse the
// same backing arrays for the whole block exploration.
type workItem struct {
	set      bitset
	members  []int     // ascending op indices (block order is topological)
	depths   []float64 // internal critical-path depth per member, parallel to members
	argUnion bitset
	nbrUnion bitset
	price
}

// price is what the guide function reads of a subgraph: its summed area,
// internal critical-path latency and register port counts.
type price struct {
	area    float64
	latency float64
	in, out int
}

// alloc returns a work item with buffers sized for this block, recycled
// from the freelist when possible. Buffer contents are undefined; grow and
// seed overwrite every word.
func (c *blockCtx) alloc() *workItem {
	if k := len(c.free); k > 0 {
		w := c.free[k-1]
		c.free = c.free[:k-1]
		c.poolHits++
		return w
	}
	c.poolMisses++
	return &workItem{
		set:      newBitset(c.n),
		argUnion: newBitset(c.nv),
		nbrUnion: newBitset(c.n),
	}
}

// release returns a work item to the freelist. The caller must not use it
// afterwards: recorded candidates and the visited set copy what they keep,
// so nothing retains the buffers.
func (c *blockCtx) release(w *workItem) {
	c.free = append(c.free, w)
}

// loadDepths writes cur's member depths into c.scratch, where probe and
// grow read them. Exploration loads each popped item once and then prices
// and grows all of its directions against the same workspace; neither
// probe nor grow writes it.
func (c *blockCtx) loadDepths(cur *workItem) {
	for k, m := range cur.members {
		c.scratch[m] = cur.depths[k]
	}
}

// probe prices cur extended with op nb (not in cur) without building it.
// It is the one copy of the incremental cost math; grow assembles the item
// around its result. c.scratch must hold cur's depths (loadDepths).
//
//   - area: cur's plus nb's.
//   - latency: nb's data predecessors precede it in block order, so they
//     keep cur's depths and nb's depth costs O(preds). When nb feeds no
//     member, no other depth changes and the latency is the larger of
//     cur's and nb's. Otherwise the members after nb are recomputed in
//     block order into c.suffix, leaving c.scratch intact for the next
//     direction.
//   - in: popcount of (argUnion | nb's args) &^ (set | nb). Register-value
//     bits live above the op bits, so masking with the set only clears op
//     values produced inside the candidate.
//   - out: starts from cur.out; only nb and its in-set data predecessors
//     can change output-ness, because adding nb alters "has a consumer
//     outside the set" for exactly the ops nb consumes.
func (c *blockCtx) probe(cur *workItem, nb int) price {
	p := price{area: cur.area + c.area[nb]}

	nbWord, nbBit := nb>>6, uint64(1)<<(uint(nb)&63)
	av := c.argVals[nb]
	for i, u := range cur.argUnion {
		u |= av[i]
		if i < len(cur.set) {
			s := cur.set[i]
			if i == nbWord {
				s |= nbBit
			}
			u &^= s
		}
		p.in += bits.OnesCount64(u)
	}

	best := 0.0
	for _, q := range c.dataPreds[nb] {
		if cur.set.has(q) && c.scratch[q] > best {
			best = c.scratch[q]
		}
	}
	dnb := best + c.delay[nb]
	c.suffix[nb] = dnb
	if !c.userMask[nb].intersects(cur.set) {
		p.latency = cur.latency
		if dnb > p.latency {
			p.latency = dnb
		}
	} else {
		lat := dnb
		for k, m := range cur.members {
			dm := cur.depths[k]
			if m > nb {
				b := 0.0
				for _, q := range c.dataPreds[m] {
					if q != nb && !cur.set.has(q) {
						continue
					}
					dq := c.suffix[q] // nb and the members after it
					if q < nb {
						dq = c.scratch[q]
					}
					if dq > b {
						b = dq
					}
				}
				dm = b + c.delay[m]
				c.suffix[m] = dm
			}
			if dm > lat {
				lat = dm
			}
		}
		p.latency = lat
	}

	p.out = cur.out
	for _, q := range c.dataPreds[nb] {
		if !cur.set.has(q) || c.escapes[q] {
			continue
		}
		outside := c.userMask[q].andNotCount(cur.set)
		if c.userMask[q].has(nb) {
			outside--
		}
		if outside == 0 {
			p.out--
		}
	}
	if c.escapes[nb] || c.userMask[nb].andNotCount(cur.set) > 0 {
		p.out++
	}
	return p
}

// grow returns cur extended with op nb, priced by probe; c.scratch must
// hold cur's depths (loadDepths). nb is spliced into the ascending member
// list. Block order is topological, so members before nb keep their
// depths; members after it take probe's recomputed depths when nb feeds
// the set, and keep theirs otherwise.
func (c *blockCtx) grow(cur *workItem, nb int) *workItem {
	w := c.alloc()
	w.price = c.probe(cur, nb)
	copy(w.set, cur.set)
	w.set.set(nb)
	copy(w.nbrUnion, cur.nbrUnion)
	w.nbrUnion.orInto(c.nbrMask[nb])
	copy(w.argUnion, cur.argUnion)
	w.argUnion.orInto(c.argVals[nb])

	ins := len(cur.members)
	for k, m := range cur.members {
		if nb < m {
			ins = k
			break
		}
	}
	w.members = append(append(w.members[:0], cur.members[:ins]...), nb)
	w.depths = append(append(w.depths[:0], cur.depths[:ins]...), c.suffix[nb])
	w.members = append(w.members, cur.members[ins:]...)
	if c.userMask[nb].intersects(cur.set) {
		for _, m := range cur.members[ins:] {
			w.depths = append(w.depths, c.suffix[m])
		}
	} else {
		w.depths = append(w.depths, cur.depths[ins:]...)
	}
	return w
}

func (c *blockCtx) seed(i int) *workItem {
	w := c.alloc()
	for k := range w.set {
		w.set[k] = 0
	}
	w.set.set(i)
	copy(w.argUnion, c.argVals[i])
	copy(w.nbrUnion, c.nbrMask[i])
	w.members = append(w.members[:0], i)
	w.depths = append(w.depths[:0], c.delay[i])
	w.area = c.area[i]
	w.latency = c.delay[i]
	w.in, w.out = c.numIO(w)
	return w
}

// longestPath computes the candidate's internal critical-path delay.
// Members are ascending, and block order is topological, so one pass
// suffices.
func (c *blockCtx) longestPath(w *workItem) float64 {
	max := 0.0
	for _, i := range w.members {
		best := 0.0
		for _, p := range c.dataPreds[i] {
			if w.set.has(p) && c.scratch[p] > best {
				best = c.scratch[p]
			}
		}
		c.scratch[i] = best + c.delay[i]
		if c.scratch[i] > max {
			max = c.scratch[i]
		}
	}
	return max
}

// numIO counts register input and output ports.
func (c *blockCtx) numIO(w *workItem) (in, out int) {
	in = w.argUnion.andNotCount(w.set)
	for _, i := range w.members {
		if c.escapes[i] || c.userMask[i].andNotCount(w.set) > 0 {
			out++
		}
	}
	return in, out
}

// convex reports whether no dependence path leaves the set and re-enters.
func (c *blockCtx) convex(w *workItem) bool {
	for _, m := range w.members {
		for _, s := range c.succsAll[m] {
			if !w.set.has(s) && c.reach[s].intersects(w.set) {
				return false
			}
		}
	}
	return true
}

func exploreBlock(b *ir.Block, cfg Config, res *Result, bud *budget) {
	if len(b.Ops) == 0 {
		return
	}
	ctx := newBlockCtx(b, cfg.Lib)
	weights := cfg.Weights.orEven()
	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = weights.total() / 2
	}
	overshoot := cfg.OvershootIO
	if overshoot == 0 {
		overshoot = 2
	}
	maxExamined := cfg.MaxExamined
	if maxExamined == 0 {
		maxExamined = 200000
	}
	uarch := cfg.CostModel == CostUarch
	maxPorts := cfg.MaxInputs + cfg.MaxOutputs

	visited := newVisitedSet((ctx.n + 63) / 64)
	var queue []*workItem
	head := 0
	examined := 0
	defer func() {
		res.Stats.PoolHits += ctx.poolHits
		res.Stats.PoolMisses += ctx.poolMisses
		res.Stats.VisitedCollisions += visited.collisions
	}()

	// admit counts, records and queues a subgraph the visited set has just
	// taken as new.
	admit := func(w *workItem) {
		examined++
		res.Stats.Examined++
		res.Stats.BySize[len(w.members)]++
		recordCandidate(ctx, b, cfg, res, w)
		queue = append(queue, w)
	}

	for i := 0; i < ctx.n && examined < maxExamined; i++ {
		if bud.exhausted(res) {
			return
		}
		if ctx.allowed.has(i) {
			w := ctx.seed(i)
			if visited.insert(w.set, -1) {
				admit(w)
			} else {
				ctx.release(w)
			}
		}
	}

	// Directions are priced before anything is built: the guide function,
	// the threshold and the fanout cap work on (op, score) pairs, the
	// visited set is probed with cur ∪ {op}, and only fresh survivors are
	// grown into work items.
	priced := !cfg.Naive && cfg.CandidatePrune <= 0
	accepted := make([]scored, 0, 64)

	for head < len(queue) && examined < maxExamined {
		if bud.exhausted(res) {
			return
		}
		// FIFO pop: breadth-first keeps candidate sizes monotone, which
		// the Sun-style pruning ablation relies on. The head index (with
		// periodic compaction) releases popped slots without the old
		// queue[1:] reslice pinning the whole backing array.
		cur := queue[head]
		queue[head] = nil
		head++
		if head >= 1024 && head*2 >= len(queue) {
			n := copy(queue, queue[head:])
			queue = queue[:n]
			head = 0
		}

		if cfg.MaxOps > 0 && len(cur.members) >= cfg.MaxOps {
			ctx.release(cur)
			continue
		}
		if cur.in > cfg.MaxInputs+overshoot || cur.out > cfg.MaxOutputs+overshoot {
			ctx.release(cur)
			continue
		}
		if cfg.MaxArea > 0 && cur.area >= cfg.MaxArea {
			ctx.release(cur)
			continue
		}

		accepted = accepted[:0]
		ctx.loadDepths(cur)
		for wi, wd := range cur.nbrUnion {
			if wi < len(cur.set) {
				wd &^= cur.set[wi]
			}
			for wd != 0 {
				nb := wi<<6 + bits.TrailingZeros64(wd)
				wd &= wd - 1
				if !ctx.allowed.has(nb) {
					continue
				}
				if !priced {
					accepted = append(accepted, scored{nb, 0})
					continue
				}
				grown := ctx.probe(cur, nb)
				var s float64
				if uarch {
					s = uarchScore(ctx, cur.price, grown, nb, weights, maxPorts)
				} else {
					s = guideScore(ctx, cur.price, grown, nb, weights)
				}
				if s < threshold {
					res.Stats.PrunedDirections++
					continue
				}
				accepted = append(accepted, scored{nb, s})
			}
		}
		if !cfg.Naive && cfg.Fanout != nil {
			if k := cfg.Fanout(len(cur.members), b.Weight); k > 0 && len(accepted) > k {
				slices.SortFunc(accepted, byScoreDesc)
				res.Stats.PrunedDirections += len(accepted) - k
				accepted = accepted[:k]
			}
		}
		for _, a := range accepted {
			if !visited.insert(cur.set, a.nb) {
				continue
			}
			admit(ctx.grow(cur, a.nb))
			if examined >= maxExamined {
				return
			}
		}
		ctx.release(cur)

		if cfg.CandidatePrune > 0 {
			live := pruneCandidates(ctx, queue[head:], b.Weight, cfg.CandidatePrune)
			queue = queue[:head+len(live)]
		}
	}
}

// scored is one growth direction of a popped item: the op it adds and the
// guide score of adding it.
type scored struct {
	nb    int
	score float64
}

// byScoreDesc orders directions best first for the fanout cap. Equal
// scores stay in the order pdqsort leaves them, and which tied directions
// survive the cap is part of the candidate stream: adding a tie-break
// would change every downstream result.
func byScoreDesc(a, b scored) int {
	switch {
	case a.score > b.score:
		return -1
	case b.score > a.score:
		return 1
	}
	return 0
}

// recordCandidate applies the shared candidate filter — positive cycle
// savings, port and area constraints, convexity — and appends w to res when
// it passes. Every strategy records through this one filter, so the
// candidate contract seen by combination and selection is identical no
// matter how the cut was discovered.
func recordCandidate(ctx *blockCtx, b *ir.Block, cfg Config, res *Result, w *workItem) {
	// Only subgraphs that would save cycles as a CFU are worth handing
	// to the combination stage: the unit issues once and completes in
	// ceil(latency) cycles versus one issue slot per op.
	cycles := int(math.Ceil(w.latency))
	if cycles < 1 {
		cycles = 1
	}
	if len(w.members)-cycles < 1 {
		return
	}
	if w.in > cfg.MaxInputs || w.out > cfg.MaxOutputs {
		return
	}
	if cfg.MaxArea > 0 && w.area > cfg.MaxArea {
		return
	}
	if !ctx.convex(w) {
		return
	}
	res.Candidates = append(res.Candidates, Candidate{
		Block: b, DFG: ctx.d, Ops: slices.Clone(w.members),
		Area: w.area, Latency: w.latency,
		Inputs: w.in, Outputs: w.out,
	})
	res.Stats.Recorded++
}

// guideScore ranks the desirability of growing a candidate priced cur
// into one priced grown by adding node nb. With uarch set
// (Config.CostModel == CostUarch) the area and latency categories price
// microarchitectural fit instead of die area: see uarchScore.
func guideScore(ctx *blockCtx, cur, grown price, nb int, w GuideWeights) float64 {
	// Criticality: 10/(slack+1); nodes on the critical path score full.
	crit := w.Criticality / float64(ctx.d.Slack[nb]+1)

	// Latency: old/new * 10, preferring directions that add little delay.
	// A zero-delay direction scores full points (paper: growing toward a
	// free shifter yields 0.15/(0.15+0)*10 = 10).
	var lat float64
	switch {
	case grown.latency <= cur.latency+1e-9:
		lat = w.Latency
	default:
		lat = cur.latency / grown.latency * w.Latency
	}

	// Area: old/new * 10, with both rounded up to the nearest half adder
	// so tiny seeds are not penalized unfairly.
	area := hwlib.RoundHalf(cur.area) / hwlib.RoundHalf(grown.area) * w.Area

	// I/O: MIN(oldPorts/newPorts*10, 10); reconvergence can reduce ports.
	oldPorts, newPorts := cur.in+cur.out, grown.in+grown.out
	io := w.IO
	if newPorts > 0 {
		io = math.Min(float64(oldPorts)/float64(newPorts)*w.IO, w.IO)
	}

	return crit + lat + area + io
}

// uarchScore is the microarchitecture-aware guide scoring (CostUarch): the
// same four categories and point budget as guideScore, but the latency and
// area categories price pipeline fit instead of raw delay and die area.
// Latency awards full points while growth stays inside the current number
// of whole-cycle pipeline stages (extra combinational delay is free until
// it costs a stage), and the area points become a register-port-fit score:
// full while the grown candidate's total ports fit the machine's port
// budget, shrinking proportionally as the demand overshoots it.
func uarchScore(ctx *blockCtx, cur, grown price, nb int, w GuideWeights, maxPorts int) float64 {
	crit := w.Criticality / float64(ctx.d.Slack[nb]+1)

	oldStages := math.Max(1, math.Ceil(cur.latency))
	newStages := math.Max(1, math.Ceil(grown.latency))
	lat := w.Latency
	if newStages > oldStages {
		lat = oldStages / newStages * w.Latency
	}

	fit := w.Area
	if ports := grown.in + grown.out; ports > maxPorts && ports > 0 {
		fit = float64(maxPorts) / float64(ports) * w.Area
	}

	oldPorts, newPorts := cur.in+cur.out, grown.in+grown.out
	io := w.IO
	if newPorts > 0 {
		io = math.Min(float64(oldPorts)/float64(newPorts)*w.IO, w.IO)
	}

	return crit + lat + fit + io
}

// pruneCandidates implements the Sun-style ablation: drop queued candidates
// whose merit is below frac of the best queued merit. Merit is the profile
// weight times the estimated cycles saved were the candidate a CFU. It
// compacts the live queue region in place, releasing dropped items.
func pruneCandidates(c *blockCtx, queue []*workItem, blockWeight, frac float64) []*workItem {
	if len(queue) < 2 {
		return queue
	}
	best := 0.0
	merits := make([]float64, len(queue))
	for i, w := range queue {
		saved := float64(len(w.members)) - math.Max(1, math.Ceil(w.latency))
		if saved < 0 {
			saved = 0
		}
		merits[i] = blockWeight * saved
		if merits[i] > best {
			best = merits[i]
		}
	}
	out := queue[:0]
	for i, w := range queue {
		if merits[i] >= best*frac {
			out = append(out, w)
		} else {
			c.release(w)
		}
	}
	return out
}
