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
		Fanout:      4,
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
	// Weights scales each guide category (criticality, latency, area, IO).
	// Zero value means the paper's even 10/10/10/10 split. A direction
	// needs half the total points to be explored.
	Weights GuideWeights
	// Fanout caps how many of a candidate's best-scoring growth directions
	// are taken (0 = unlimited).
	Fanout int
	// Corpus, when non-nil, memoizes completed per-block exploration
	// results keyed by block structure and configuration. Warm hits replay
	// the memoized candidates byte-identically to a cold search; only
	// wall-clock time and the examined/pruned effort counters change. It
	// is bypassed (cold path) under a MaxCandidates budget; see
	// corpusUsable.
	Corpus *corpus.Corpus
	// OvershootIO lets candidates exceed the port limits by this much
	// while growing (reconvergence can bring ports back down); such
	// intermediates are explored but never recorded. Default 2.
	OvershootIO int
	// MaxExamined aborts a block's exploration after this many distinct
	// subgraphs (0 = 200000); a safety valve for naive mode.
	MaxExamined int
	// Telemetry, when non-nil, receives the exploration span and the
	// examined/pruned/recorded counters.
	Telemetry *telemetry.Registry
	// Workers bounds the goroutines one Explore call runs, the caller's
	// included (0 or 1 = serial); each explores whole blocks. Per-block
	// results are merged in block order, so the output is byte-identical
	// at every setting. Anytime budgets (Ctx/Deadline/MaxCandidates) force
	// a serial run: cross-block truncation points stay deterministic that
	// way.
	Workers int

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

// resolve returns cfg with its zero-valued defaults made explicit: even
// guide weights, an overshoot of 2 and a MaxExamined of 200000. Explore
// resolves once; both engines and the corpus key read the result, so the
// key always hashes the values the search ran with.
func (cfg Config) resolve() Config {
	if cfg.Weights.total() == 0 {
		cfg.Weights = EvenWeights()
	}
	if cfg.OvershootIO == 0 {
		cfg.OvershootIO = 2
	}
	if cfg.MaxExamined == 0 {
		cfg.MaxExamined = 200000
	}
	return cfg
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
	// Entry, when not nil, is the corpus entry the candidate was replayed
	// from or memoized into, and EntryIndex its position among the entry's
	// candidates. Combination reads the candidate's shape from the entry's
	// shape index (corpus.Entry.Shapes) rather than lifting it again.
	Entry      *corpus.Entry
	EntryIndex int
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
	cfg = cfg.resolve()
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

// exploreBlocksParallel fans the blocks out over the calling goroutine and
// up to Workers-1 more, at most one per further block. Every block gets a
// private Result; the merge concatenates them in block order, making the
// output independent of scheduling. A panicking block re-panics here
// (lowest block index first, matching the serial run) after all workers
// have drained, for the caller's panic fence to convert.
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
	var wg sync.WaitGroup
	for k := min(cfg.Workers, n) - 1; k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
	total := 0
	for _, r := range results {
		if r != nil {
			total += len(r.Candidates)
		}
	}
	res.Candidates = slices.Grow(res.Candidates, total)
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
	// users and args list the bits of userMask and argVals per op: probe
	// visits a few list entries where a bitset operation would sweep every
	// word of the block.
	users, args [][]int
	escapes     []bool // op has a live-out Dest
	area        []float64
	delay       []float64

	scratch []float64 // member depths of the item being priced (loadDepths)
	suffix  []float64 // probe's depths for the grown op and the members after it
	tails   []float64 // depths kept from probe for directions still to build (keepTail)
	// dirs holds, per op, what exploreBlock learned of the direction that
	// adds the op to the item it is expanding.
	dirs []direction

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
		dirs:      make([]direction, n),
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
				j, _ := d.Pos.Lookup(a.X)
				c.argVals[i].set(j)
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
	c.users = maskLists(c.userMask)
	c.args = maskLists(c.argVals)
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

// maskLists returns the set bits of each mask as a list, every list
// carved from one backing array.
func maskLists(masks []bitset) [][]int {
	total := 0
	for _, m := range masks {
		total += m.count()
	}
	buf := make([]int, 0, total)
	out := make([][]int, len(masks))
	for i, m := range masks {
		lo := len(buf)
		m.forEach(nil, func(b int) { buf = append(buf, b) })
		out[i] = buf[lo:len(buf):len(buf)]
	}
	return out
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
	// One backing array for the three bitsets: set and nbrUnion are n bits
	// wide, argUnion nv.
	nw := (c.n + 63) / 64
	buf := make(bitset, 2*nw+(c.nv+63)/64)
	return &workItem{
		set:      buf[:nw:nw],
		nbrUnion: buf[nw : 2*nw : 2*nw],
		argUnion: buf[2*nw:],
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
//   - in: popcount of (argUnion | nb's args) &^ (set | nb), which is
//     cur.in (argUnion &^ set), less nb's own value when a member
//     consumes it, plus nb's args that are neither in argUnion nor
//     produced inside the set. Register-value bits live above the op
//     bits, so the set only covers op values produced inside the
//     candidate.
//   - out: starts from cur.out; only nb and its in-set data predecessors
//     can change output-ness, because adding nb alters "has a consumer
//     outside the set" for exactly the ops nb consumes.
func (c *blockCtx) probe(cur *workItem, nb int) price {
	p := price{area: cur.area + c.area[nb], in: cur.in}
	if cur.argUnion.has(nb) {
		p.in--
	}
	for _, v := range c.args[nb] {
		if !cur.argUnion.has(v) && (v >= c.n || !cur.set.has(v)) {
			p.in++
		}
	}

	best := 0.0
	for _, q := range c.dataPreds[nb] {
		if cur.set.has(q) && c.scratch[q] > best {
			best = c.scratch[q]
		}
	}
	dnb := best + c.delay[nb]
	c.suffix[nb] = dnb
	if !c.feeds(nb, cur.set) {
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
		if !c.usedOutside(q, cur.set, nb) {
			p.out--
		}
	}
	if c.escapes[nb] || c.usedOutside(nb, cur.set, -1) {
		p.out++
	}
	return p
}

// feeds reports whether op nb has a data user in set.
func (c *blockCtx) feeds(nb int, set bitset) bool {
	for _, u := range c.users[nb] {
		if set.has(u) {
			return true
		}
	}
	return false
}

// usedOutside reports whether op q has a data user outside set other than
// op except.
func (c *blockCtx) usedOutside(q int, set bitset, except int) bool {
	for _, u := range c.users[q] {
		if u != except && !set.has(u) {
			return true
		}
	}
	return false
}

// keepTail appends to c.tails the depths probe just left for nb and, when
// nb feeds the set, for the members after it, and returns their bounds: the
// tail extend takes, so that a direction priced while scoring is not
// probed again when it is built.
func (c *blockCtx) keepTail(cur *workItem, nb int) (lo, hi int) {
	lo = len(c.tails)
	c.tails = append(c.tails, c.suffix[nb])
	if c.feeds(nb, cur.set) {
		for _, m := range cur.members[c.insertAt(cur, nb):] {
			c.tails = append(c.tails, c.suffix[m])
		}
	}
	return lo, len(c.tails)
}

// insertAt returns the position of op nb in cur's ascending member list.
func (c *blockCtx) insertAt(cur *workItem, nb int) int {
	for k, m := range cur.members {
		if nb < m {
			return k
		}
	}
	return len(cur.members)
}

// grow returns cur extended with op nb, priced by probe; c.scratch must
// hold cur's depths (loadDepths).
func (c *blockCtx) grow(cur *workItem, nb int) *workItem {
	p := c.probe(cur, nb)
	lo, hi := c.keepTail(cur, nb)
	w := c.extend(cur, nb, p, c.tails[lo:hi])
	c.tails = c.tails[:lo]
	return w
}

// extend returns cur extended with op nb, priced p, with tail as keepTail
// kept it. nb is spliced into the ascending member list. Block order is
// topological, so members before nb keep their depths; tail[0] is nb's,
// and tail[1:] the members' after it when nb feeds the set, which leaves
// tail one long exactly when they keep theirs.
func (c *blockCtx) extend(cur *workItem, nb int, p price, tail []float64) *workItem {
	w := c.alloc()
	w.price = p
	copy(w.set, cur.set)
	w.set.set(nb)
	copy(w.nbrUnion, cur.nbrUnion)
	w.nbrUnion.orInto(c.nbrMask[nb])
	copy(w.argUnion, cur.argUnion)
	w.argUnion.orInto(c.argVals[nb])

	ins := c.insertAt(cur, nb)
	if m := len(cur.members) + 1; cap(w.members) < m || cap(w.depths) < m {
		// Breadth-first order hands recycled items ever larger subgraphs:
		// leave room for several more sizes rather than regrowing at each.
		w.members = make([]int, 0, 2*m)
		w.depths = make([]float64, 0, 2*m)
	}
	w.members = append(append(w.members[:0], cur.members[:ins]...), nb)
	w.members = append(w.members, cur.members[ins:]...)
	w.depths = append(append(w.depths[:0], cur.depths[:ins]...), tail...)
	if len(tail) == 1 {
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
	weights := cfg.Weights
	threshold := weights.total() / 2
	maxExamined := cfg.MaxExamined
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

	// A subgraph whose ports exceed the overshoot is dead: it is never
	// expanded. It is still counted, and recorded if the port filter takes
	// it (only a negative overshoot allows that), but it queues as a nil
	// sentinel, so the pop that would have dropped it still polls the
	// budget. A grown one the filter must refuse is never even built.
	dead := func(p price) bool {
		return p.in > cfg.MaxInputs+cfg.OvershootIO || p.out > cfg.MaxOutputs+cfg.OvershootIO
	}
	// count tallies a subgraph the visited set has just taken as new.
	count := func(size int) {
		examined++
		res.Stats.Examined++
		res.Stats.BySize[size]++
	}
	// keep records and queues a subgraph just counted.
	keep := func(w *workItem) {
		recordCandidate(ctx, b, cfg, res, w)
		if dead(w.price) {
			ctx.release(w)
			w = nil
		}
		queue = append(queue, w)
	}

	for i := 0; i < ctx.n && examined < maxExamined; i++ {
		if bud.exhausted(res) {
			return
		}
		if ctx.allowed.has(i) {
			w := ctx.seed(i)
			if visited.insert(w.set, -1, w.price) {
				count(1)
				keep(w)
			} else {
				ctx.release(w)
			}
		}
	}

	// Directions are priced before anything is built: the guide function,
	// the threshold and the fanout cap work on (op, score) pairs, and only
	// fresh survivors are grown into work items, from the price and depths
	// their scoring computed. A direction whose grown set is already
	// visited reads its latency and ports from the visited entry instead.
	priced := !cfg.Naive
	accepted := make([]scored, 0, 64)

	for head < len(queue) && examined < maxExamined {
		if bud.exhausted(res) {
			return
		}
		// FIFO pop: breadth-first growth visits subgraphs in size order, so
		// the MaxExamined valve cuts the search at a size frontier (what
		// Figure 3 compares) and the visit order is part of the candidate
		// stream. The head index (with periodic compaction) releases popped
		// slots without a queue[1:] reslice pinning the whole backing array.
		cur := queue[head]
		queue[head] = nil
		head++
		if head >= 1024 && head*2 >= len(queue) {
			n := copy(queue, queue[head:])
			queue = queue[:n]
			head = 0
		}
		if cur == nil {
			continue
		}

		accepted = accepted[:0]
		ctx.tails = ctx.tails[:0]
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
				d := &ctx.dirs[nb]
				idx, h := visited.find(cur.set, nb)
				d.seen, d.h = idx >= 0, h
				if !priced {
					accepted = append(accepted, scored{nb, 0})
					continue
				}
				if d.seen {
					d.price = visited.price(idx)
					d.area = cur.area + ctx.area[nb]
				} else {
					d.price = ctx.probe(cur, nb)
				}
				var s float64
				if uarch {
					s = uarchScore(ctx, cur.price, d.price, nb, weights, maxPorts)
				} else {
					s = guideScore(ctx, cur.price, d.price, nb, weights)
				}
				if s < threshold {
					res.Stats.PrunedDirections++
					continue
				}
				if !d.seen {
					d.lo, d.hi = ctx.keepTail(cur, nb)
				}
				accepted = append(accepted, scored{nb, s})
			}
		}
		if k := cfg.Fanout; priced && k > 0 && len(accepted) > k {
			slices.SortFunc(accepted, byScoreDesc)
			res.Stats.PrunedDirections += len(accepted) - k
			accepted = accepted[:k]
		}
		for _, a := range accepted {
			d := &ctx.dirs[a.nb]
			if d.seen {
				continue
			}
			if !priced {
				d.price = ctx.probe(cur, a.nb)
				d.lo, d.hi = ctx.keepTail(cur, a.nb)
			}
			visited.add(d.h, cur.set, a.nb, d.price)
			count(len(cur.members) + 1)
			if dead(d.price) && (d.in > cfg.MaxInputs || d.out > cfg.MaxOutputs) {
				queue = append(queue, nil)
			} else {
				keep(ctx.extend(cur, a.nb, d.price, ctx.tails[d.lo:d.hi]))
			}
			if examined >= maxExamined {
				return
			}
		}
		ctx.release(cur)
	}
}

// direction is what exploreBlock learns of growing the popped item by one
// op while scoring it: the grown price, the grown set's visited-set hash
// and whether it is already visited, and the bounds in blockCtx.tails of
// the depths keepTail kept for building it.
type direction struct {
	price
	h      uint64
	seen   bool
	lo, hi int
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
// savings, port constraints, convexity — and appends w to res when
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
