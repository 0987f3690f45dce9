// ISEGEN-style iterative improvement (StrategyImprove): instead of
// enumerating the subgraph space breadth-first, maintain one working cut of
// the block's DFG and mutate it with Kernighan–Lin-flavored toggle moves —
// add a frontier op or remove a leaf member, steepest gain first — locking
// each toggled op for the rest of the pass (tabu) and backtracking to the
// best cut the pass saw. A handful of restarts from criticality-ranked
// seeds covers different regions of the block. The engine visits a tiny,
// bounded number of cuts per block, which is why it scales on large
// unrolled DFGs where enumeration explodes; every cut it applies flows
// through the same recordCandidate filter as the enumerative grower, so
// downstream stages cannot tell the strategies apart.
package explore

import (
	"math"
	"sort"

	"repro/internal/ir"
)

// Tuning knobs of the improve engine. They bound the work per block:
// restarts × passes × moves cuts applied, each move evaluating at most
// improveAddCap + improveRemoveCap toggles.
const (
	// improveRestarts is the minimum number of criticality-ranked seeds each
	// block's search restarts from; large blocks get proportionally more
	// (see improveEffort), still a vanishing fraction of enumeration's work.
	improveRestarts = 6
	// improveMaxRestarts caps the block-size scaling of restarts.
	improveMaxRestarts = 256
	// improveMaxPasses caps the Kernighan–Lin passes per restart; a pass
	// that fails to improve the best cut ends the restart early.
	improveMaxPasses = 6
	// improveMovesPerPass is the toggle-move budget of one pass.
	improveMovesPerPass = 24
	// improveAddCap / improveRemoveCap bound the candidate toggles evaluated
	// per move: the most critical frontier ops and the least critical leaf
	// members, by static slack rank.
	improveAddCap    = 32
	improveRemoveCap = 16
)

// improveEffort scales the restart count with the number of CFU-eligible
// ops: one restart per two eligible ops, at least improveRestarts, at most
// improveMaxRestarts. A huge unrolled block earns more seeds — it has more
// distinct regions worth a local search, and each region's occurrences feed
// the combiner's value estimates — while total work stays linear in block
// size instead of enumeration's exponential.
func improveEffort(eligible int) int {
	r := eligible / 2
	if r < improveRestarts {
		r = improveRestarts
	}
	if r > improveMaxRestarts {
		r = improveMaxRestarts
	}
	return r
}

// cloneItem returns a pooled copy of cur.
func (c *blockCtx) cloneItem(cur *workItem) *workItem {
	w := c.alloc()
	copy(w.set, cur.set)
	copy(w.argUnion, cur.argUnion)
	copy(w.nbrUnion, cur.nbrUnion)
	w.members = append(w.members[:0], cur.members...)
	w.depths = append(w.depths[:0], cur.depths...)
	w.price = cur.price
	return w
}

// shrink returns cur with member rm removed. Removal invalidates every
// union-maintained field, so the derived state is rebuilt from the member
// list; removals are the rarer move, which keeps the rebuild off the
// engine's critical path.
func (c *blockCtx) shrink(cur *workItem, rm int) *workItem {
	w := c.alloc()
	w.members = w.members[:0]
	for _, m := range cur.members {
		if m != rm {
			w.members = append(w.members, m)
		}
	}
	c.rebuild(w)
	return w
}

// rebuild fills w's derived state (set, unions, area, depths, latency,
// ports) from the ascending member list already in w.members.
func (c *blockCtx) rebuild(w *workItem) {
	w.set.zero()
	w.argUnion.zero()
	w.nbrUnion.zero()
	w.area = 0
	for _, m := range w.members {
		w.set.set(m)
		w.argUnion.orInto(c.argVals[m])
		w.nbrUnion.orInto(c.nbrMask[m])
		w.area += c.area[m]
	}
	w.depths = w.depths[:0]
	lat := 0.0
	for _, m := range w.members { // ascending member order is topological
		best := 0.0
		for _, p := range c.dataPreds[m] {
			if w.set.has(p) && c.scratch[p] > best {
				best = c.scratch[p]
			}
		}
		d := best + c.delay[m]
		c.scratch[m] = d
		w.depths = append(w.depths, d)
		if d > lat {
			lat = d
		}
	}
	w.latency = lat
	w.in, w.out = c.numIO(w)
}

// merit is the improve engine's objective for one cut. Both cost models
// start from the profile-weighted cycle savings the cut would deliver as a
// CFU (members minus pipeline stages — the same quantity the selection
// stage values). CostArea subtracts soft penalties for port and area
// overshoot so downhill intermediates stay ranked but the search is pulled
// back toward feasibility; CostUarch instead prices microarchitectural fit,
// scaling savings by register-port fit and normalizing per pipeline stage,
// so a shallow cut that drops cleanly into the pipeline beats a deep one
// with the same raw savings.
func (c *blockCtx) merit(w *workItem, cfg Config, uarch bool) float64 {
	stages := math.Ceil(w.latency)
	if stages < 1 {
		stages = 1
	}
	saved := float64(len(w.members)) - stages
	weight := c.b.Weight
	if uarch {
		fit := 1.0
		if w.in > cfg.MaxInputs {
			fit *= float64(cfg.MaxInputs) / float64(w.in)
		}
		if w.out > cfg.MaxOutputs {
			fit *= float64(cfg.MaxOutputs) / float64(w.out)
		}
		return weight * saved * fit / stages
	}
	m := weight * saved
	if over := (w.in - cfg.MaxInputs) + (w.out - cfg.MaxOutputs); over > 0 {
		if w.in <= cfg.MaxInputs {
			over = w.out - cfg.MaxOutputs
		} else if w.out <= cfg.MaxOutputs {
			over = w.in - cfg.MaxInputs
		}
		m -= weight * float64(over)
	}
	if cfg.MaxArea > 0 && w.area > cfg.MaxArea {
		m -= weight * (w.area - cfg.MaxArea)
	}
	return m
}

// improveSeeds picks the restart seeds: CFU-eligible ops ranked by
// criticality (slack ascending, block index ascending), then strided across
// the rank order so restarts land in different regions of the block.
// cfg.Seed rotates the stride origin; the schedule is deterministic for any
// fixed seed.
func improveSeeds(c *blockCtx, cfg Config) []int {
	var ranked []int
	for i := 0; i < c.n; i++ {
		if c.allowed.has(i) {
			ranked = append(ranked, i)
		}
	}
	if len(ranked) == 0 {
		return nil
	}
	sort.Slice(ranked, func(a, b int) bool {
		sa, sb := c.d.Slack[ranked[a]], c.d.Slack[ranked[b]]
		if sa != sb {
			return sa < sb
		}
		return ranked[a] < ranked[b]
	})
	r := improveEffort(len(ranked))
	if len(ranked) < r {
		r = len(ranked)
	}
	offset := int(cfg.Seed % int64(len(ranked)))
	if offset < 0 {
		offset += len(ranked)
	}
	seeds := make([]int, 0, r)
	for i := 0; i < r; i++ {
		seeds = append(seeds, ranked[(offset+i*len(ranked)/r)%len(ranked)])
	}
	return seeds
}

// chainWalk grows a pure dependence chain downstream from seed s: each step
// adds the most critical not-yet-included data *successor* of the last op
// added (ops are topologically indexed, so a higher-indexed neighbor is a
// consumer), visiting every prefix cut along the way. The KL walk's
// steepest-gain moves treat every stage-neutral direction as equal and so
// tend to absorb side subgraphs before finishing a chain; this sweep
// guarantees the pure chain shapes — the rotl-add-add-add-add pattern that
// dominates sha, and selection's favorite shape class generally — are in
// the candidate pool from every seed that lies on one. The best cut seen
// (by merit, across the trajectory and every side extension) is returned as
// a pooled clone the caller owns; it seeds the subsequent KL passes so
// refinement starts from the chain instead of rediscovering it move by
// move.
func chainWalk(c *blockCtx, cfg Config, s, overshoot int, uarch bool, visit func(*workItem)) *workItem {
	var best *workItem
	bestJ := math.Inf(-1)
	see := func(w *workItem) {
		visit(w)
		if j := c.merit(w, cfg, uarch); j > bestJ {
			if best != nil {
				c.release(best)
			}
			best, bestJ = c.cloneItem(w), j
		}
	}
	cur := c.seed(s)
	see(cur)
	last := s
	for cfg.MaxOps <= 0 || len(cur.members) < cfg.MaxOps {
		// Visit every one-op extension of the cut — sideways absorptions
		// (an operand producer feeding the chain, e.g. the second add tree
		// of a reassociated sum) are as valuable as downstream growth —
		// then continue along the most critical data successor of last.
		var next, side *workItem
		nextOp, sideOp, bestSlack, sideStages := -1, -1, 0, 0
		c.loadDepths(cur)
		frontier := cur.nbrUnion
		frontier.forEach(cur.set, func(nb int) {
			if !c.allowed.has(nb) {
				return
			}
			w := c.grow(cur, nb)
			if w.in > cfg.MaxInputs+overshoot || w.out > cfg.MaxOutputs+overshoot {
				c.release(w)
				return
			}
			see(w)
			if nb > last && c.nbrMask[last].has(nb) {
				if nextOp < 0 || c.d.Slack[nb] < bestSlack {
					if next != nil {
						c.release(next)
					}
					next, nextOp, bestSlack = w, nb, c.d.Slack[nb]
					return
				}
			} else if st := int(math.Ceil(w.latency)); sideOp < 0 || st < sideStages {
				// Best sideways absorption: the op that least deepens the
				// pipeline, a fallback when the chain has no successor.
				if side != nil {
					c.release(side)
				}
				side, sideOp, sideStages = w, nb, st
				return
			}
			c.release(w)
		})
		if next == nil && side != nil {
			next, nextOp = side, sideOp
			side = nil
		}
		if side != nil {
			c.release(side)
		}
		if next == nil {
			break
		}
		c.release(cur)
		cur = next
		last = nextOp
	}
	c.release(cur)
	return best
}

// toggleMove is one candidate toggle under evaluation.
type toggleMove struct {
	op   int // the op being toggled
	rank int // static slack, for capping which toggles get evaluated
}

// bestMove evaluates the steepest-gain toggle from cur: adding one eligible
// frontier op or removing one leaf member (a member with exactly one
// neighbor inside the cut, so connectivity is preserved), skipping
// tabu-locked ops. Candidate adds are capped to the improveAddCap most
// critical frontier ops and removals to the improveRemoveCap least critical
// leaves, keeping each move a bounded number of evaluations on arbitrarily
// large blocks. Ports may overshoot the limits by cfg.OvershootIO while
// searching (reconvergence can bring them back down), matching the
// enumerative corridor. Every evaluated cut — not just the winner — is
// offered to visit before the losers are released: the toggle states were
// fully computed anyway, and the rejected neighbors of a good trajectory
// are where most of the engine's candidate yield comes from. Returns
// ok=false when no legal toggle exists.
func (c *blockCtx) bestMove(cur *workItem, cfg Config, tabu bitset, uarch bool, overshoot int, last int, visit func(*workItem)) (best *workItem, toggled int, ok bool) {
	adds := make([]toggleMove, 0, improveAddCap)
	if cfg.MaxOps <= 0 || len(cur.members) < cfg.MaxOps {
		cur.nbrUnion.forEach(cur.set, func(nb int) {
			if c.allowed.has(nb) && !tabu.has(nb) {
				adds = append(adds, toggleMove{nb, c.d.Slack[nb]})
			}
		})
		if len(adds) > improveAddCap {
			sort.Slice(adds, func(a, b int) bool {
				if adds[a].rank != adds[b].rank {
					return adds[a].rank < adds[b].rank
				}
				return adds[a].op < adds[b].op
			})
			adds = adds[:improveAddCap]
		}
	}
	var removes []toggleMove
	if len(cur.members) > 1 {
		removes = make([]toggleMove, 0, improveRemoveCap)
		for _, m := range cur.members {
			if !tabu.has(m) && c.nbrMask[m].andCount(cur.set) == 1 {
				removes = append(removes, toggleMove{m, c.d.Slack[m]})
			}
		}
		if len(removes) > improveRemoveCap {
			sort.Slice(removes, func(a, b int) bool {
				if removes[a].rank != removes[b].rank {
					return removes[a].rank > removes[b].rank
				}
				return removes[a].op < removes[b].op
			})
			removes = removes[:improveRemoveCap]
		}
	}

	bestJ := math.Inf(-1)
	bestSlack, bestChain := 0, false
	consider := func(w *workItem, op int) {
		if w.in > cfg.MaxInputs+overshoot || w.out > cfg.MaxOutputs+overshoot {
			c.release(w)
			return
		}
		visit(w)
		// Steepest gain, with merit ties broken toward dataflow neighbors
		// of the previous toggle and then toward the most critical op:
		// equal-gain growth directions are common (any op that keeps the
		// stage count flat gains one member), and the two tie-breaks keep
		// the cut marching along dependence chains — the shapes selection
		// prizes — instead of drifting by op order.
		j := c.merit(w, cfg, uarch)
		chain := last >= 0 && c.nbrMask[last].has(op)
		better := j > bestJ+1e-12
		if !better && j > bestJ-1e-12 {
			s := c.d.Slack[op]
			better = (chain && !bestChain) || (chain == bestChain && s < bestSlack)
		}
		if better {
			if best != nil {
				c.release(best)
			}
			best, toggled, bestJ, bestSlack, bestChain = w, op, j, c.d.Slack[op], chain
			return
		}
		c.release(w)
	}
	// Adds in ascending (op index) order, then removes: the evaluation
	// order plus strict improvement makes ties deterministic.
	sort.Slice(adds, func(a, b int) bool { return adds[a].op < adds[b].op })
	c.loadDepths(cur)
	for _, mv := range adds {
		consider(c.grow(cur, mv.op), mv.op)
	}
	for _, mv := range removes {
		consider(c.shrink(cur, mv.op), mv.op)
	}
	return best, toggled, best != nil
}

// improveBlock runs the iterative-improvement search over one block. Every
// applied cut (including each restart's seed) is registered exactly once in
// the visited set, counted in Examined/BySize, and offered to the shared
// recording filter — so Stats compare like-for-like with enumeration, just
// over a far smaller visit count. The anytime budget is polled every move,
// and the MaxExamined safety valve bounds the block as it does for
// enumeration.
func improveBlock(b *ir.Block, cfg Config, res *Result, bud *budget) {
	if len(b.Ops) == 0 {
		return
	}
	ctx := newBlockCtx(b, cfg.Lib)
	maxExamined := cfg.MaxExamined
	if maxExamined == 0 {
		maxExamined = 200000
	}
	overshoot := cfg.OvershootIO
	if overshoot == 0 {
		overshoot = 2
	}
	uarch := cfg.CostModel == CostUarch

	visited := newVisitedSet((ctx.n + 63) / 64)
	examined := 0
	defer func() {
		res.Stats.PoolHits += ctx.poolHits
		res.Stats.PoolMisses += ctx.poolMisses
		res.Stats.VisitedCollisions += visited.collisions
	}()

	visit := func(w *workItem) {
		if !visited.insert(w.set, -1) {
			return
		}
		examined++
		res.Stats.Examined++
		res.Stats.BySize[len(w.members)]++
		recordCandidate(ctx, b, cfg, res, w)
	}

	// Phase 1: a chain sweep from every eligible op. Walks are cheap (linear
	// in chain length times frontier width) and occurrence coverage is what
	// the combiner's value estimates — and therefore selection — live on: a
	// shape found at half its sites loses the greedy claiming race to its
	// own sub-shapes. KL refinement below is the bounded, expensive part and
	// stays on the strided seed subset.
	seeds := improveSeeds(ctx, cfg)
	isSeed := newBitset(ctx.n)
	for _, s := range seeds {
		isSeed.set(s)
	}
	for i := 0; i < ctx.n; i++ {
		if !ctx.allowed.has(i) || isSeed.has(i) {
			continue
		}
		if bud.exhausted(res) || examined >= maxExamined {
			return
		}
		if w := chainWalk(ctx, cfg, i, overshoot, uarch, visit); w != nil {
			ctx.release(w)
		}
	}

	tabu := newBitset(ctx.n)
	for _, s := range seeds {
		if bud.exhausted(res) || examined >= maxExamined {
			return
		}
		cur := chainWalk(ctx, cfg, s, overshoot, uarch, visit)
		if bud.exhausted(res) || examined >= maxExamined {
			if cur != nil {
				ctx.release(cur)
			}
			return
		}
		if cur == nil {
			cur = ctx.seed(s)
		}
		for pass := 0; pass < improveMaxPasses; pass++ {
			startJ := ctx.merit(cur, cfg, uarch)
			passBest := ctx.cloneItem(cur)
			passBestJ := startJ
			tabu.zero()
			tabu.set(s) // the seed anchors its restart
			last := s
			for move := 0; move < improveMovesPerPass; move++ {
				if bud.exhausted(res) || examined >= maxExamined {
					ctx.release(cur)
					ctx.release(passBest)
					return
				}
				next, op, ok := ctx.bestMove(cur, cfg, tabu, uarch, overshoot, last, visit)
				if !ok {
					break
				}
				ctx.release(cur)
				cur = next
				last = op
				tabu.set(op)
				visit(cur)
				if j := ctx.merit(cur, cfg, uarch); j > passBestJ+1e-9 {
					ctx.release(passBest)
					passBest = ctx.cloneItem(cur)
					passBestJ = j
				}
			}
			// Backtrack to the best cut this pass saw; a pass that found
			// nothing better than its starting point ends the restart.
			ctx.release(cur)
			cur = passBest
			if passBestJ <= startJ+1e-9 {
				break
			}
		}
		ctx.release(cur)
	}
}
