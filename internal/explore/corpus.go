package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/corpus"
	"repro/internal/ir"
)

// corpusUsable reports whether memoizing this run through cfg.Corpus is
// sound and keyable. Two bypasses guard the warm-equals-cold contract: a
// MaxCandidates budget (its cold-path truncation point inside a growth
// wave cannot be reproduced from a per-block memo), and a custom Fanout
// policy with no FanoutDesc (funcs cannot be hashed into the key, so an
// undescribed policy must not alias entries from a different one).
func (cfg Config) corpusUsable() bool {
	if cfg.Corpus == nil {
		return false
	}
	if cfg.MaxCandidates > 0 {
		return false
	}
	if cfg.Fanout != nil && cfg.FanoutDesc == "" {
		return false
	}
	return true
}

// corpusConfigSig hashes every configuration knob that can change a
// block's candidate list. Knobs are hashed in their resolved form (the
// same defaults the block engine applies), so spelling a default
// explicitly shares entries with leaving it zero. Budgets, worker counts,
// and telemetry are excluded: they change wall-clock behavior, never the
// completed candidate list.
func (cfg Config) corpusConfigSig() string {
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
	fanout := "nil"
	if cfg.Fanout != nil {
		fanout = cfg.FanoutDesc
	}
	buf := make([]byte, 0, 256)
	buf = append(buf, 1) // signature schema version
	buf = append(buf, cfg.Lib.Signature()...)
	buf = append(buf, cfg.strategy().Name()...)
	buf = append(buf, 0)
	if cfg.CostModel == "" {
		buf = append(buf, CostArea...)
	} else {
		buf = append(buf, cfg.CostModel...)
	}
	buf = append(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.Seed))
	if cfg.Naive {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, f := range []float64{
		threshold, weights.Criticality, weights.Latency, weights.Area, weights.IO,
		cfg.CandidatePrune, cfg.MaxArea,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	for _, n := range []int{overshoot, maxExamined, cfg.MaxInputs, cfg.MaxOutputs, cfg.MaxOps} {
		buf = binary.AppendVarint(buf, int64(n))
	}
	buf = append(buf, fanout...)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// exploreBlockMemo wraps one block's exploration in the corpus: a hit
// replays the memoized candidates (identical bytes, none of the search), a
// miss runs the strategy and memoizes the block's slice of the result —
// unless an anytime budget truncated the block mid-search, which would
// bake an incomplete candidate list into the store.
func exploreBlockMemo(strat Strategy, b *ir.Block, cfg Config, res *Result, bud *budget, sig string, useCorpus bool) {
	if !useCorpus || len(b.Ops) == 0 {
		strat.exploreBlock(b, cfg, res, bud)
		return
	}
	key := corpus.Key{Block: ir.BlockHash(b), Config: sig}
	if e, ok := cfg.Corpus.Lookup(key); ok && replayEntry(b, e, res) {
		res.Stats.CorpusHits++
		return
	}
	res.Stats.CorpusMisses++
	start := len(res.Candidates)
	exBefore, prBefore := res.Stats.Examined, res.Stats.PrunedDirections
	strat.exploreBlock(b, cfg, res, bud)
	if res.Stats.Truncated {
		return
	}
	cfg.Corpus.Insert(key, buildEntry(res.Candidates[start:],
		res.Stats.Examined-exBefore, res.Stats.PrunedDirections-prBefore))
}

// replayEntry appends e's candidates to res exactly as the cold path
// recorded them: same order, same member sets, and the same area/latency
// bit patterns (stored as raw float bits precisely because the cold path
// accumulates them incrementally and replay must not re-round). It reports
// false — leaving res untouched, so the caller falls back to the cold path
// — when any member list is not strictly ascending or does not fit b, the
// symptom of a hash collision or a foreign disk record. Each candidate's
// Ops share the entry's member list.
func replayEntry(b *ir.Block, e *corpus.Entry, res *Result) bool {
	n := len(b.Ops)
	for i := range e.Candidates {
		m := e.Candidates[i].Members
		if len(m) == 0 || m[0] < 0 || m[len(m)-1] >= n {
			return false
		}
		for k := 1; k < len(m); k++ {
			if m[k] <= m[k-1] {
				return false
			}
		}
	}
	var d *ir.DFG
	if len(e.Candidates) > 0 {
		d = ir.Analyze(b)
	}
	for i := range e.Candidates {
		c := &e.Candidates[i]
		res.Candidates = append(res.Candidates, Candidate{
			Block: b, DFG: d, Ops: c.Members,
			Area:    math.Float64frombits(c.AreaBits),
			Latency: math.Float64frombits(c.LatencyBits),
			Inputs:  c.Inputs, Outputs: c.Outputs,
		})
		res.Stats.Recorded++
	}
	return true
}

// buildEntry converts one block's freshly recorded candidates into their
// memoized form, stamping each with its canonical shape hash for the
// corpus's cross-program isomorphism-class statistics.
func buildEntry(cands []Candidate, examined, pruned int) *corpus.Entry {
	e := &corpus.Entry{Examined: examined, Pruned: pruned}
	if len(cands) > 0 {
		e.Candidates = make([]corpus.Candidate, len(cands))
	}
	for i := range cands {
		c := &cands[i]
		e.Candidates[i] = corpus.Candidate{
			Members:     c.Ops,
			AreaBits:    math.Float64bits(c.Area),
			LatencyBits: math.Float64bits(c.Latency),
			Inputs:      c.Inputs,
			Outputs:     c.Outputs,
			Shape:       ir.SubgraphFingerprint(c.Block, ir.NewOpSet(c.Ops...)),
		}
	}
	return e
}
