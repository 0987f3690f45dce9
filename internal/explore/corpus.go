package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/ir"
)

// corpusUsable reports whether memoizing this run through cfg.Corpus is
// sound. A MaxCandidates budget bypasses it: the cold path's truncation
// point inside a growth wave cannot be reproduced from a per-block memo.
func (cfg Config) corpusUsable() bool {
	return cfg.Corpus != nil && cfg.MaxCandidates <= 0
}

// corpusConfigSig hashes every configuration knob that can change a
// block's candidate list. cfg must be resolved, so spelling a default
// explicitly shares entries with leaving it zero. Budgets, worker counts,
// and telemetry are excluded: they change wall-clock behavior, never the
// completed candidate list. The byte layout is schema version 1 and must
// not change, or every stored entry turns cold: it keeps slots for a
// direction threshold (half the weights), candidate pruning, an area cap
// and a size cap (always off), and spells the fanout cap "nil" or
// "uniform:k".
func (cfg Config) corpusConfigSig() string {
	weights := cfg.Weights
	fanout := "nil"
	if cfg.Fanout > 0 {
		fanout = "uniform:" + strconv.Itoa(cfg.Fanout)
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
		weights.total() / 2, weights.Criticality, weights.Latency, weights.Area, weights.IO,
		0, 0, // candidate pruning and area cap: off
	} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	for _, n := range []int{cfg.OvershootIO, cfg.MaxExamined, cfg.MaxInputs, cfg.MaxOutputs, 0 /* size cap: none */} {
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
	cands := res.Candidates[start:]
	e := buildEntry(cands, res.Stats.Examined-exBefore, res.Stats.PrunedDirections-prBefore)
	cfg.Corpus.Insert(key, e)
	for i := range cands {
		cands[i].Entry, cands[i].EntryIndex = e, i
	}
}

// replayEntry appends e's candidates to res exactly as the cold path
// recorded them: same order, same member sets, and the same area/latency
// bit patterns (stored as raw float bits precisely because the cold path
// accumulates them incrementally and replay must not re-round). It reports
// false — leaving res untouched, so the caller falls back to the cold path
// — when any member list is not strictly ascending or does not fit b, the
// symptom of a hash collision or a foreign disk record. Each candidate's
// Ops share the entry's member list, and each candidate names e as its
// Entry.
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
	res.Candidates = slices.Grow(res.Candidates, len(e.Candidates))
	for i := range e.Candidates {
		c := &e.Candidates[i]
		res.Candidates = append(res.Candidates, Candidate{
			Block: b, DFG: d, Ops: c.Members,
			Area:    math.Float64frombits(c.AreaBits),
			Latency: math.Float64frombits(c.LatencyBits),
			Inputs:  c.Inputs, Outputs: c.Outputs,
			Entry: e, EntryIndex: i,
		})
		res.Stats.Recorded++
	}
	return true
}

// buildEntry converts one block's freshly recorded candidates into their
// memoized form: member indices, exact area and latency bits, and ports.
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
		}
	}
	return e
}
