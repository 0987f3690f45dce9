package cfu

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/hwlib"
	"repro/internal/telemetry"
)

// SelectMode chooses the selection heuristic.
type SelectMode int

const (
	// GreedyRatio picks the best value/cost candidate each round and
	// re-estimates remaining values (the paper's default, Figure 4).
	GreedyRatio SelectMode = iota
	// GreedyValue picks the best raw value each round; the paper observes
	// it beats GreedyRatio at high budgets and loses at low ones.
	GreedyValue
	// Knapsack solves a 0/1 knapsack by dynamic programming over the
	// statically estimated values (the paper's slower ablation, reported
	// ~5-10% better on average than greedy).
	Knapsack
)

func (m SelectMode) String() string {
	switch m {
	case GreedyRatio:
		return "greedy-ratio"
	case GreedyValue:
		return "greedy-value"
	case Knapsack:
		return "knapsack-dp"
	}
	return "unknown"
}

// selectModeNames are the modes' command-line and wire spellings.
var selectModeNames = [...]string{GreedyRatio: "greedy", GreedyValue: "value", Knapsack: "dp"}

// MarshalText renders the mode as "greedy", "value" or "dp".
func (m SelectMode) MarshalText() ([]byte, error) {
	if m < 0 || int(m) >= len(selectModeNames) {
		return nil, fmt.Errorf("cfu: unknown select mode %d", int(m))
	}
	return []byte(selectModeNames[m]), nil
}

// UnmarshalText parses "greedy", "value" or "dp"; empty text means the
// default, greedy.
func (m *SelectMode) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*m = GreedyRatio
		return nil
	}
	for i, name := range selectModeNames {
		if string(text) == name {
			*m = SelectMode(i)
			return nil
		}
	}
	return fmt.Errorf("unknown select mode %q (want greedy, value, or dp)", text)
}

// SelectOptions configures CFU selection.
type SelectOptions struct {
	// Budget is the total die area allowed, in adder units.
	Budget float64
	Mode   SelectMode
	// SubsumedDiscount is the cost multiplier applied to a CFU once a
	// selected CFU subsumes it (its hardware already exists; only decode
	// overhead remains). Default 0.05.
	SubsumedDiscount float64
	// WildcardDiscount is the cost multiplier applied to a CFU once a
	// selected CFU is its wildcard partner (most of the datapath is
	// shared). Default 0.25.
	WildcardDiscount float64
	// Lib supplies opcode classes for wildcard detection (nil = default).
	Lib *hwlib.Library
	// Telemetry, when non-nil, receives the select span and the
	// considered/selected/round counters.
	Telemetry *telemetry.Registry
	// Ctx, when non-nil, lets the caller cancel selection; the stage is
	// anytime: the greedy loop stops after the current round and the
	// knapsack DP truncates its item set, so the returned Selection is
	// always budget-respecting, just possibly not exhaustive. Truncation is
	// reported via Selection.Truncated.
	Ctx context.Context
}

// canceled reports whether the caller's context has expired, without
// blocking.
func (o *SelectOptions) canceled() bool {
	if o.Ctx == nil {
		return false
	}
	select {
	case <-o.Ctx.Done():
		return true
	default:
		return false
	}
}

// Selection is the result of the selection stage: CFUs in replacement
// priority order (the compiler replaces in the same order so the iterative
// value estimates stay accurate).
type Selection struct {
	CFUs      []*CFU
	TotalArea float64
	// EstimatedSavings is the selector's own weighted-cycle estimate.
	EstimatedSavings float64
	// Truncated reports that the caller's context expired mid-selection;
	// the CFUs picked before the cutoff still respect the budget.
	Truncated bool
}

// Select spends the area budget on candidate CFUs. It is
// NewSelector(cfus).Select(opts); callers that select from one list at
// many budgets keep a Selector instead.
//
// Selection still mutates the candidates: it records subsumption and
// wildcard links (Subsumes, SubsumedBy, Wildcards) and generates Variants
// on the CFUs it picks, and those links steer the discounts of later
// rounds and later calls. So concurrent Select calls over the SAME
// candidate list must be serialized by the caller (experiment.Harness
// holds a per-application lock for this). Distinct candidate lists are
// independent.
func Select(cfus []*CFU, opts SelectOptions) *Selection {
	return NewSelector(cfus).Select(opts)
}

// Selector is a candidate list prepared for selection at many budgets. The
// lookup tables greedy selection needs — the dense op numbering, the
// relationship buckets and the ID-to-position map — depend only on the
// list, so the first Select builds them and later calls reuse them. Calls
// on one Selector must be serialized, as for Select over one list.
type Selector struct {
	cfus   []*CFU
	layout *opLayout
	rel    *relationIndex
	pos    map[int]int
}

// NewSelector wraps a candidate list; it builds nothing until the first
// Select.
func NewSelector(cfus []*CFU) *Selector { return &Selector{cfus: cfus} }

// Select spends the area budget on the Selector's candidates; see Select.
func (s *Selector) Select(opts SelectOptions) *Selection {
	if opts.SubsumedDiscount == 0 {
		opts.SubsumedDiscount = 0.05
	}
	if opts.WildcardDiscount == 0 {
		opts.WildcardDiscount = 0.25
	}
	if opts.Lib == nil {
		opts.Lib = hwlib.Default()
	}
	defer opts.Telemetry.StartSpan("select")()
	switch opts.Mode {
	case Knapsack:
		return selectKnapsack(s.cfus, opts)
	default:
		return s.greedy(opts)
	}
}

func (s *Selector) greedy(opts SelectOptions) *Selection {
	cfus := s.cfus
	if s.layout == nil {
		s.layout = newOpLayout(cfus)
		s.rel = newRelationIndex(cfus)
		// Relationship links carry IDs; pos maps them back to positions.
		s.pos = make(map[int]int, len(cfus))
		for i, c := range cfus {
			s.pos[c.ID] = i
		}
	}
	sel := &Selection{}
	space := s.layout.space()
	rel := s.rel.fresh()
	remaining := opts.Budget
	// picked and costMul (the current discount for shared hardware) are
	// indexed by candidate position.
	picked := make([]bool, len(cfus))
	costMul := make([]float64, len(cfus))
	for i := range costMul {
		costMul[i] = 1.0
	}
	cost := func(i int) float64 {
		a := cfus[i].Area * costMul[i]
		if a < 0.05 {
			a = 0.05
		}
		return a
	}
	discount := func(ids []int, m float64) {
		for _, id := range ids {
			if j, ok := s.pos[id]; ok && m < costMul[j] {
				costMul[j] = m
			}
		}
	}
	// Telemetry totals are accumulated locally and flushed once so the
	// hot scoring loop stays lock-free.
	var rounds, considered int64
	for {
		if opts.canceled() {
			sel.Truncated = true
			break
		}
		rounds++
		best := -1
		var bestScore float64
		for i := range cfus {
			if picked[i] || cost(i) > remaining+1e-9 {
				continue
			}
			considered++
			// The paper selects CFUs as if they had no subsumed subgraphs
			// or wildcards: value counts only the CFU's own occurrences.
			v := space.value(i)
			if v <= 0 {
				continue
			}
			var score float64
			if opts.Mode == GreedyValue {
				score = v
			} else {
				score = v / cost(i)
			}
			if best < 0 || score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		c := cfus[best]
		picked[best] = true
		sel.CFUs = append(sel.CFUs, c)
		sel.TotalArea += cost(best)
		remaining -= cost(best)

		// Claim the ops of the occurrences this CFU will cover, so other
		// candidates stop counting them (Figure 4's update step).
		sel.EstimatedSavings = space.claim(best, sel.EstimatedSavings)

		// Hardware sharing: subsumed CFUs and wildcard partners become
		// nearly free once this unit exists. Relationship discovery is
		// lazy — only selected CFUs pay for variant generation.
		ensureVariants(c)
		rel.subsumptionFor(c)
		rel.wildcardsFor(c, opts.Lib)
		discount(c.Subsumes, opts.SubsumedDiscount)
		discount(c.Wildcards, opts.WildcardDiscount)
	}
	opts.Telemetry.Add("select.rounds", rounds)
	opts.Telemetry.Add("select.considered", considered)
	opts.Telemetry.Add("select.selected", int64(len(sel.CFUs)))
	return sel
}

// selectKnapsack solves a 0/1 knapsack over static values by dynamic
// programming, quantizing area to 1/20 adder. Unlike the greedy loop it
// ignores the interaction between overlapping candidates, so the result is
// post-processed: CFUs are ordered by ratio and the estimate recomputed
// with claiming, mirroring how the paper's DP variant still replaces
// greedily in the compiler.
func selectKnapsack(cfus []*CFU, opts SelectOptions) *Selection {
	const quantum = 0.05
	capacity := int(math.Floor(opts.Budget/quantum + 1e-9))
	if capacity <= 0 {
		return &Selection{}
	}
	n := len(cfus)
	w := make([]int, n)
	v := make([]float64, n)
	for i, c := range cfus {
		// The epsilon guards exactly-quantized areas: float division can
		// land a hair above the integer (e.g. a computed 0.30000000000000004
		// over 0.05 gives 6.000000000000001) and Ceil would then charge a
		// whole extra quantum.
		w[i] = int(math.Ceil(c.Area/quantum - 1e-9))
		if w[i] <= 0 {
			w[i] = 1
		}
		v[i] = c.Value
	}
	// dp[cap] = best value; keep[i][cap] via bitset rows.
	dp := make([]float64, capacity+1)
	keep := make([][]bool, n)
	truncated := false
	for i := 0; i < n; i++ {
		keep[i] = make([]bool, capacity+1)
		// An unfilled keep row simply excludes the item, so stopping the DP
		// mid-table still reconstructs a valid (budget-respecting) subset of
		// the items already processed.
		if opts.canceled() {
			truncated = true
			break
		}
		for c := capacity; c >= w[i]; c-- {
			if cand := dp[c-w[i]] + v[i]; cand > dp[c] {
				dp[c] = cand
				keep[i][c] = true
			}
		}
	}
	// Reconstruct.
	var chosen []*CFU
	c := capacity
	for i := n - 1; i >= 0; i-- {
		if keep[i] != nil && keep[i][c] {
			chosen = append(chosen, cfus[i])
			c -= w[i]
		}
	}
	// Priority order: ratio, as the compiler replaces greedily.
	sort.Slice(chosen, func(a, b int) bool {
		ra := chosen[a].Value / math.Max(chosen[a].Area, 0.05)
		rb := chosen[b].Value / math.Max(chosen[b].Area, 0.05)
		return ra > rb
	})
	opts.Telemetry.Add("select.rounds", 1)
	opts.Telemetry.Add("select.considered", int64(n))
	opts.Telemetry.Add("select.selected", int64(len(chosen)))
	sel := &Selection{CFUs: chosen, Truncated: truncated}
	space := newOpSpace(chosen)
	for i, cf := range chosen {
		ensureVariants(cf)
		sel.TotalArea += cf.Area
		sel.EstimatedSavings = space.claim(i, sel.EstimatedSavings)
	}
	return sel
}
