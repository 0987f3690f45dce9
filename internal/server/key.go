package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/cfu"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/ir"
)

// Request is the JSON body of POST /v1/customize. Exactly one of Benchmark
// (a named seed benchmark) or Program (iscasm assembly text, the grammar of
// internal/asm) selects the input application; the remaining fields mirror
// core.Config. Zero values mean the paper's defaults, and requests that
// differ only in how they spell a default (budget 0 versus budget 15)
// normalize to the same cache key.
type Request struct {
	// Benchmark names one of the sixteen seed benchmarks (the paper's
	// thirteen plus the video domain).
	Benchmark string `json:"benchmark,omitempty"`
	// Program is an application in iscasm assembly text.
	Program string `json:"program,omitempty"`
	// Budget is the CFU area budget in adder units (0 = 15).
	Budget float64 `json:"budget,omitempty"`
	// MaxInputs / MaxOutputs bound each CFU's register ports (0 = 5 / 3).
	MaxInputs  int `json:"max_inputs,omitempty"`
	MaxOutputs int `json:"max_outputs,omitempty"`
	// SelectMode picks the selection heuristic: "greedy" (default),
	// "value", or "dp".
	SelectMode cfu.SelectMode `json:"select_mode,omitempty"`
	// Strategy picks the candidate-discovery algorithm: "enumerate"
	// (default) or "improve".
	Strategy string `json:"strategy,omitempty"`
	// CostModel picks the guide's pricing: "area" (default) or "uarch".
	CostModel string `json:"cost_model,omitempty"`
	// UseVariants / UseOpcodeClasses enable the compiler's subsumed-
	// subgraph and wildcard generalizations.
	UseVariants      bool `json:"use_variants,omitempty"`
	UseOpcodeClasses bool `json:"use_opcode_classes,omitempty"`
	// MultiFunction adds merged multi-function CFUs to the candidate pool.
	MultiFunction bool `json:"multi_function,omitempty"`
	// Optimize runs CSE and dead-code elimination before matching.
	Optimize bool `json:"optimize,omitempty"`
	// Verify cross-checks every transformed block in the simulator.
	Verify bool `json:"verify,omitempty"`
	// DeadlineMS bounds the request's pipeline wall-clock time in
	// milliseconds (0 = the server's default). On expiry the response
	// carries the best-so-far result tagged "truncated", not an error.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// MaxCandidates caps recorded candidate subgraphs (0 = unlimited).
	MaxCandidates int `json:"max_candidates,omitempty"`
}

// Normalized returns the request with every defaulted field made explicit,
// so semantically identical requests share one cache key. defaultDeadline is
// the server's default pipeline deadline: a zero DeadlineMS resolves against
// it here, before cacheKey hashes the request, so "deadline_ms": 0 and the
// explicitly spelled server default coalesce and share one cache entry.
func (r Request) Normalized(defaultDeadline time.Duration) Request {
	if r.Budget == 0 {
		r.Budget = 15
	}
	if r.MaxInputs == 0 {
		r.MaxInputs = 5
	}
	if r.MaxOutputs == 0 {
		r.MaxOutputs = 3
	}
	if r.Strategy == "" {
		r.Strategy = explore.StrategyEnumerate
	}
	if r.CostModel == "" {
		r.CostModel = explore.CostArea
	}
	if r.DeadlineMS <= 0 {
		r.DeadlineMS = int(defaultDeadline / time.Millisecond)
	}
	return r
}

// ToConfig translates a normalized request into the pipeline configuration.
// The caller supplies the execution-environment fields (Ctx, Workers,
// Spare, Telemetry) — they are deliberately not part of the cache identity.
func (r Request) ToConfig() (core.Config, error) {
	cfg := core.Config{
		Budget:           r.Budget,
		SelectMode:       r.SelectMode,
		Strategy:         r.Strategy,
		CostModel:        r.CostModel,
		UseVariants:      r.UseVariants,
		UseOpcodeClasses: r.UseOpcodeClasses,
		MultiFunction:    r.MultiFunction,
		Optimize:         r.Optimize,
		Verify:           r.Verify,
		MaxCandidates:    r.MaxCandidates,
	}
	cfg.Constraints.MaxInputs = r.MaxInputs
	cfg.Constraints.MaxOutputs = r.MaxOutputs
	return cfg, cfg.Validate()
}

// deadline resolves the request's pipeline deadline against the server
// default. On a normalized request DeadlineMS is already explicit, so the
// fallback only triggers for a raw request (or a server with no default).
func (r Request) deadline(def time.Duration) time.Duration {
	if r.DeadlineMS > 0 {
		return time.Duration(r.DeadlineMS) * time.Millisecond
	}
	return def
}

// cacheKey is the canonical content hash of (endpoint, program,
// configuration): the program's semantic fingerprint (ir.Fingerprint,
// invariant under pure-op reordering and ID renumbering) combined with
// every configuration field that can change the response. The kind prefix
// ("customize", "hdl") keeps different endpoints' results from aliasing in
// the shared cache even though they hash the same request fields.
// The cache is sound only if equal keys give byte-identical responses, and
// one known gap breaks that: the fingerprint ignores the order of pure ops
// but the pipeline does not, so two spellings of a program that differ
// only in that order share a key yet can produce different responses, and
// the cache serves whichever spelling arrived first.
func (r Request) cacheKey(kind string, p *ir.Program) string {
	mode, _ := r.SelectMode.MarshalText() // validated by ToConfig
	h := sha256.New()
	fmt.Fprintf(h, "iscd/v1\nkind %s\nprogram %s\nbudget %g\nports %d/%d\nmode %s\n",
		kind, ir.Fingerprint(p), r.Budget, r.MaxInputs, r.MaxOutputs, mode)
	fmt.Fprintf(h, "strategy %s cost_model %s\n", r.Strategy, r.CostModel)
	fmt.Fprintf(h, "variants %t classes %t multi %t opt %t verify %t\n",
		r.UseVariants, r.UseOpcodeClasses, r.MultiFunction, r.Optimize, r.Verify)
	fmt.Fprintf(h, "deadline_ms %d max_candidates %d\n", r.DeadlineMS, r.MaxCandidates)
	return hex.EncodeToString(h.Sum(nil))
}
