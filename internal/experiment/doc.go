// Package experiment contains the harnesses that regenerate the paper's
// figures and studies (§5): Figure 7 native and cross-compiled speedups
// across area budgets, the Figure 8/9 configuration studies, Figure 3
// exploration statistics, the knapsack limit study, and the feature
// ablations. Each experiment is a pure function of (benchmark, Config), so
// runs parallelize across a shared token pool and any subset can be
// re-derived.
//
// Main entry points: NewHarness / Harness drive sweeps over core's
// pipeline stages (Harness embeds core.Config) with shared memoized
// per-benchmark caches, two-level -j parallelism, anytime budgets
// (partial sweeps report best-so-far rows tagged truncated), and fault
// isolation — a panicking job becomes a PanicError row instead of killing
// the sweep. Budgets1to15 is the paper's area-budget axis. PanicError is
// also reused by the iscd service's panic fence.
package experiment
