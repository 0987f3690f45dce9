// Package sim is the functional simulator that proves transformations
// correct: a block before CFU replacement and the same block after are
// executed on random architectural state, and their final register and
// memory contents compared. This is the safety net behind the paper's
// subgraph-replacement and code-reordering step (§4.2) — any miscompiled
// pattern, wrong variant wiring, or illegal reordering shows up as a state
// divergence rather than a silently wrong speedup.
//
// Main entry point: Equivalent(before, after, trials, seed) runs both
// blocks on matched pseudo-random inputs and returns a descriptive error on
// the first divergence. core.Config.Verify wires it across every block of
// every benchmark. Exec is the one op evaluator: RunBlock steps it in
// dependence order, and the cycle-level VLIW interpreter (vliwsim) in
// issue order.
package sim
