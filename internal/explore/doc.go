// Package explore implements the dataflow-graph design-space exploration
// at the heart of the paper's hardware compiler (§3.1–§3.2, Figure 3): from
// every DFG node, grow candidate subgraphs one adjacent node at a time,
// ranking each growth *direction* with the four-category guide function
// (criticality, latency, area, input/output — 10 points per category) and
// refusing directions that score below half the maximum. Pruning directions
// rather than candidates is the paper's stated advantage over Sun-style
// enumeration: whole subtrees of the search space are skipped without being
// visited.
//
// The enumerative grower prices every growth direction (area, latency,
// ports) before building it: the guide function, the threshold and the
// fanout cap rank (op, score) pairs, the visited set is checked against
// the current subgraph plus the op, and only fresh survivors are copied
// into new work items.
//
// Main entry points:
//
//   - Explore: per-program entry; returns a Result with candidates and
//     Stats (nodes examined, directions pruned, truncation). Each
//     Candidate carries its subgraph as Ops, ascending op indices within
//     its block, shared read-only with the corpus.
//   - Config / DefaultConfig: guide weights, Constraints (input/output port
//     limits, §3.1), anytime controls (Ctx, Deadline, MaxCandidates — all
//     yield best-so-far results tagged Truncated), Workers and Spare for
//     block-level parallelism.
//   - Constraints / DefaultConstraints: the 5-input/3-output port limits.
//   - Tokens (NewTokens / Acquire / TryAcquire / Release): the counting
//     semaphore behind the two-level -j model — sweep-level jobs and
//     block-level workers, plus concurrent service requests, all draw from
//     one shared pool (docs/ARCHITECTURE.md).
package explore
