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
// fanout cap rank (op, score) pairs, and only fresh survivors are copied
// into new work items. Each direction first looks up the current subgraph
// plus the op in the visited set, whose entries store their latency and
// ports: a hit reads the price there instead of probing it. A survivor is
// built from the price and depths its scoring computed, so no subgraph is
// probed twice. A survivor whose ports already exceed the limits plus the
// overshoot would never be expanded or recorded: it is counted and marked
// visited, and the queue holds a nil sentinel in its place, whose pop
// polls the anytime budget as the item's would have.
//
// Main entry points:
//
//   - Explore: per-program entry; returns a Result with candidates and
//     Stats (nodes examined, directions pruned, truncation). Each
//     Candidate carries its subgraph as Ops, ascending op indices within
//     its block, shared read-only with the corpus.
//   - Config / DefaultConfig: guide weights, Constraints (input/output port
//     limits, §3.1), anytime controls (Ctx, Deadline, MaxCandidates — all
//     yield best-so-far results tagged Truncated), and Workers, the bound
//     on the goroutines one Explore call runs, each exploring whole
//     blocks; per-block results merge in block order, so the output is
//     byte-identical at every setting.
//   - Constraints / DefaultConstraints: the 5-input/3-output port limits.
package explore
