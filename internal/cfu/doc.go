// Package cfu implements the back half of the paper's hardware compiler
// (§3.3–§3.4): grouping the explorer's raw candidate subgraphs into custom
// function units, analyzing what else each CFU can execute, and choosing
// which CFUs to build under a die-area budget.
//
// Main entry points:
//
//   - CombinePartial (§3.3): merge isomorphic candidates across blocks into
//     a single CFU with accumulated dynamic-weight value, using canonical
//     signatures with exact isomorphism re-checks; cooperative-cancellation
//     aware (best-so-far on ctx expiry). Each block's candidates arrive
//     grouped by isomorphism in a graph.ShapeIndex: the corpus entry's
//     index (corpus.Entry.Shapes) for candidates replayed from or memoized
//     into the corpus, built once per entry and kept in memory only, or
//     one built on the spot for any other block. Combination finds each
//     class's CFU once, and a CFU opened by a class keeps the class's
//     shape, so a corpus-warm run lifts no candidate into a shape.
//   - Select (§3.4): pick CFUs under the area budget; SelectMode chooses
//     the heuristic — GreedyRatio (value/cost, the paper's choice),
//     GreedyValue, or Knapsack (optimal dynamic program, for the limit
//     study). A Selector keeps the lookup tables selection builds over one
//     candidate list, for callers that select from it at many budgets.
//   - Variants / subsumption analysis (§4): smaller patterns that a
//     selected CFU can also execute by feeding identity inputs.
//   - BuildMultiFunction: merged multi-function CFUs via opcode-class
//     generalization — the paper's proposed future work, off by default.
package cfu
