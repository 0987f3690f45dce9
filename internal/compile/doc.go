// Package compile implements the paper's retargetable software compiler
// (§4): given an application and an MDES, it finds where each CFU pattern
// occurs (§4.1, via the graph package's VF2-style matcher), prioritizes
// and filters overlapping matches by the MDES priority order, replaces
// matched subgraphs with custom-instruction ops — reordering surrounding
// code where necessary for correctness (§4.2) — and then runs the final
// VLIW schedule and register allocation to produce cycle counts.
//
// Each block is rewritten through one workspace: its DFG, rebuilt in
// place (ir.DFG.Reanalyze) after every replacement, and the buffers the
// replacement's re-linearization reuses.
//
// Main entry points: Compile is the whole pipeline; Options toggles
// subsumed-variant matching, opcode-class wildcard matching, and the
// pre-matching CSE/DCE optimizer; Report carries per-block cycle
// accounting, slot utilization, and the baseline-vs-custom speedup that
// the paper's Figure 7 plots.
package compile
