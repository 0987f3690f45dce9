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
// replacement's re-linearization reuses. A replacement can only move ops
// between its first and last matched op: once every dependence edge of
// the block runs forward, which every replacement leaves true, nothing
// before that window depends on a member and everything after it follows
// the whole window. So the re-linearization orders the window alone and
// copies the rest, and a replacement costs the window's edges plus one
// linear re-analysis of the block.
//
// A ScheduleMemo, passed in Options.Schedules, lets compiles that share
// blocks schedule each distinct (block content, machine, register count)
// once. It keeps only the schedule length and the spill count, which is
// all a Report reads. The experiment harness owns one for its lifetime;
// without one, every compile schedules every block.
//
// Main entry points: Compile is the whole pipeline; Options toggles
// subsumed-variant matching, opcode-class wildcard matching, the
// pre-matching CSE/DCE optimizer and the schedule memo; Report carries
// per-block cycle accounting (baseline and customized cycles,
// replacements, spilled values) and the baseline-vs-custom speedup that
// the paper's Figure 7 plots.
package compile
