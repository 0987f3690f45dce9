// Package graph implements the pattern graphs that describe custom
// function units (CFUs), together with the graph algorithms the system
// needs: canonical signatures and exact isomorphism for the hardware
// compiler's candidate-combination stage (§3.3), and a VF2-style subgraph
// matcher for the software compiler's CFU utilization stage (§4.1),
// playing the role of the vflib library used in the paper.
//
// Main entry points:
//
//   - Shape: a CFU pattern graph; Shape.Signature is the
//     commutativity-aware bucket key under which isomorphic candidates
//     combine.
//   - ShapeBuilder: lifts an explored candidate, given as its op indices,
//     out of a block's DFG into reused buffers without building maps;
//     signs it, compares it with a bucket's shapes, and copies it to the
//     heap (Detach) only when it is kept. FromOps is the one-shot form.
//   - ShapeIndex: one block's candidates grouped by isomorphism, one
//     detached shape per class plus each candidate's class, built by
//     ShapeBuilder.Index. Combination reads shapes from it; a corpus entry
//     keeps one so that replays lift nothing.
//   - Isomorphic: exact pattern equality (signature collisions re-checked),
//     allocation-free for shapes of up to 32 nodes.
//   - FindMatches: all occurrences of a pattern in a block's DFG, with
//     opcode-indexed seeding, degree/depth feasibility filters and pooled
//     scratch (allocation-free probes — DESIGN.md §8).
//   - Variants: the subsumed-subgraph enumeration (§4) that lets smaller
//     patterns execute on a larger CFU by driving identity inputs.
package graph
