// Package ir defines the generic RISC intermediate representation consumed
// by the instruction-set customization system — the paper's input artifact
// (§2, Figure 1): profiled, unscheduled assembly code over virtual
// registers, organized as basic blocks whose operations form an explicit
// dataflow graph (DFG). Operations are primitive, atomic RISC operations
// (Add, Xor, Load, ...); constants and live-in registers appear as operands
// rather than nodes, so every DFG node is a real computation.
//
// Main entry points:
//
//   - Program / Block / Op: the representation itself, with a typed builder
//     API (Block.Add, Block.Xor, ...) for authoring kernels by hand.
//   - Analyze: per-block DFG metadata — def/use edges, criticality (slack),
//     longest paths — consumed by the explorer's guide function (§3.2).
//     DFG.Reanalyze is the same build into an existing DFG's buffers, for
//     a sole owner that edits its block, as the compiler does after every
//     replacement.
//   - Validate: the structural boundary guard every public pipeline entry
//     point runs (operand counts, acyclicity, in-range references).
//   - Optimize: CSE and dead-code elimination ahead of matching.
//   - Fingerprint and BlockHash: the exact, op-order-sensitive program and
//     block hashes — the one program identity behind the customization
//     service's result cache (internal/server), the cluster's routing ring
//     (internal/cluster) and the exploration corpus's block key
//     (internal/corpus).
//   - Unroll: the loop-unrolling transform of the paper's §2 discussion.
//   - WriteDot: Graphviz export with matched CFUs shaded (cmd/iscdot).
package ir
