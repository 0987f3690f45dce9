// Package cosim closes the hardware loop: it evaluates the structured
// Verilog netlists emitted by internal/hdl inside Go, with the 2-state
// bitvector semantics of the Verilog language reference, and differentially
// tests them against the ir.EvalScalar-based reference evaluation of the
// same CFU pattern. The paper's end product is hardware — custom function
// units compiled into a processor — and this package is what turns a
// "customization result" from an asserted report into a machine-checked
// artifact, following the program-down-to-RTL co-design style of OpenASIP.
//
// The two evaluators are deliberately independent implementations:
// EvalNetlist walks the emitted expression trees (sized literals, part
// selects, replication, $signed, shift/mask idioms), while the reference
// side (graph.Shape.Eval → ir.EvalScalar) never sees the netlist. Bit-exact
// agreement over seeded-random and boundary inputs — including every
// function-select setting of multi-function units — is therefore evidence
// about the emitted RTL itself, not about one implementation agreeing with
// itself.
//
// Main entry points: Check lowers a pattern and differentially tests it;
// CheckMDES does so for every datapath of a machine description's CFUs;
// CheckNetlist tests an already-built netlist (used by the mutation
// sanity tests); EvalNetlist is the netlist interpreter; ShapeFromBytes
// deterministically decodes fuzz bytes into candidate patterns for the
// FuzzCosim and FuzzEmitCFU targets. cmd/isccosim runs CheckMDES over
// every CFU selected on the seed benchmarks; iscd runs it per request at
// /v1/hdl.
package cosim
