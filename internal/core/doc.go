// Package core ties the system together behind the paper's two-step flow
// (§2, Figure 1): a hardware compiler turns a profiled application into a
// machine description of custom function units, and a retargetable
// software compiler recompiles the application against that description to
// measure speedup. Everything above this package — cmd/ tools, the
// experiment harness, and the iscd service — goes through these entry
// points.
//
// Main entry points:
//
//   - Customize: the complete flow — explore (§3.1–3.2), combine (§3.3),
//     select (§3.4), MDES generation, compile (§4), optional simulator
//     verification — returning a Result with the MDES, candidate pool,
//     customized program, and speedup Report.
//   - GenerateMDES / CompileWith: the two halves separately, matching the
//     paper's split toolflow.
//   - Config: budget, port constraints, selection mode, matcher features,
//     anytime controls (Ctx, ExploreDeadline, MaxCandidates → Truncated
//     best-so-far results), the Workers bound on one exploration's
//     block goroutines, and Telemetry.
package core
