// Package server exposes the complete customization pipeline — the paper's
// hardware compiler (§3: DFG exploration, candidate combination, CFU
// selection) fused with its retargetable software compiler (§4) — as a
// long-running HTTP/JSON service, the deployment shape the batch CLIs
// under cmd/ cannot provide. ISE generation is an iterative workflow:
// users resubmit near-identical programs while tuning budgets and
// constraints, and the service exploits exactly that redundancy.
//
// Endpoints (all JSON):
//
//	POST /v1/customize   run the pipeline on a named seed benchmark or an
//	                     iscasm program; returns the MDES + speedup report
//	GET  /v1/benchmarks  list the sixteen seed benchmarks
//	GET  /healthz        liveness ("ok" or "draining")
//	GET  /metrics        telemetry counters/gauges/spans, Prometheus-style
//
// Main entry points: New builds a Server from a Config; Handler mounts the
// API; Shutdown drains in-flight runs. Request/Response define the wire
// format: a Request is Benchmark, Program and DeadlineMS plus an embedded
// core.Config, whose JSON tags name the pipeline knobs.
//
// Hot-path machinery, in request order: an LRU result cache keyed by a
// hash of the program's ir.Fingerprint, the deadline and the JSON form of
// the normalized core.Config — the fingerprint is exact over what the
// pipeline reads, op order included, and blind to op IDs, so a benchmark
// name, its iscasm text and a renumbered copy of that text share one
// entry, while a reordered program, which the pipeline may customize
// differently, gets its own; singleflight coalescing so N concurrent
// identical requests run the pipeline once and share one byte-identical
// body; bounded admission against the shared explore.Tokens budget so the
// service never oversubscribes cores no matter the request rate;
// per-request deadlines lowered onto the pipeline's anytime budgets, so a
// timed-out request returns its best-so-far result tagged truncated
// instead of an error (truncated results are never cached); and a panic
// fence at the run boundary (experiment.PanicError) so one poisoned
// request cannot take the daemon down. The faultinject "server" site
// covers all of this in the robustness suite.
//
// cmd/iscd is the daemon wrapping this package.
package server
