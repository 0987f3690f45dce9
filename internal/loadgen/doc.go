// Package loadgen is the open-loop workload generator behind cmd/iscload:
// the traffic model that proves the cluster's resilience story under
// load it does not control.
//
// Open-loop means arrivals do not wait for completions — each client spec
// draws Poisson inter-arrival gaps (memoryless traffic) and fires every
// request at its scheduled instant no matter how many are still in
// flight. That is the arrival model under which overload actually
// happens; a closed loop would politely slow down exactly when the
// cluster is most interesting.
//
// A run is a set of Specs (one per client class: SLO, rate, benchmark
// mix, request count) executed concurrently against one target URL. The
// benchmark mix spans the 16 seed benchmarks plus synthetic variants —
// unrolled ("sha-x16") and generated ("synth:<spec>", see internal/synth)
// — that ship as iscasm program text. Every response is folded into a
// Report: p50/p99/p999 latency, error/shed/truncation/cache-hit counts,
// and the retry/failover/degrade attribution the cluster surfaces in
// X-Isccluster-* headers — per SLO class and in aggregate — which iscload
// writes as JSON.
//
// Main entry points: ParseSpec, Runner.Run, Report.
package loadgen
