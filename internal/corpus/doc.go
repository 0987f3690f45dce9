// Package corpus memoizes the output of dataflow-graph exploration so that
// repeated and overlapping customization workloads skip the exponential
// search entirely.
//
// # What is memoized
//
// Exploration is block-at-a-time and deterministic: for a fixed block
// structure and a fixed exploration configuration, the recorded candidate
// list (members, area, latency, ports, and their order) is always the
// same. The corpus therefore keys one entry per (block, configuration)
// pair:
//
//   - the block side of the key is ir.BlockHash, a SHA-256 over the
//     block's ops in program order — opcodes, operand wiring, live-out
//     registers, and the profile weight — the block encoding the program
//     hash ir.Fingerprint is built on. Program order matters: entries replay
//     as op-index sets, so two isomorphic but differently-ordered blocks
//     must not share an entry.
//   - the configuration side is supplied by the explorer: a hash over
//     every knob that can change the candidate list (strategy, cost model,
//     seed, guide weights, constraints, fanout cap, and the hardware
//     library's content signature, hwlib.Library.Signature).
//
// An Entry stores each candidate's member indices plus the exact IEEE-754
// bit patterns of its area and latency (AreaBits, LatencyBits). Bits, not
// values recomputed at replay time: the explorer accumulates area and
// latency incrementally while growing subgraphs, and float addition is not
// associative, so a recompute-from-members could differ in the last ulp
// and break the warm-equals-cold byte-identity guarantee downstream.
//
// Grouping candidates by isomorphism is not the corpus's job: combine does
// it once per run through graph.Shape. Records written when candidates
// still carried a shape hash (an "s" field) load unchanged, because
// decoding ignores fields it does not know.
//
// # Storage
//
// The in-memory tier is an LRU bounded by MaxEntries. The optional disk
// tier is a directory of append-only segment files (seg-NNNNNN.log), each
// a versioned header followed by length- and CRC32-framed JSON records.
// Loading tolerates torn tails and corrupt records — the good prefix of
// every segment is kept, errors are counted in Stats.LoadErrors, and a
// fresh segment is started for new appends, so a crash mid-write can never
// poison later writes. Decoding is panic-contained: a malformed segment
// surfaces as an error, never a crash (see FuzzCorpusDecode).
//
// The "corpus" faultinject site covers both disk paths (load and append);
// an injected fault degrades the store to memory-only — exploration falls
// back to the cold path, it never fails.
//
// # Correctness contract
//
// A warm run must select byte-identical results to a cold run; only
// wall-clock time and examined-subgraph counts may differ. The explorer
// enforces the two cases where memoization would be unsound: entries are
// only inserted for blocks whose exploration ran to completion (never from
// runs truncated mid-block by a deadline or cancellation), and the corpus
// is bypassed entirely under a MaxCandidates budget, whose cold-path
// truncation point within a growth wave is not reproducible from a
// per-block memo.
package corpus
