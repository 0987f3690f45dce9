package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric describes one number the benchmark prints. BENCHMARK.json at the
// repository root lists the same table; the smoke test keeps the two equal.
type metric struct {
	name, unit string
	// lowerIsBetter gives the direction of improvement.
	lowerIsBetter bool
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Per-layer
	// metrics have none.
	bound float64
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload with -trace 0. An "operation" is one Figure-7 sweep on the sweep
// workloads and one HTTP request on the service workloads. The bounds are
// wide because the machine the benchmark was defined on drifts by 15-20%
// in speed over minutes (README.md has the measurements).
var endToEnd = []metric{
	{"setup_s", "s", true, 0.25},
	{"latency_p50_ms", "ms", true, 0.25},
	{"latency_mean_ms", "ms", true, 0.25},
	{"latency_p90_ms", "ms", true, 0.25},
	{"peak_rss_mb", "MB", true, 0.25},
}

// perLayer are the metrics of single layers, printed by every workload with
// -trace 1. Times ending in _s are totals over the traced replay; times
// ending in _ms are medians per call.
var perLayer = []metric{
	{"explore.self_s", "s", true, 0},
	{"explore.calls", "count", false, 0},
	{"explore.examined", "count", true, 0},
	{"explore.pruned", "count", false, 0},
	{"explore.recorded", "count", false, 0},
	{"explore.yield", "ratio", false, 0},
	{"corpus.hits", "count", false, 0},
	{"corpus.misses", "count", true, 0},
	{"corpus.inserts", "count", false, 0},
	{"corpus.hit_ratio", "ratio", false, 0},
	{"explore.replay_s", "s", true, 0},
	{"combine.self_s", "s", true, 0},
	{"combine.cands_in", "count", false, 0},
	{"combine.cfus_out", "count", false, 0},
	{"select.self_s", "s", true, 0},
	{"select.calls", "count", false, 0},
	{"select.considered", "count", true, 0},
	{"select.rounds", "count", true, 0},
	{"select.selected", "count", false, 0},
	{"select.yield", "ratio", false, 0},
	{"mdes.self_s", "s", true, 0},
	{"compile.self_s", "s", true, 0},
	{"compile.match_s", "s", true, 0},
	{"compile.schedule_s", "s", true, 0},
	{"compile.replacements", "count", false, 0},
	{"match.seeds_considered", "count", true, 0},
	{"match.yield", "ratio", false, 0},
	{"hdl.netlist_s", "s", true, 0},
	{"cosim.self_s", "s", true, 0},
	{"cosim.datapaths", "count", false, 0},
	{"hdl.emit_s", "s", true, 0},
	{"ir.validate_ms", "ms", true, 0},
	{"ir.fingerprint_ms", "ms", true, 0},
	{"server.resolve_ms", "ms", true, 0},
	{"cluster.parse_ms", "ms", true, 0},
	{"server.handle_hit_ms", "ms", true, 0},
	{"server.cache_hit_ratio", "ratio", false, 0},
	{"server.coalesced", "count", false, 0},
	{"server.queue_ms", "ms", true, 0},
	{"cluster.hop_ms", "ms", true, 0},
	{"cluster.retries", "count", true, 0},
	{"cluster.failovers", "count", true, 0},
	{"cluster.shed", "count", true, 0},
	{"cluster.degraded", "count", true, 0},
	{"experiment.serial_s", "s", true, 0},
	{"experiment.parallelism", "ratio", false, 0},
	{"gen.lag_p99_ms", "ms", true, 0},
	{"trace.overhead_pct", "%", true, 0},
	{"trace.unattributed_pct", "%", true, 0},
}

func lookupMetric(name string) (metric, bool) {
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest value with at least p% of the samples at or below
// it. samples must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(rank, 1)
	return sorted[min(rank, len(sorted))-1]
}

// latencyStats returns the latency metrics of a set of latencies in
// milliseconds, keyed by metric name. sorted must be sorted ascending and
// non-empty. The tail is the 90th percentile rather than the highest with
// ten samples beyond it: on the shared machine a single stall of a few tens
// of milliseconds delays every request due during it, and in service-hit's
// runs of 1800 requests such stalls decided the 99th percentile (spread
// 26-140% between runs of the same code) and often the 95th (up to 99%);
// README.md has the numbers.
func latencyStats(sorted []float64) map[string]float64 {
	var sum float64
	for _, l := range sorted {
		sum += l
	}
	return map[string]float64{
		"latency_p50_ms":  median(sorted),
		"latency_mean_ms": sum / float64(len(sorted)),
		"latency_p90_ms":  percentile(sorted, 90),
	}
}

// quartiles returns the first quartile, median and third quartile by the
// same arithmetic as Python's statistics.quantiles(data, n=4) (its default
// "exclusive" method, which extrapolates for tiny samples), so spreads
// printed here match what a Python check computes. One sample gives its
// value three times; none gives zeros.
func quartiles(samples []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

func median(samples []float64) float64 {
	_, m, _ := quartiles(samples)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS (VmHWM) count, so that peak_rss_mb covers the measured phase
// rather than however setup's garbage happened to be collected.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: parsing %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
