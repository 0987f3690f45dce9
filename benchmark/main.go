// Command benchmark is the repository's performance benchmark. It runs the
// customization system in-process through its packages on one workload,
// checks every output against committed references, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 2.9, "unit": "s"}, ...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash benchmark/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload service-hit --seed 3 --seconds 12 --trace 1 --spans spans.json
//	bash benchmark/run.sh --compare parent.jsonl change.jsonl
//	bash benchmark/run.sh --write-refs benchmark/testdata
//
// -trace 0 measures the end-to-end metrics; -trace 1 measures the workload
// again, then replays its inputs one call at a time through each layer's
// public function, records spans around the calls, and prints the
// per-layer metrics. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workloads"
)

// setupRepeats is how many times a run builds its environment; setup_s is
// the median, and the measured phase uses the last environment built.
const setupRepeats = 3

// calibRounds is how many rounds of the reference workload an untraced run
// times before its first setup, after each setup, and after the measured
// phase (calibrate.go).
const calibRounds = 3

// config sizes one run. The smoke test shrinks the workload sizes.
type config struct {
	seed    int64
	seconds time.Duration
	setups  int
	// calibRounds sizes each of an untraced run's calibrations outside the
	// measured phase.
	calibRounds int
	// domains are the Figure-7 domains the sweep workloads run.
	domains []string
	// benches is the service workloads' key space: named benchmarks at
	// budgets 1-15.
	benches []string
	// missRounds is the number of rounds in service-miss's request list.
	missRounds int
	// replayJobs is how many service-miss requests the traced run replays.
	replayJobs int
}

func defaultConfig(seed int64, seconds time.Duration) config {
	return config{
		seed:        seed,
		seconds:     seconds,
		setups:      setupRepeats,
		calibRounds: calibRounds,
		domains:     workloads.DomainNames(),
		benches:     workloads.Names(),
		missRounds:  11,
		replayJobs:  24,
	}
}

// nproc is the load generator's client and connection bound and the
// system's worker count: GOMAXPROCS, left at its default.
func nproc() int { return runtime.GOMAXPROCS(0) }

// fanOut calls fn for the indices 0..n-1 in order from nproc goroutines
// (worker 0..nproc-1), each taking the next index when its previous call
// returns, until fn returns false; it returns when all have finished.
func fanOut(n int, fn func(worker, i int) bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || !fn(w, i) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"sweep", "sweep-warm", "service-miss", "service-hit"}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds a fresh environment, closing any earlier one.
	setup() error
	// measure runs the timed phase for about d on the current environment,
	// calling cal.tick between operations where that delays no other
	// operation (cal is nil in a traced run).
	measure(d time.Duration, cal *calibration) (*phase, error)
	// jobs lists the inputs the traced run replays through the layers.
	jobs() []job
	// probe returns the hit path the traced run times, warmed.
	probe() (*hitPath, error)
	close()
}

func newWorkload(name string, cfg config, refs *references) (workload, error) {
	switch name {
	case "sweep":
		return &sweepWorkload{cfg: cfg, refs: refs}, nil
	case "sweep-warm":
		return &sweepWorkload{cfg: cfg, refs: refs, warm: true}, nil
	case "service-miss":
		return &missWorkload{cfg: cfg, refs: refs}, nil
	case "service-hit":
		return &hitWorkload{cfg: cfg, refs: refs}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// op is one timed operation: a sweep, or a request.
type op struct {
	latency time.Duration
	// lag is how late the generator issued the operation: behind its due
	// time in an open loop, after the previous completion in a closed one.
	lag time.Duration
	err error
	// input names a service request (request.String); hit records that the
	// reply came from the cache. The traced run subtracts the input's
	// replayed service time from the latency to get server.queue_ms.
	input string
	hit   bool
}

// phase is the outcome of a measured phase.
type phase struct {
	ops []op
	// counts are the server and cluster telemetry counters of the phase.
	counts map[string]int64
	// sweepMedian is the median time of one -j nproc sweep, the
	// denominator of experiment.parallelism (0 on the services).
	sweepMedian time.Duration
	// pipeline records that the operations ran the customization pipeline,
	// whose times the reference workload tracks (calibrate.go); cached
	// requests do not.
	pipeline bool
	// echo holds the latencies in milliseconds of the echo requests sent
	// among service-hit's cached requests (nil on the other workloads).
	echo []float64
}

func (p *phase) failed() int {
	n := 0
	for _, o := range p.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, sweep-warm, service-miss or service-hit")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: print the end-to-end metrics; 1: replay the inputs through each layer and print the per-layer metrics")
	spansPath := flag.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	compare := flag.Bool("compare", false, "compare two files of result lines (parent, change) instead of running a workload")
	writeRefs := flag.String("write-refs", "", "regenerate the correctness references into this directory and exit")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two files: parent.jsonl change.jsonl")
			break
		}
		err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *writeRefs != "":
		err = writeReferences(*writeRefs)
	default:
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			err = fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
			break
		}
		cfg := defaultConfig(*seed, time.Duration(*seconds)*time.Second)
		var res *result
		res, err = run(*name, cfg, *trace == 1, *spansPath)
		if err == nil {
			var b []byte
			b, err = json.Marshal(res)
			fmt.Println(string(b))
			if err == nil && !res.Correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run executes one workload and returns its result. An error means the run
// could not be carried out; wrong outputs are reported in the result.
func run(name string, cfg config, trace bool, spansPath string) (*result, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(name, cfg, refs)
	if err != nil {
		return nil, err
	}
	defer w.close()

	setups := cfg.setups
	var cal *calibration
	if trace {
		setups = 1
	} else {
		if cal, err = newCalibration(); err != nil {
			return nil, err
		}
		defer cal.close()
	}
	cal.calibrate(cfg.calibRounds)
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		cal.calibrate(cfg.calibRounds)
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	ph, err := w.measure(cfg.seconds, cal)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	for _, o := range ph.ops {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, o.err)
		}
	}
	res := &result{Attempted: len(ph.ops), Failed: ph.failed(), Metrics: map[string]value{}}
	if !trace {
		cal.calibrate(cfg.calibRounds)
		if err := endToEndMetrics(res, ph, setupTimes, rss-cal.tableMB(), cal); err != nil {
			return nil, err
		}
	} else {
		tr, err := traceRun(w, refs, ph)
		if err != nil {
			return nil, fmt.Errorf("%s trace: %w", name, err)
		}
		res.Attempted += tr.attempted
		res.Failed += len(tr.failures)
		for _, f := range tr.failures {
			fmt.Fprintf(os.Stderr, "benchmark: %s trace: %v\n", name, f)
		}
		for k, v := range tr.metrics {
			m, _ := lookupMetric(k)
			res.Metrics[k] = value{v, m.unit}
		}
		if spansPath != "" {
			if err := tr.rec.writeJSON(spansPath); err != nil {
				return nil, err
			}
		}
	}
	res.Correct = res.Failed == 0 && len(ph.ops) > 0
	printSummary(name, res)
	return res, nil
}

// endToEndMetrics fills the -trace 0 metrics from the measured phase, the
// setup times and the peak RSS. Times of pipeline work, which every setup
// is, are scaled by calibRefSeconds / the median of cal's rounds
// (calibrate.go says why), and service-hit's latencies by the echo
// requests' (echoPath says why); the raw times go to standard error.
func endToEndMetrics(res *result, ph *phase, setupTimes []float64, rss float64, cal *calibration) error {
	var lat []float64
	for _, o := range ph.ops {
		if o.err == nil {
			lat = append(lat, ms(o.latency))
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no operation succeeded")
	}
	sort.Float64s(lat)
	raw := latencyStats(lat)
	raw["setup_s"] = median(setupTimes)
	calib, rounds := cal.seconds()
	scale := calibRefSeconds / calib
	fmt.Fprintf(os.Stderr, "benchmark: %d operations; reference workload %.4f s over %d rounds, scale %.4f\n", len(lat), calib, rounds, scale)
	var echo map[string]float64
	if len(ph.echo) > 0 {
		sort.Float64s(ph.echo)
		echo = latencyStats(ph.echo)
		fmt.Fprintf(os.Stderr, "benchmark: %d echo requests: p50 %.4f ms, mean %.4f ms, p90 %.4f ms\n",
			len(ph.echo), echo["latency_p50_ms"], echo["latency_mean_ms"], echo["latency_p90_ms"])
	}
	for _, m := range endToEnd {
		v, isTime := raw[m.name]
		if !isTime {
			continue
		}
		fmt.Fprintf(os.Stderr, "  raw %-22s %14.6g %s\n", m.name, v, m.unit)
		switch {
		case m.name == "setup_s" || ph.pipeline:
			v *= scale
		case echo != nil:
			v *= echoBaseMS[m.name] / echo[m.name]
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	res.Metrics["peak_rss_mb"] = value{rss, "MB"}
	return nil
}

func printSummary(name string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d attempted, %d failed\n", name, res.Attempted, res.Failed)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-26s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
