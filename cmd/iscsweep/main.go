// Command iscsweep regenerates Figure 7 of the paper: speedup versus CFU
// area budget (1..15 adders), for every benchmark compiled natively on its
// own CFUs (left half) and cross-compiled on the CFUs of the other
// applications in its domain (right half).
//
// Usage:
//
//	iscsweep                         # native curves, all five domains
//	iscsweep -cross                  # cross-compilation curves too
//	iscsweep -domain audio           # restrict to one domain
//	iscsweep -synth seed=3:ops=512   # sweep one seeded synthetic program
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cfu"
	"repro/internal/corpus"
	"repro/internal/experiment"
	"repro/internal/hwlib"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func openFile(path string) (io.ReadCloser, error) { return os.Open(path) }

func main() {
	log.SetFlags(0)
	log.SetPrefix("iscsweep: ")
	domain := flag.String("domain", "", "restrict to one domain (encryption, network, audio, image, video)")
	cross := flag.Bool("cross", false, "also produce the cross-compilation curves")
	maxBudget := flag.Int("maxbudget", 15, "largest area budget in adders")
	h := experiment.NewHarness()
	h.BindFlags(flag.CommandLine)
	shootout := flag.Bool("shootout", false, "run the strategy comparison instead of the Figure 7 sweep: every strategy on the 16 benchmarks plus the large unrolled and synthetic DFGs, with quality-vs-wallclock columns")
	synthSpec := flag.String("synth", "", "sweep one seeded synthetic program instead of the benchmark suite; colon-separated key=value spec (e.g. seed=3:blocks=8:ops=512), \"default\" for the defaults")
	hwPath := flag.String("hwlib", "", "JSON hardware library, or the built-in name \"dsp16\" (16-bit-multiplier video calibration; default: the 0.18u calibration)")
	flag.TextVar(&h.SelectMode, "mode", cfu.GreedyRatio, "selection `heuristic`: greedy, value, or dp")
	flag.BoolVar(&h.Verify, "verify", false, "verify every compile in the functional simulator")
	flag.IntVar(&h.Parallelism, "j", 0, "parallel compile jobs (0 = one per CPU, 1 = serial); the report is identical at every setting")
	trace := flag.String("trace", "", "write a structured telemetry dump (JSON) to this file; a per-stage summary goes to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	corpusDir := flag.String("corpus", "", "disk-backed exploration corpus directory: the sweep's repeated explorations of one benchmark at different budgets replay from it, with byte-identical output (\"\" = off)")
	corpusEntries := flag.Int("corpus-entries", 0, "in-memory corpus LRU capacity in block entries (0 = 4096)")
	flag.Parse()

	if *pprofAddr != "" {
		if err := telemetry.ServePprof(*pprofAddr); err != nil {
			log.Fatalf("pprof: %v", err)
		}
		log.Printf("pprof listening on %s", *pprofAddr)
	}
	var tel *telemetry.Registry
	if *trace != "" {
		tel = telemetry.New("iscsweep")
	}

	budgets := make([]float64, *maxBudget)
	for i := range budgets {
		budgets[i] = float64(i + 1)
	}

	domains := workloads.DomainNames()
	if *domain != "" {
		domains = []string{*domain}
	}

	if err := h.Validate(); err != nil {
		log.Fatal(err)
	}
	lib, err := hwlib.LoadOrDefault(openFile, *hwPath)
	if err != nil {
		log.Fatal(err)
	}
	h.Lib = lib
	h.Telemetry = tel
	// The sweep is the corpus's best case: every budget point re-explores
	// the same program, so points 2..N replay point 1's blocks.
	var store *corpus.Corpus
	if *corpusDir != "" || *corpusEntries > 0 {
		c, err := corpus.Open(*corpusDir, *corpusEntries)
		if err != nil {
			log.Fatalf("corpus: %v", err)
		}
		store = c
		h.Corpus = store
	}
	start := time.Now()

	if *synthSpec != "" {
		text := *synthSpec
		if text == "default" {
			text = ""
		}
		spec, err := synth.ParseSpec(text)
		if err != nil {
			log.Fatal(err)
		}
		p, err := synth.Generate(spec)
		if err != nil {
			log.Fatal(err)
		}
		h.RegisterBenchmark(&workloads.Benchmark{
			Name: p.Name, Domain: "synthetic",
			Description: "generated from spec " + spec.String(), Program: p,
		})
		log.Printf("synthetic program %s: %s", p.Name, synth.Sizes(p))
		res, err := h.Sweep(p.Name, p.Name, budgets)
		title := fmt.Sprintf("Synthetic sweep: %s speedup vs CFU cost", p.Name)
		experiment.RenderSweeps(os.Stdout, title, []*experiment.SweepResult{res})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("synthetic sweep wall-clock %v", time.Since(start).Round(time.Millisecond))
		return
	}

	if *shootout {
		inputs, err := experiment.ShootoutInputs()
		if err != nil {
			log.Fatal(err)
		}
		rows, err := h.StrategyShootout(inputs, float64(*maxBudget))
		experiment.RenderShootout(os.Stdout, float64(*maxBudget), rows)
		if err != nil {
			log.Fatal(err)
		}
		if store != nil {
			s := store.Stats()
			log.Printf("corpus: %d hits, %d misses, %d entries", s.Hits, s.Misses, s.Entries)
			if err := store.Close(); err != nil {
				log.Printf("corpus close: %v", err)
			}
		}
		log.Printf("shootout wall-clock %v", time.Since(start).Round(time.Millisecond))
		return
	}

	// A failing benchmark no longer aborts the sweep: its curve is skipped,
	// a failure line goes to stderr, every other curve renders normally, and
	// the process exits nonzero only after all domains have run.
	failed := false
	reportFailures := func(sweeps []*experiment.SweepResult) {
		for _, s := range sweeps {
			if s.Err != nil {
				failed = true
				log.Printf("FAILED %s: %v", s.Label(), s.Err)
			}
		}
	}
	for _, d := range domains {
		native, err := h.Fig7Native(d, budgets)
		if native == nil {
			log.Fatal(err) // configuration error (unknown domain), not a benchmark failure
		}
		title := fmt.Sprintf("Figure 7 (native): %s speedup vs CFU cost", d)
		experiment.RenderSweeps(os.Stdout, title, native)
		fmt.Println()
		reportFailures(native)
		if *cross {
			crossRes, err := h.Fig7Cross(d, budgets)
			if crossRes == nil {
				log.Fatal(err)
			}
			title = fmt.Sprintf("Figure 7 (cross): %s apps on each other's CFUs", d)
			experiment.RenderSweeps(os.Stdout, title, crossRes)
			fmt.Println()
			reportFailures(crossRes)
		}
	}
	// Timing and corpus accounting go to stderr so stdout stays
	// byte-identical across -j and across cold/warm corpus runs.
	// Aggregate/wall is the mean number of pool jobs working at once (time
	// blocked on another job's memo or selection lock excluded): an upper
	// bound on the speedup over a -j 1 run, which only timing -j 1 gives.
	if store != nil {
		s := store.Stats()
		log.Printf("corpus: %d hits, %d misses, %d entries (%d disk segments, %d bytes)",
			s.Hits, s.Misses, s.Entries, s.Segments, s.DiskBytes)
		if err := store.Close(); err != nil {
			log.Printf("corpus close: %v", err)
		}
	}
	elapsed := time.Since(start)
	agg := h.AggregateJobTime()
	log.Printf("wall-clock %v for %v of pool-job work: %.2f jobs working on average",
		elapsed.Round(time.Millisecond), agg.Round(time.Millisecond),
		float64(agg)/float64(elapsed))

	// The trace dump and summary both stay off stdout, which must remain
	// byte-identical with telemetry on or off.
	if tel != nil {
		if err := tel.WriteFile(*trace); err != nil {
			log.Fatal(err)
		}
		tel.WriteSummary(os.Stderr)
	}
	if failed {
		os.Exit(1)
	}
}
