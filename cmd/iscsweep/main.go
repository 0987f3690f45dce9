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
	"log"
	"os"
	"time"

	"repro/internal/cfu"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/synth"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iscsweep: ")
	domain := flag.String("domain", "", "restrict to one domain (encryption, network, audio, image, video)")
	cross := flag.Bool("cross", false, "also produce the cross-compilation curves")
	maxBudget := flag.Int("maxbudget", 15, "largest area budget in adders")
	h := experiment.NewHarness()
	h.BindFlags(flag.CommandLine)
	synthSpec := flag.String("synth", "", "sweep one seeded synthetic program instead of the benchmark suite; colon-separated key=value spec (e.g. seed=3:blocks=8:ops=512), \"default\" for the defaults")
	flag.TextVar(&h.SelectMode, "mode", cfu.GreedyRatio, "selection `heuristic`: greedy, value, or dp")
	flag.BoolVar(&h.Verify, "verify", false, "verify every compile in the functional simulator")
	flag.IntVar(&h.Parallelism, "j", 0, "parallel compile jobs, and goroutines per exploration (0 = one per CPU, 1 = serial); the report is identical at every setting")
	var cli core.CLI
	cli.BindFlags(flag.CommandLine, core.CorpusFlags|core.HWLibFlag)
	flag.Parse()

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
	if err := cli.Start("iscsweep"); err != nil {
		log.Fatal(err)
	}
	// The sweep is the corpus's best case: every budget point re-explores
	// the same program, so points 2..N replay point 1's blocks.
	h.Telemetry, h.Corpus, h.Lib = cli.Telemetry, cli.Corpus, cli.Lib
	start := time.Now()

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
	switch {
	case *synthSpec != "":
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
		// The curve comes back even on error, which reportFailures reads
		// from its Err.
		res, _ := h.Sweep(p.Name, p.Name, budgets)
		title := fmt.Sprintf("Synthetic sweep: %s speedup vs CFU cost", p.Name)
		sweeps := []*experiment.SweepResult{res}
		experiment.RenderSweeps(os.Stdout, title, sweeps)
		reportFailures(sweeps)

	default:
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
	}
	// Timing, corpus accounting and the trace summary go to stderr so
	// stdout stays byte-identical across -j, across cold/warm corpus runs
	// and with telemetry on or off. Aggregate/wall is the mean number of
	// pool jobs working at once (time blocked on another job's memo or
	// selection lock excluded): an upper bound on the speedup over a -j 1
	// run, which only timing -j 1 gives.
	elapsed := time.Since(start)
	agg := h.AggregateJobTime()
	log.Printf("wall-clock %v for %v of pool-job work: %.2f jobs working on average",
		elapsed.Round(time.Millisecond), agg.Round(time.Millisecond),
		float64(agg)/float64(elapsed))
	if err := cli.Close(); err != nil {
		log.Fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}
