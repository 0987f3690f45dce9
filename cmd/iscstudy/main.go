// Command iscstudy regenerates the paper's remaining evaluation artifacts:
// Figure 3 (exploration statistics), Figures 8 and 9 (subsumed subgraphs
// and wildcards at the 15-adder point), the infinite-resource limit study,
// the selection and guide-function ablations, and the future-work studies.
// Stdout is byte-identical at every -j, with or without a corpus, except
// for -shootout's wall and time columns, which are measurements.
//
// Usage:
//
//	iscstudy -all
//	iscstudy -fig3 -fig89
//	iscstudy -limit -ablate
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iscstudy: ")
	all := flag.Bool("all", false, "run every study")
	fig3 := flag.Bool("fig3", false, "exploration statistics (Figure 3)")
	fig89 := flag.Bool("fig89", false, "subsumed/wildcard study (Figures 8 and 9)")
	limit := flag.Bool("limit", false, "infinite-resource limit study")
	ablate := flag.Bool("ablate", false, "selection and guide-function ablations")
	multifunc := flag.Bool("multifunc", false, "multi-function CFU study (paper's future work)")
	unroll := flag.Bool("unroll", false, "loop-unrolling study")
	memcfu := flag.Bool("memcfu", false, "relaxed-memory CFU study (paper's future work)")
	shootout := flag.Bool("shootout", false, "strategy shootout: every exploration strategy on the 16 benchmarks plus the large unrolled and synthetic DFGs, quality vs wall-clock")
	h := experiment.NewHarness()
	h.BindFlags(flag.CommandLine)
	budget := flag.Float64("budget", 15, "cost point for the extension study")
	flag.IntVar(&h.Parallelism, "j", 0, "parallel compile jobs, and goroutines per exploration (0 = one per CPU, 1 = serial); the report is identical at every setting")
	var cli core.CLI
	cli.BindFlags(flag.CommandLine, core.CorpusFlags)
	flag.Parse()

	if *all {
		*fig3, *fig89, *limit, *ablate, *multifunc, *unroll, *memcfu, *shootout = true, true, true, true, true, true, true, true
	}
	if !*fig3 && !*fig89 && !*limit && !*ablate && !*multifunc && !*unroll && !*memcfu && !*shootout {
		flag.Usage()
		os.Exit(2)
	}
	if err := h.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := cli.Start("iscstudy"); err != nil {
		log.Fatal(err)
	}
	h.Telemetry, h.Corpus = cli.Telemetry, cli.Corpus
	start := time.Now()

	// A failing benchmark no longer aborts a study: its rows are skipped by
	// the renderers, a failure line goes to stderr, and the process exits
	// nonzero only after every requested study has run.
	failed := false
	report := func(study string, err error) {
		if err != nil {
			failed = true
			log.Printf("FAILED %s: %v", study, err)
		}
	}

	if *fig3 {
		fmt.Println(experiment.Underline("Figure 3: design space exploration"))
		st, err := h.Fig3("blowfish", 0)
		if err != nil {
			report("fig3", err)
		} else {
			experiment.RenderFig3(os.Stdout, st)
			fmt.Println()
		}
	}

	if *fig89 {
		fmt.Println(experiment.Underline("Figures 8 and 9: CFU extensions at the 15-adder point"))
		for _, d := range workloads.DomainNames() {
			rows, err := h.ExtensionStudy(d, *budget)
			report("fig89 "+d, err)
			experiment.RenderExtensions(os.Stdout, "Domain: "+d, rows)
			fmt.Println()
		}
	}

	if *limit {
		fmt.Println(experiment.Underline("Limit study"))
		rows, err := h.LimitStudy(nil)
		report("limit", err)
		experiment.RenderLimit(os.Stdout, rows)
		fmt.Println()
	}

	if *multifunc {
		fmt.Println(experiment.Underline("Multi-function CFUs (§6 future work)"))
		for _, d := range workloads.DomainNames() {
			rows, err := h.MultiFunctionStudy(d, *budget)
			report("multifunc "+d, err)
			experiment.RenderMultiFunction(os.Stdout, *budget, rows)
			fmt.Println()
		}
	}

	if *memcfu {
		fmt.Println(experiment.Underline("Relaxed memory restriction (§6 future work)"))
		rows, err := h.MemoryCFUStudy(nil, *budget)
		report("memcfu", err)
		experiment.RenderMemoryCFU(os.Stdout, *budget, rows)
		fmt.Println()
	}

	if *unroll {
		fmt.Println(experiment.Underline("Loop unrolling study"))
		for _, app := range []string{"gsmdecode", "url", "crc"} {
			rows, err := h.UnrollStudy(app, []int{1, 2, 4, 8}, *budget)
			if err != nil {
				report("unroll "+app, err)
				continue
			}
			experiment.RenderUnroll(os.Stdout, rows)
			fmt.Println()
		}
	}

	if *shootout {
		fmt.Println(experiment.Underline("Strategy shootout: quality vs wall-clock"))
		inputs, err := experiment.ShootoutInputs()
		if err != nil {
			report("shootout", err)
		} else {
			rows, err := h.StrategyShootout(inputs, *budget)
			report("shootout", err)
			experiment.RenderShootout(os.Stdout, *budget, rows)
			fmt.Println()
		}
	}

	if *ablate {
		fmt.Println(experiment.Underline("Ablation: CFU selection heuristics (§3.4)"))
		for _, app := range []string{"blowfish", "rijndael", "sha"} {
			pts, err := h.SelectionAblation(app, experiment.Budgets1to15())
			report("ablate "+app, err)
			experiment.RenderAblation(os.Stdout, app, pts)
			fmt.Println()
		}
		fmt.Println(experiment.Underline("Ablation: guide-function weights (§3.2)"))
		for _, app := range []string{"blowfish", "sha"} {
			rows, err := h.GuideWeightAblation(app)
			if err != nil {
				report("guide "+app, err)
				continue
			}
			experiment.RenderGuideAblation(os.Stdout, app, rows)
			fmt.Println()
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
