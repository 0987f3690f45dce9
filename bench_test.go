package repro

// Benchmarks regenerating every figure of the paper's evaluation section.
// Each benchmark runs the corresponding harness end to end and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The cmd/iscsweep and cmd/iscstudy tools
// print the same data as full tables.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiment"
	"repro/internal/workloads"
)

// BenchmarkFig3Exploration regenerates Figure 3: candidate subgraphs
// examined for blowfish under naive exponential growth versus the guide
// function heuristic.
func BenchmarkFig3Exploration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := experiment.NewHarness()
		st, err := h.Fig3("blowfish", 0)
		if err != nil {
			b.Fatal(err)
		}
		naive6, guided6 := st.CumulativeAtSize(6)
		b.ReportMetric(float64(naive6), "naive-candidates-size<=6")
		b.ReportMetric(float64(guided6), "guided-candidates-size<=6")
		b.ReportMetric(float64(st.GuidedMaxSize), "guided-max-size")
		b.ReportMetric(float64(st.NaiveMaxSize), "naive-max-size")
	}
}

// BenchmarkFig7Native regenerates the left half of Figure 7: native
// speedup versus area budget for every benchmark, by domain. The metric
// reported is each domain's mean speedup at the 15-adder point.
func BenchmarkFig7Native(b *testing.B) {
	for _, domain := range workloads.DomainNames() {
		b.Run(domain, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := experiment.NewHarness()
				res, err := h.Fig7Native(domain, experiment.Budgets1to15())
				if err != nil {
					b.Fatal(err)
				}
				sum := 0.0
				for _, r := range res {
					sum += r.Points[len(r.Points)-1].Speedup
				}
				b.ReportMetric(sum/float64(len(res)), "mean-speedup-at-15")
			}
		})
	}
}

// BenchmarkFig7Cross regenerates the right half of Figure 7: every
// application compiled on the CFUs of the other applications in its
// domain.
func BenchmarkFig7Cross(b *testing.B) {
	for _, domain := range workloads.DomainNames() {
		b.Run(domain, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := experiment.NewHarness()
				res, err := h.Fig7Cross(domain, experiment.Budgets1to15())
				if err != nil {
					b.Fatal(err)
				}
				sum := 0.0
				for _, r := range res {
					sum += r.Points[len(r.Points)-1].Speedup
				}
				b.ReportMetric(sum/float64(len(res)), "mean-cross-speedup-at-15")
			}
		})
	}
}

// extensionBench runs the Figures 8/9 study for the given domains and
// reports the mean gain of full generalization (wildcards + subsumed) over
// exact matching across all app x CFU-set pairs.
func extensionBench(b *testing.B, domains ...string) {
	for i := 0; i < b.N; i++ {
		h := experiment.NewHarness()
		exact, full := 0.0, 0.0
		n := 0
		for _, d := range domains {
			rows, err := h.ExtensionStudy(d, 15)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				exact += r.Exact
				full += r.WildcardSubsumed
				n++
			}
		}
		b.ReportMetric(exact/float64(n), "mean-exact-speedup")
		b.ReportMetric(full/float64(n), "mean-generalized-speedup")
	}
}

// BenchmarkParallelSweep is the guardrail for the concurrent sweep
// engine: the same Figure 7 encryption domain sweep at -j 1 and at one
// worker per CPU. The ratio of the two sub-benchmarks' ns/op is the
// measured wall-clock speedup (on a single-core machine they tie). The
// effective-parallelism metric is how many pool jobs were working on
// average, with time blocked on another job's memo cell or selection lock
// excluded; it bounds the speedup from above and is not a measurement of
// it, since jobs sharing a core or waiting on the garbage collector still
// count as working.
func BenchmarkParallelSweep(b *testing.B) {
	js := []int{1, runtime.GOMAXPROCS(0)}
	if js[1] < 2 {
		js[1] = 2 // single-core machines still exercise the pool
	}
	for _, j := range js {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			agg := 0.0
			for i := 0; i < b.N; i++ {
				h := experiment.NewHarness()
				h.Parallelism = j
				if _, err := h.Fig7Native(workloads.DomainEncryption, experiment.Budgets1to15()); err != nil {
					b.Fatal(err)
				}
				agg += float64(h.AggregateJobTime())
			}
			b.ReportMetric(agg/float64(b.Elapsed()), "effective-parallelism")
		})
	}
}

// BenchmarkFig8Extensions regenerates Figure 8 (encryption and network at
// the 15-adder point).
func BenchmarkFig8Extensions(b *testing.B) {
	extensionBench(b, workloads.DomainEncryption, workloads.DomainNetwork)
}

// BenchmarkFig9Extensions regenerates Figure 9 (image and audio).
func BenchmarkFig9Extensions(b *testing.B) {
	extensionBench(b, workloads.DomainImage, workloads.DomainAudio)
}

// BenchmarkLimitStudy regenerates the §5 limit study: the 15-adder point
// versus infinite area and register ports, over all benchmarks.
func BenchmarkLimitStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiment.NewHarness()
		rows, err := h.LimitStudy(nil)
		if err != nil {
			b.Fatal(err)
		}
		gap := 0.0
		for _, r := range rows {
			gap += r.Unlimited - r.At15
		}
		b.ReportMetric(gap/float64(len(rows)), "mean-ideal-gap")
	}
}

// BenchmarkHeadlineSpeedups reproduces the conclusion's headline numbers:
// per-benchmark native speedup at 15 adders, average and maximum (paper:
// average 1.47, best 1.94 for rawdaudio).
func BenchmarkHeadlineSpeedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiment.NewHarness()
		sum, max := 0.0, 0.0
		names := workloads.Names()
		for _, app := range names {
			r, err := h.Sweep(app, app, []float64{15})
			if err != nil {
				b.Fatal(err)
			}
			s := r.Points[0].Speedup
			sum += s
			if s > max {
				max = s
			}
		}
		b.ReportMetric(sum/float64(len(names)), "mean-speedup")
		b.ReportMetric(max, "max-speedup")
	}
}

// BenchmarkMultiFunction measures the paper's proposed future work:
// admitting merged multi-function CFUs into selection.
func BenchmarkMultiFunction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiment.NewHarness()
		gain, n := 0.0, 0
		for _, d := range workloads.DomainNames() {
			rows, err := h.MultiFunctionStudy(d, 15)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				gain += r.Multi - r.Single
				n++
			}
		}
		b.ReportMetric(gain/float64(n), "mean-multifunc-gain")
	}
}

// BenchmarkMemoryCFU measures the paper's proposed relaxation of the
// no-memory-operations restriction: CFUs may contain loads.
func BenchmarkMemoryCFU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiment.NewHarness()
		rows, err := h.MemoryCFUStudy(nil, 15)
		if err != nil {
			b.Fatal(err)
		}
		gain, n := 0.0, 0
		for _, r := range rows {
			gain += r.WithMem - r.NoMem
			n++
		}
		b.ReportMetric(gain/float64(n), "mean-memcfu-gain")
	}
}

// BenchmarkUnrolling measures CFU speedup growth as loop unrolling
// enlarges basic blocks (§2's discussion of unrolling-created blocks).
func BenchmarkUnrolling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiment.NewHarness()
		rows, err := h.UnrollStudy("url", []int{1, 8}, 15)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Speedup-rows[0].Speedup, "unroll8-gain")
	}
}

// BenchmarkAblationSelection regenerates the §3.4 selection-heuristic
// comparison on the encryption benchmarks, reporting how often the
// knapsack DP beats greedy value/cost.
func BenchmarkAblationSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiment.NewHarness()
		var dpWins, points int
		for _, app := range []string{"blowfish", "rijndael", "sha"} {
			pts, err := h.SelectionAblation(app, experiment.Budgets1to15())
			if err != nil {
				b.Fatal(err)
			}
			byBudget := map[float64][2]float64{}
			for _, p := range pts {
				e := byBudget[p.Budget]
				switch p.Mode.String() {
				case "greedy-ratio":
					e[0] = p.Speedup
				case "knapsack-dp":
					e[1] = p.Speedup
				}
				byBudget[p.Budget] = e
			}
			for _, e := range byBudget {
				points++
				if e[1] > e[0]+1e-9 {
					dpWins++
				}
			}
		}
		b.ReportMetric(float64(dpWins)/float64(points), "dp-win-fraction")
	}
}

// BenchmarkAblationGuide regenerates the §3.2 guide-weight study: even
// weights versus skewed weightings, on blowfish.
func BenchmarkAblationGuide(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiment.NewHarness()
		rows, err := h.GuideWeightAblation("blowfish")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "even" {
				b.ReportMetric(r.Speedup, "even-weights-speedup")
			}
		}
	}
}
