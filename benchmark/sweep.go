package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/internal/experiment"
	"repro/internal/workloads"
)

// sweepWorkload is the native Figure-7 sweep (every benchmark of the
// configured domains at budgets 1-15) on a fresh experiment.Harness per
// sweep, at Parallelism nproc. Its cold form has no corpus: exploration
// dominates. Its warm form replays an in-memory corpus that setup filled
// with one cold sweep, so selection, matching and combination dominate.
type sweepWorkload struct {
	cfg  config
	refs *references
	warm bool
	// store is the warm form's corpus (nil for the cold form).
	store *corpus.Corpus
	// curves are the last setup sweep's checked results.
	curves []*experiment.SweepResult
}

// sweepOut is one sweep's rendered table and its curves.
type sweepOut struct {
	table  []byte
	curves []*experiment.SweepResult
}

// runSweep renders the native Figure-7 table for domains exactly as
// iscsweep prints it, from a fresh harness.
func runSweep(domains []string, store *corpus.Corpus, parallelism int) (*sweepOut, error) {
	h := experiment.NewHarness()
	h.Parallelism = parallelism
	h.Corpus = store
	out := &sweepOut{}
	var buf bytes.Buffer
	for _, d := range domains {
		native, err := h.Fig7Native(d, experiment.Budgets1to15())
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", d, err)
		}
		experiment.RenderSweeps(&buf, fmt.Sprintf("Figure 7 (native): %s speedup vs CFU cost", d), native)
		buf.WriteString("\n")
		out.curves = append(out.curves, native...)
	}
	out.table = buf.Bytes()
	return out, nil
}

func (w *sweepWorkload) check(out *sweepOut) error {
	if !bytes.Equal(out.table, w.refs.fig7For(w.cfg.domains)) {
		return fmt.Errorf("Figure-7 table differs from the reference:\n%s", out.table)
	}
	return w.refs.checkSpeedups(out.curves)
}

// setup runs one cold sweep, checked against the reference. For the warm
// form that sweep fills a fresh corpus, which the measured sweeps replay.
func (w *sweepWorkload) setup() error {
	var store *corpus.Corpus
	if w.warm {
		c, err := corpus.Open("", 0)
		if err != nil {
			return err
		}
		store = c
	}
	out, err := runSweep(w.cfg.domains, store, nproc())
	if err != nil {
		return err
	}
	if err := w.check(out); err != nil {
		return err
	}
	w.store, w.curves = store, out.curves
	fmt.Fprintf(os.Stderr, "benchmark: fig7_speedup_mean %.6f\n", fig7Mean(out.curves))
	return nil
}

// measure runs sweeps back to back until d has passed, at least one, with
// the reference workload's rounds between them.
func (w *sweepWorkload) measure(d time.Duration, cal *calibration) (*phase, error) {
	ph := &phase{pipeline: true}
	var lats []float64
	start := time.Now()
	prevEnd := start
	for len(ph.ops) == 0 || time.Since(start) < d {
		t0 := time.Now()
		out, err := runSweep(w.cfg.domains, w.store, nproc())
		lat := time.Since(t0)
		if err == nil {
			err = w.check(out)
		}
		ph.ops = append(ph.ops, op{latency: lat, lag: t0.Sub(prevEnd), err: err})
		lats = append(lats, lat.Seconds())
		cal.tick(nproc())
		prevEnd = time.Now()
	}
	ph.sweepMedian = time.Duration(median(lats) * float64(time.Second))
	return ph, nil
}

// jobs replays every benchmark of the sweep at budgets 1-15, expecting the
// speedups of setup's sweep, which matched the reference table.
func (w *sweepWorkload) jobs() []job {
	var jobs []job
	for _, c := range w.curves {
		j := job{req: request{kind: "customize", bench: c.App, budget: 15}, corpus: w.store}
		for _, p := range c.Points {
			j.budgets = append(j.budgets, int(p.Budget))
			j.wantSpeedups = append(j.wantSpeedups, p.Speedup)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func (w *sweepWorkload) probe() (*hitPath, error) {
	var reqs []request
	for _, b := range workloads.All() {
		if b.Domain == w.cfg.domains[0] {
			reqs = append(reqs, request{kind: "customize", bench: b.Name, budget: 15})
		}
	}
	return newHitPath(reqs[:min(2, len(reqs))])
}

func (w *sweepWorkload) close() {}

// fig7Mean is the mean native speedup at the sweep's largest budget: the
// paper's headline Figure-7 number.
func fig7Mean(curves []*experiment.SweepResult) float64 {
	var sum float64
	for _, c := range curves {
		sum += c.Points[len(c.Points)-1].Speedup
	}
	return sum / float64(len(curves))
}
