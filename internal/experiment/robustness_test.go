package experiment

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// stripCurve removes the named curve's row from a rendered sweep table so
// faulty and clean renderings can be compared line for line.
func stripCurve(rendered, label string) string {
	var out []string
	for _, line := range strings.Split(rendered, "\n") {
		if strings.HasPrefix(line, "  "+label+" ") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestSweepSurvivesInjectedPanic is the headline robustness guarantee: a
// panic injected into one benchmark's exploration does not take down the
// sweep. The failing benchmark is reported with its stack, and every other
// curve — values and rendered bytes — is identical to an uninjected run.
func TestSweepSurvivesInjectedPanic(t *testing.T) {
	budgets := []float64{2, 5}

	want, err := sharedHarness().Fig7Native("network", budgets)
	if err != nil {
		t.Fatal(err)
	}

	restore, err := faultinject.Enable("explore:crc=panic")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	faulty := NewHarness()
	faulty.Parallelism = 2
	faulty.Telemetry = telemetry.New("test")
	got, gerr := faulty.Fig7Native("network", budgets)
	if gerr == nil {
		t.Fatal("expected the injected panic to surface as an error")
	}
	if got == nil {
		t.Fatal("sweep returned no partial results")
	}

	// The panic is contained as a *PanicError naming crc and carrying the
	// stack of the panicking goroutine.
	var sawCRC bool
	for i, s := range got {
		if s.App != "crc" {
			if s.Err != nil {
				t.Errorf("healthy curve %s has error: %v", s.Label(), s.Err)
			}
			if !reflect.DeepEqual(s.Points, want[i].Points) {
				t.Errorf("curve %s diverged from the uninjected run:\nclean: %+v\nfault: %+v",
					s.Label(), want[i].Points, s.Points)
			}
			continue
		}
		sawCRC = true
		if s.Err == nil {
			t.Fatal("crc curve should have failed")
		}
		var pe *PanicError
		if !errors.As(s.Err, &pe) {
			t.Fatalf("crc error is not a contained panic: %v", s.Err)
		}
		if len(pe.Stack) == 0 {
			t.Error("contained panic carries no stack")
		}
		if !strings.Contains(s.Err.Error(), "crc") {
			t.Errorf("failure does not name the benchmark: %v", s.Err)
		}
	}
	if !sawCRC {
		t.Fatal("crc curve missing from partial results")
	}

	// Rendered output for the healthy benchmarks is byte-identical: the
	// faulty rendering equals the clean one minus the crc row.
	var cleanBuf, faultBuf bytes.Buffer
	RenderSweeps(&cleanBuf, "Figure 7 (native): network speedup vs CFU cost", want)
	RenderSweeps(&faultBuf, "Figure 7 (native): network speedup vs CFU cost", got)
	if wantOut := stripCurve(cleanBuf.String(), "crc"); faultBuf.String() != wantOut {
		t.Errorf("healthy rows drifted under injection:\nclean-minus-crc:\n%s\nfaulty:\n%s",
			wantOut, faultBuf.String())
	}

	// The pool counted the contained panic.
	if n := faulty.Telemetry.Snapshot().Counters["pool.panics"]; n == 0 {
		t.Error("pool.panics counter not incremented")
	}
}

// TestSweepSurvivesInjectedError covers the plain-error path: a compile-site
// fault fails only its own benchmark's jobs and typed errors flow through
// the join.
func TestSweepSurvivesInjectedError(t *testing.T) {
	restore, err := faultinject.Enable("compile:url=error")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	h := NewHarness()
	h.Parallelism = 2
	got, gerr := h.Fig7Native("network", []float64{2})
	if gerr == nil {
		t.Fatal("expected injected error")
	}
	var ie *faultinject.InjectedError
	if !errors.As(gerr, &ie) || ie.Site != "compile" || ie.Key != "url" {
		t.Fatalf("joined error lost the injected fault: %v", gerr)
	}
	for _, s := range got {
		switch s.App {
		case "url":
			if s.Err == nil {
				t.Error("url curve should have failed")
			}
		default:
			if s.Err != nil {
				t.Errorf("healthy curve %s failed: %v", s.Label(), s.Err)
			}
		}
	}
}

// TestInjectedSlowJobStillCompletes proves the slow mode delays but does
// not fail a pipeline stage.
func TestInjectedSlowJobStillCompletes(t *testing.T) {
	restore, err := faultinject.Enable("benchmark:sha=slow:30ms")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	h := NewHarness()
	start := time.Now()
	if _, err := h.Benchmark("sha"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("slow fault did not delay the stage (took %v)", d)
	}
}

// TestDeadlineTruncatedSweep pins the anytime guarantee: with a 1ms
// exploration deadline the sweep still terminates promptly, the results are
// tagged Truncated, and selection still produced a valid budget-respecting
// CFU set.
func TestDeadlineTruncatedSweep(t *testing.T) {
	h := NewHarness()
	h.Parallelism = 1
	h.ExploreDeadline = time.Millisecond

	const budget = 4.0
	m, err := h.MDESAt("blowfish", budget)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Truncated {
		t.Error("1ms-deadline MDES not tagged Truncated")
	}
	if m.TotalArea > budget+1e-9 {
		t.Errorf("truncated selection overspent the budget: %.2f > %.2f", m.TotalArea, budget)
	}

	res, err := h.Sweep("blowfish", "blowfish", []float64{budget})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !res.Points[0].Truncated {
		t.Error("truncation did not propagate to the sweep result")
	}
	if res.Points[0].Speedup < 1 {
		t.Errorf("truncated compile produced speedup %.2f < 1", res.Points[0].Speedup)
	}

	// The truncation marker reaches the rendered label without disturbing
	// the table shape.
	var buf bytes.Buffer
	RenderSweeps(&buf, "t", []*SweepResult{res})
	if !strings.Contains(buf.String(), "[truncated]") {
		t.Errorf("rendering does not mark the truncated curve:\n%s", buf.String())
	}
}

// TestMaxCandidatesTruncates covers the second anytime budget: a candidate
// cap ends exploration early and tags the results.
func TestMaxCandidatesTruncates(t *testing.T) {
	h := NewHarness()
	h.MaxCandidates = 5
	cs, err := h.candidatesFull("sha")
	if err != nil {
		t.Fatal(err)
	}
	if !cs.truncated {
		t.Error("candidate cap did not tag the pool truncated")
	}
	if len(cs.cfus) == 0 {
		t.Error("truncated pool is empty; anytime contract promises best-so-far")
	}
}

// TestMemoizeRetriesAfterError pins the error-eviction rule: a failed
// computation is not cached, so a later call retries and can succeed.
func TestMemoizeRetriesAfterError(t *testing.T) {
	var mu sync.Mutex
	m := make(map[string]*memoCell[int])
	calls := 0
	f := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, errors.New("transient failure")
		}
		return 42, nil
	}
	if _, _, err := memoize(&mu, m, "k", nil, f); err == nil {
		t.Fatal("first call should fail")
	}
	v, _, err := memoize(&mu, m, "k", nil, f)
	if err != nil || v != 42 {
		t.Fatalf("retry after error got (%d, %v), want (42, nil)", v, err)
	}
	if _, hit, _ := memoize(&mu, m, "k", nil, f); !hit || calls != 2 {
		t.Fatalf("successful value not cached: %d calls", calls)
	}
}

// TestMemoizeContainsPanic pins the sync.Once poisoning fix: a panicking
// computation yields a *PanicError (not a silent zero value), and the cell
// is evicted so a retry succeeds.
func TestMemoizeContainsPanic(t *testing.T) {
	var mu sync.Mutex
	m := make(map[string]*memoCell[int])
	calls := 0
	f := func() (int, error) {
		calls++
		if calls == 1 {
			panic("kaboom")
		}
		return 7, nil
	}
	_, _, err := memoize(&mu, m, "k", nil, f)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not contained: err=%v", err)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("contained panic lost its payload: %+v", pe)
	}
	v, _, err := memoize(&mu, m, "k", nil, f)
	if err != nil || v != 7 {
		t.Fatalf("retry after panic got (%d, %v), want (7, nil)", v, err)
	}
}

// TestParallelForContainsPanics proves a panicking job neither crashes the
// pool nor hides the other jobs' results, serial and parallel alike.
func TestParallelForContainsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		h := NewHarness()
		h.Parallelism = workers
		done := make([]bool, 8)
		err := h.parallelFor(8, func(i int) error {
			if i == 3 {
				panic("job 3 exploded")
			}
			done[i] = true
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic not reported", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Job != 3 {
			t.Fatalf("workers=%d: wrong panic attribution: %v", workers, err)
		}
		for i, d := range done {
			if i != 3 && !d {
				t.Errorf("workers=%d: job %d did not run after the panic", workers, i)
			}
		}
	}
}
