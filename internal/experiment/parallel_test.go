package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestParallelDeterminism proves the tentpole guarantee: every domain's
// Figure 7 sweep, fanned out over 2 or 8 workers in the interleaved job
// order, merges into exactly the same []*SweepResult — order and values —
// as the serial run, with and without a warm in-memory corpus, so reports
// and golden figures can never drift with -j. Combination lifts each
// candidate into a shape once per corpus entry: a sweep without a corpus,
// or the one that fills it, reuses no shape, and a sweep replaying the
// filled corpus builds none.
func TestParallelDeterminism(t *testing.T) {
	budgets := Budgets1to15()
	if testing.Short() {
		budgets = []float64{1, 4, 9, 15}
	}
	// fig7Candidates is the number of candidates the 16 benchmarks'
	// explorations record.
	const fig7Candidates = 25452
	sweep := func(t *testing.T, j int, store *corpus.Corpus) (map[string][]*SweepResult, map[string]int64) {
		t.Helper()
		h := NewHarness()
		h.Parallelism = j
		h.Corpus = store
		h.Telemetry = telemetry.New("test")
		out := make(map[string][]*SweepResult)
		for _, d := range workloads.DomainNames() {
			rs, err := h.Fig7Native(d, budgets)
			if err != nil {
				t.Fatalf("-j %d %s: %v", j, d, err)
			}
			out[d] = rs
		}
		return out, h.Telemetry.Snapshot().Counters
	}
	// The serial baseline is the shared harness's sweep.
	want := make(map[string][]*SweepResult)
	for _, d := range workloads.DomainNames() {
		rs, err := sharedHarness().Fig7Native(d, budgets)
		if err != nil {
			t.Fatalf("-j 1 %s: %v", d, err)
		}
		want[d] = rs
	}
	store, err := corpus.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The first corpus run fills the corpus; the later ones replay it.
	for i, run := range []struct {
		j     int
		store *corpus.Corpus
	}{{1, store}, {2, nil}, {8, nil}, {1, store}, {2, store}, {8, store}} {
		got, counters := sweep(t, run.j, run.store)
		for _, d := range workloads.DomainNames() {
			if !reflect.DeepEqual(want[d], got[d]) {
				t.Fatalf("-j %d (corpus %v) %s sweep diverged from the serial baseline:\nserial:   %+v\nparallel: %+v",
					run.j, run.store != nil, d, dump(want[d]), dump(got[d]))
			}
		}
		wantBuilt, wantReused := int64(fig7Candidates), int64(0)
		if run.store != nil && i > 0 {
			wantBuilt, wantReused = 0, fig7Candidates
		}
		if b, r := counters["combine.shapes.built"], counters["combine.shapes.reused"]; b != wantBuilt || r != wantReused {
			t.Errorf("-j %d (corpus %v, run %d): %d shapes built, %d reused; want %d, %d",
				run.j, run.store != nil, i, b, r, wantBuilt, wantReused)
		}
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Fatal("the warm runs never hit the corpus")
	}
}

func dump(rs []*SweepResult) []SweepResult {
	out := make([]SweepResult, len(rs))
	for i, r := range rs {
		out[i] = *r
	}
	return out
}

// TestParallelDeterminismCross covers the cross-compilation matrix, where
// jobs for one app contend on several sources' selection caches at once.
func TestParallelDeterminismCross(t *testing.T) {
	budgets := []float64{2, 15}
	serial := NewHarness()
	serial.Parallelism = 1
	want, err := serial.Fig7Cross("encryption", budgets)
	if err != nil {
		t.Fatal(err)
	}
	parallel := NewHarness()
	parallel.Parallelism = 8
	got, err := parallel.Fig7Cross("encryption", budgets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parallel cross sweep diverged:\nserial:   %+v\nparallel: %+v",
			dump(want), dump(got))
	}
}

// TestHarnessSharedRace hammers one harness from 8 goroutines that call
// Candidates, MDESAt and CompileOn on overlapping applications and
// budgets. It asserts nothing beyond error-freedom and cache coherence —
// its job is to give `go test -race` the interleavings that would expose
// an unguarded cache or a lazily mutated shared candidate list.
func TestHarnessSharedRace(t *testing.T) {
	h := NewHarness()
	apps := []string{"blowfish", "sha"}
	budgets := []float64{2, 5}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := apps[g%len(apps)]
			other := apps[(g+1)%len(apps)]
			budget := budgets[g%len(budgets)]
			switch g % 4 {
			case 0:
				_, errs[g] = h.Candidates(app)
			case 1:
				_, errs[g] = h.MDESAt(app, budget)
			case 2:
				_, errs[g] = h.CompileOn(app, other, budget)
			default:
				cfg := h.config()
				cfg.UseVariants, cfg.UseOpcodeClasses = true, true
				_, errs[g] = h.compileOn(app, app, budget, cfg)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	// The memo must have produced one candidate list per app: a second
	// call returns the identical slice.
	for _, app := range apps {
		c1, err := h.Candidates(app)
		if err != nil {
			t.Fatal(err)
		}
		c2, _ := h.Candidates(app)
		if len(c1) == 0 || &c1[0] != &c2[0] {
			t.Fatalf("%s: candidates recomputed instead of memoized", app)
		}
	}
}

// TestParallelErrorsJoinAll pins the error contract of the worker pool:
// every failing job is reported (joined curve by curve, each in budget
// order, although the sweep issues jobs budget-major), the text names the
// failing benchmark, and serial and parallel runs produce the identical
// joined error whatever the interleaving.
func TestParallelErrorsJoinAll(t *testing.T) {
	budgets := []float64{1, 2, 3, 4}
	par := NewHarness()
	par.Parallelism = 8
	_, perr := par.Sweep("bogus", "bogus", budgets)
	if perr == nil {
		t.Fatal("expected unknown-benchmark error")
	}
	if !strings.Contains(perr.Error(), "bogus") {
		t.Fatalf("error does not name the failing benchmark: %q", perr)
	}
	// One entry per failed job, not just the first.
	if got := strings.Count(perr.Error(), "at budget"); got != len(budgets) {
		t.Fatalf("joined error reports %d of %d job failures:\n%v", got, len(budgets), perr)
	}
	ser := NewHarness()
	ser.Parallelism = 1
	_, serr := ser.Sweep("bogus", "bogus", budgets)
	if serr == nil || perr.Error() != serr.Error() {
		t.Fatalf("parallel joined error differs from serial:\nparallel: %v\nserial:   %v", perr, serr)
	}

	// A failing benchmark in the middle of a domain: its jobs are spread
	// across the interleaved schedule, but the join lists them in budget
	// order and only its curve carries an Err, its first failure.
	apps, err := domainApps(workloads.DomainAudio)
	if err != nil {
		t.Fatal(err)
	}
	mid := apps[len(apps)/2]
	restore, err := faultinject.Enable("compile:" + mid + "=error")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	var joined []string
	for _, j := range []int{1, 2, 8} {
		h := NewHarness()
		h.Parallelism = j
		rs, err := h.Fig7Native(workloads.DomainAudio, budgets)
		if err == nil {
			t.Fatalf("-j %d: expected the injected failure", j)
		}
		var want []string
		for _, b := range budgets {
			want = append(want, fmt.Sprintf("benchmark %s on %s at budget %g: ", mid, mid, b))
		}
		lines := strings.Split(err.Error(), "\n")
		if len(lines) != len(want) {
			t.Fatalf("-j %d: joined %d errors, want %d:\n%v", j, len(lines), len(want), err)
		}
		for i, line := range lines {
			if !strings.HasPrefix(line, want[i]) {
				t.Fatalf("-j %d: joined error %d is %q, want prefix %q", j, i, line, want[i])
			}
		}
		for _, r := range rs {
			switch {
			case r.App == mid && (r.Err == nil || !strings.HasPrefix(r.Err.Error(), want[0])):
				t.Fatalf("-j %d: %s curve Err = %v, want its budget-%g failure", j, mid, r.Err, budgets[0])
			case r.App != mid && r.Err != nil:
				t.Fatalf("-j %d: healthy curve %s has Err %v", j, r.App, r.Err)
			}
		}
		joined = append(joined, err.Error())
	}
	if joined[0] != joined[1] || joined[0] != joined[2] {
		t.Fatalf("joined error depends on -j:\n%s", strings.Join(joined, "\n--\n"))
	}
}

// TestPoolCountsMemoWaitSeparately makes two jobs contend on one memo
// cell: job 1 asks for the value while job 0 is still computing it. The
// time job 1 spends blocked must land in pool.wait_ns, not in
// pool.busy_ns or AggregateJobTime.
func TestPoolCountsMemoWaitSeparately(t *testing.T) {
	const hold = 100 * time.Millisecond
	h := NewHarness()
	h.Parallelism = 2
	h.Telemetry = telemetry.New("test")
	var mu sync.Mutex
	cells := make(map[string]*memoCell[int])
	computing, asking := make(chan struct{}), make(chan struct{})
	err := h.parallelFor(2, func(i int) error {
		if i == 1 {
			// Ask only once job 0 holds the cell; job 0 in turn keeps
			// computing until job 1 is about to ask.
			<-computing
			close(asking)
		}
		_, _, err := memoize(&mu, cells, "k", &h.waitNanos, func() (int, error) {
			close(computing)
			<-asking
			time.Sleep(hold)
			return 1, nil
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	c := h.Telemetry.Snapshot().Counters
	busy, wait, capacity := c["pool.busy_ns"], c["pool.wait_ns"], c["pool.capacity_ns"]
	if wait < int64(hold/2) {
		t.Fatalf("pool.wait_ns = %v, want about %v of blocked time", time.Duration(wait), hold)
	}
	if busy != int64(h.AggregateJobTime()) {
		t.Fatalf("pool.busy_ns %v != AggregateJobTime %v", time.Duration(busy), h.AggregateJobTime())
	}
	if busy+wait > capacity {
		t.Fatalf("busy %v + wait %v exceed capacity %v", time.Duration(busy), time.Duration(wait), time.Duration(capacity))
	}
}
