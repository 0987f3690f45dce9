package loadgen

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("slo=gold,rate=20,n=100,bench=crc+sha,budget=7,deadline_ms=1500,name=vip")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Name: "vip", SLO: "gold", Rate: 20,
		Benchmarks: []string{"crc", "sha"}, Requests: 100, Budget: 7, DeadlineMS: 1500,
	}
	if spec.Name != want.Name || spec.SLO != want.SLO || spec.Rate != want.Rate ||
		spec.Requests != want.Requests || spec.Budget != want.Budget ||
		spec.DeadlineMS != want.DeadlineMS || len(spec.Benchmarks) != 2 {
		t.Errorf("ParseSpec = %+v, want %+v", spec, want)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("rate=5,n=10")
	if err != nil {
		t.Fatal(err)
	}
	if spec.SLO != "silver" || spec.Name != "silver" || spec.Budget != 5 {
		t.Errorf("defaults: %+v", spec)
	}
	// Default mix: 16 seed benchmarks + sha-x16.
	if len(spec.Benchmarks) != 17 {
		t.Errorf("default mix has %d entries, want 17: %v", len(spec.Benchmarks), spec.Benchmarks)
	}
	found := false
	for _, b := range spec.Benchmarks {
		if b == "sha-x16" {
			found = true
		}
	}
	if !found {
		t.Error("default mix is missing sha-x16")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",                           // no rate/n
		"rate=5",                     // no n
		"rate=0,n=10",                // bad rate
		"rate=5,n=10,slo=platinum",   // bad slo
		"rate=5,n=10,bench=nonesuch", // unknown benchmark
		"rate=5,n=10,bench=crc-xq",   // bad unroll factor
		"rate=5,n=10,frobnicate=1",   // unknown key
		"rate=5,n=10,arrivals=gamma", // unknown key: arrivals are Poisson
		"rate=5,n=10,shape=0.5",      // unknown key
		"rate=five,n=10",             // unparsable number
	} {
		spec, err := ParseSpec(bad)
		if err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want error", bad, spec)
		}
	}
}

// The synthetic unrolled benchmark must serialize to parseable program
// text, not a benchmark name.
func TestRequestBodySyntheticBenchmark(t *testing.T) {
	spec, err := ParseSpec("rate=5,n=1,bench=sha-x16,slo=bronze")
	if err != nil {
		t.Fatal(err)
	}
	body, err := spec.requestBody(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"program":`) || strings.Contains(string(body), `"benchmark"`) {
		t.Errorf("sha-x16 body does not carry program text: %.120s", body)
	}
	if !strings.Contains(string(body), `"slo":"bronze"`) {
		t.Errorf("body missing slo: %.120s", body)
	}
}

// A synth:<spec> mix entry must generate the program, serialize it as
// text, and reject bad specs at parse time like any other bad benchmark.
func TestRequestBodySynthBenchmark(t *testing.T) {
	spec, err := ParseSpec("rate=5,n=1,bench=synth:seed=3:blocks=2:ops=40")
	if err != nil {
		t.Fatal(err)
	}
	body, err := spec.requestBody(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"program":`) || strings.Contains(string(body), `"benchmark"`) {
		t.Errorf("synth body does not carry program text: %.120s", body)
	}
	again, err := spec.requestBody(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(again) {
		t.Error("synth program text not deterministic across requests")
	}
	if _, err := ParseSpec("rate=5,n=1,bench=synth:bogus=1"); err == nil {
		t.Error("bad synth spec accepted")
	}
}

// Poisson arrivals must hit their configured mean rate and be
// reproducible for a fixed seed.
func TestArrivalsMeanRate(t *testing.T) {
	a, err := NewArrivals(ArrivalPoisson, 100, 0, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		sum += a.Next()
	}
	if mean := sum.Seconds() / n; math.Abs(mean-0.01) > 0.002 {
		t.Errorf("mean gap %.5fs, want ~0.01s", mean)
	}

	a1, _ := NewArrivals(ArrivalPoisson, 10, 0, rand.New(rand.NewSource(7)))
	a2, _ := NewArrivals(ArrivalPoisson, 10, 0, rand.New(rand.NewSource(7)))
	for i := 0; i < 100; i++ {
		if a1.Next() != a2.Next() {
			t.Fatal("same seed, different arrival schedule")
		}
	}
}

// NewArrivals builds only Poisson arrivals at a positive rate.
func TestNewArrivalsRejects(t *testing.T) {
	for _, c := range []struct {
		kind        string
		rate, shape float64
	}{
		{"gamma", 10, 0},
		{"uniform", 10, 0},
		{ArrivalPoisson, 10, 0.5},
		{ArrivalPoisson, 0, 0},
		{"", -1, 0},
	} {
		if _, err := NewArrivals(c.kind, c.rate, c.shape, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("NewArrivals(%q, %g, %g) accepted", c.kind, c.rate, c.shape)
		}
	}
	if _, err := NewArrivals("", 10, 0, rand.New(rand.NewSource(1))); err != nil {
		t.Errorf(`NewArrivals("") = %v, want Poisson`, err)
	}
}

// An open-loop run against a stub service must send every request, track
// shed/truncated/cache/attempt attribution from headers and body, and
// report per-class quantiles.
func TestRunnerAgainstStub(t *testing.T) {
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		switch {
		case n%5 == 0:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"shed"}`))
		case n%3 == 0:
			w.Header().Set("X-Iscd-Cache", "hit")
			w.Header().Set("X-Isccluster-Attempts", "2")
			w.Header().Set("X-Isccluster-Failovers", "1")
			w.Write([]byte(`{"speedup":1.5,"truncated": true}`))
		default:
			w.Write([]byte(`{"speedup":1.5}`))
		}
	}))
	defer stub.Close()

	spec, err := ParseSpec("slo=gold,rate=500,n=40,bench=crc")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Target: stub.URL, Specs: []Spec{spec}, Seed: 3}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 40 {
		t.Fatalf("sent %d, want 40", rep.Sent)
	}
	if len(rep.Classes) != 1 || rep.Classes[0].Class != "gold" {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	g := rep.Classes[0]
	if g.Shed != 8 {
		t.Errorf("shed = %d, want 8", g.Shed)
	}
	if g.Truncated == 0 || g.CacheHits == 0 || g.Retries == 0 || g.Failovers == 0 {
		t.Errorf("attribution not tracked: %+v", g)
	}
	if g.OK+g.Shed+g.Errors != g.Count {
		t.Errorf("outcome classes do not partition: %+v", g)
	}
	if g.P50MS <= 0 || g.P99MS < g.P50MS || g.P999MS < g.P99MS {
		t.Errorf("quantiles not ordered: p50=%.2f p99=%.2f p999=%.2f", g.P50MS, g.P99MS, g.P999MS)
	}
	if rep.All.Count != 40 {
		t.Errorf("aggregate count = %d", rep.All.Count)
	}
}

// Cancelling the context stops the run early without failing it.
func TestRunnerHonorsContext(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer stub.Close()
	spec, err := ParseSpec("rate=10,n=100000,bench=crc")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	rep, err := (&Runner{Target: stub.URL, Specs: []Spec{spec}, Seed: 1}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent >= 100000 {
		t.Error("context cancellation did not stop the run")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(xs, 0.5); q != 5 {
		t.Errorf("p50 = %g, want 5", q)
	}
	if q := quantile(xs, 0.99); q != 10 {
		t.Errorf("p99 = %g, want 10", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
}
