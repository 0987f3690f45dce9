package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Runner drives one open-loop load run: every Spec fires concurrently at
// Target until its request count is spent or the context dies.
type Runner struct {
	// Target is the service base URL (an isccluster or a bare iscd).
	Target string
	// Specs are the client classes (at least one).
	Specs []Spec
	// Seed makes the run reproducible: arrival gaps and benchmark picks
	// derive from it (0 = 1).
	Seed int64
	// Client performs the HTTP (nil = a dedicated client; per-request
	// timeouts ride on the context).
	Client *http.Client
	// Timeout bounds one request's round trip (0 = 120s — above any sane
	// deadline, so slow responses count as latency, not errors).
	Timeout time.Duration
}

// Run executes the load run and builds its report. The context cancels
// the run early but does not fail it: the report covers whatever was
// sent.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	if len(r.Specs) == 0 {
		return nil, fmt.Errorf("loadgen: no specs")
	}
	if r.Target == "" {
		return nil, fmt.Errorf("loadgen: no target URL")
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	client := r.Client
	if client == nil {
		client = &http.Client{}
	}
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 120 * time.Second
	}

	rec := &Recorder{}
	start := time.Now()
	var wg sync.WaitGroup
	for i, spec := range r.Specs {
		// Two independent streams per spec: one clocks arrivals, one picks
		// benchmarks, so changing the mix does not perturb the schedule.
		arrivalRng := rand.New(rand.NewSource(seed + int64(i)*7919))
		pickRng := rand.New(rand.NewSource(seed + int64(i)*7919 + 1))
		arrivals, err := NewArrivals(ArrivalPoisson, spec.Rate, 0, arrivalRng)
		if err != nil {
			return nil, fmt.Errorf("loadgen: spec %s: %v", spec.Name, err)
		}
		wg.Add(1)
		go func(spec Spec) {
			defer wg.Done()
			r.runSpec(ctx, client, timeout, spec, arrivals, pickRng, rec)
		}(spec)
	}
	wg.Wait()
	return rec.Build(r.Target, time.Since(start)), nil
}

// runSpec is one spec's open loop: sleep to each scheduled arrival, fire
// the request on its own goroutine (arrivals never wait for completions),
// and record every outcome.
func (r *Runner) runSpec(ctx context.Context, client *http.Client, timeout time.Duration, spec Spec, arrivals *Poisson, pickRng *rand.Rand, rec *Recorder) {
	var inner sync.WaitGroup
	defer inner.Wait()
	next := time.Now()
	for i := 0; i < spec.Requests; i++ {
		next = next.Add(arrivals.Next())
		if wait := time.Until(next); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return
		}
		pick := pickRng.Intn(len(spec.Benchmarks))
		body, err := spec.requestBody(pick)
		if err != nil {
			rec.Record(Outcome{Spec: spec.Name, SLO: spec.SLO, Bench: spec.benchLabel(pick)})
			continue
		}
		inner.Add(1)
		go func(pick int, body []byte) {
			defer inner.Done()
			rec.Record(r.fire(ctx, client, timeout, spec, pick, body))
		}(pick, body)
	}
}

// fire sends one request and classifies the response.
func (r *Runner) fire(ctx context.Context, client *http.Client, timeout time.Duration, spec Spec, pick int, body []byte) Outcome {
	o := Outcome{Spec: spec.Name, SLO: spec.SLO, Bench: spec.benchLabel(pick)}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.Target+"/v1/customize", bytes.NewReader(body))
	if err != nil {
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		o.Latency = time.Since(start)
		return o // Status 0 = transport error
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	o.Latency = time.Since(start)
	if err != nil {
		return o
	}
	o.Status = resp.StatusCode
	o.Shed = resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != ""
	o.CacheHit = resp.Header.Get("X-Iscd-Cache") == "hit"
	o.Degraded = resp.Header.Get("X-Isccluster-Degraded") == "1"
	if v := resp.Header.Get("X-Isccluster-Attempts"); v != "" {
		o.Attempts, _ = strconv.Atoi(v)
	}
	if v := resp.Header.Get("X-Isccluster-Failovers"); v != "" {
		o.Failovers, _ = strconv.Atoi(v)
	}
	if v := resp.Header.Get("X-Iscd-Corpus"); v != "" {
		fmt.Sscanf(v, "hits=%d misses=%d", &o.CorpusHits, &o.CorpusMisses)
	}
	// The response encoder is deterministic (MarshalIndent): a truncated
	// result always carries this exact marker.
	o.Truncated = bytes.Contains(respBody, []byte(`"truncated": true`))
	return o
}
