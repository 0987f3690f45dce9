package loadgen

import (
	"sort"
	"sync"
	"time"
)

// Outcome is one completed request as the generator saw it.
type Outcome struct {
	// Spec and SLO attribute the request; Bench names its input.
	Spec  string
	SLO   string
	Bench string
	// Latency is wall time from send to last body byte.
	Latency time.Duration
	// Status is the HTTP status (0 = transport error).
	Status int
	// Shed is a 503 refusal; Truncated an anytime best-so-far result;
	// CacheHit an X-Iscd-Cache: hit; Degraded the cluster's shrunken-
	// deadline marker.
	Shed      bool
	Truncated bool
	CacheHit  bool
	Degraded  bool
	// Attempts and Failovers come from the X-Isccluster-* headers (zero
	// against a bare iscd).
	Attempts  int
	Failovers int
	// CorpusHits and CorpusMisses come from the X-Iscd-Corpus header: how
	// many blocks the replica replayed from (or searched into) its
	// exploration corpus for this request. Both zero on cache hits (no
	// pipeline ran) and against corpus-free replicas.
	CorpusHits   int
	CorpusMisses int
}

// ClassStats aggregates outcomes for one SLO class (or the whole run).
type ClassStats struct {
	// Class is "gold", "silver", "bronze", or "all".
	Class string `json:"class"`
	// Count is everything sent; OK is 2xx; Errors is 5xx plus transport
	// failures; Shed is 503 admission/drain refusals (not errors: the
	// contract is an explicit, retryable refusal).
	Count  int `json:"count"`
	OK     int `json:"ok"`
	Errors int `json:"errors"`
	Shed   int `json:"shed"`
	// Truncated counts degraded-quality (best-so-far) responses;
	// Degraded counts requests the cluster admitted with a shrunken
	// deadline; CacheHits counts replies served from a replica cache.
	Truncated int `json:"truncated"`
	Degraded  int `json:"degraded"`
	CacheHits int `json:"cache_hits"`
	// Retries and Failovers sum the per-request attempt surplus and
	// replica switches.
	Retries   int `json:"retries"`
	Failovers int `json:"failovers"`
	// CorpusHits and CorpusMisses sum the per-request X-Iscd-Corpus
	// counters: blocks replayed from (vs searched into) the replicas'
	// exploration corpora on behalf of this class.
	CorpusHits   int `json:"corpus_hits"`
	CorpusMisses int `json:"corpus_misses"`
	// Latency quantiles in milliseconds over all completed (non-transport-
	// error) requests.
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MeanMS float64 `json:"mean_ms"`
	// TruncationRate and ShedRate are Truncated/Count and Shed/Count.
	TruncationRate float64 `json:"truncation_rate"`
	ShedRate       float64 `json:"shed_rate"`
}

// Report is a load run's result: per-class and aggregate stats, written
// as JSON by iscload.
type Report struct {
	// Target is the URL the run hit; Label tags the run ("healthy",
	// "degraded").
	Target string `json:"target"`
	Label  string `json:"label,omitempty"`
	// WallSeconds is the run's duration; Sent the total requests fired.
	WallSeconds float64 `json:"wall_seconds"`
	Sent        int     `json:"sent"`
	// All aggregates every class; Classes holds gold/silver/bronze rows
	// (only classes that sent traffic).
	All     ClassStats   `json:"all"`
	Classes []ClassStats `json:"classes"`
}

// Recorder collects outcomes concurrently.
type Recorder struct {
	mu       sync.Mutex
	outcomes []Outcome
}

// Record adds one outcome.
func (r *Recorder) Record(o Outcome) {
	r.mu.Lock()
	r.outcomes = append(r.outcomes, o)
	r.mu.Unlock()
}

// Outcomes snapshots everything recorded so far.
func (r *Recorder) Outcomes() []Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Outcome(nil), r.outcomes...)
}

// Build renders the report for a finished run.
func (r *Recorder) Build(target string, wall time.Duration) *Report {
	outcomes := r.Outcomes()
	rep := &Report{
		Target:      target,
		WallSeconds: wall.Seconds(),
		Sent:        len(outcomes),
		All:         buildClass("all", outcomes),
	}
	for _, class := range []string{"gold", "silver", "bronze"} {
		var subset []Outcome
		for _, o := range outcomes {
			if o.SLO == class {
				subset = append(subset, o)
			}
		}
		if len(subset) > 0 {
			rep.Classes = append(rep.Classes, buildClass(class, subset))
		}
	}
	return rep
}

func buildClass(name string, outcomes []Outcome) ClassStats {
	st := ClassStats{Class: name, Count: len(outcomes)}
	var lat []float64
	var sum float64
	for _, o := range outcomes {
		switch {
		case o.Shed:
			st.Shed++
		case o.Status == 0 || o.Status >= 500:
			st.Errors++
		case o.Status < 300:
			st.OK++
		}
		if o.Truncated {
			st.Truncated++
		}
		if o.Degraded {
			st.Degraded++
		}
		if o.CacheHit {
			st.CacheHits++
		}
		if o.Attempts > 1 {
			st.Retries += o.Attempts - 1
		}
		st.Failovers += o.Failovers
		st.CorpusHits += o.CorpusHits
		st.CorpusMisses += o.CorpusMisses
		if o.Status != 0 {
			ms := float64(o.Latency) / float64(time.Millisecond)
			lat = append(lat, ms)
			sum += ms
		}
	}
	sort.Float64s(lat)
	st.P50MS = quantile(lat, 0.50)
	st.P99MS = quantile(lat, 0.99)
	st.P999MS = quantile(lat, 0.999)
	if len(lat) > 0 {
		st.MeanMS = sum / float64(len(lat))
	}
	if st.Count > 0 {
		st.TruncationRate = float64(st.Truncated) / float64(st.Count)
		st.ShedRate = float64(st.Shed) / float64(st.Count)
	}
	return st
}

// quantile reads the q-quantile from an ascending sample via the
// nearest-rank method (empty samples read 0).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
