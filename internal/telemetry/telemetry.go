package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Registry collects telemetry for one tool run.
type Registry struct {
	tool     string
	start    time.Time
	cpu0     time.Duration
	mu       sync.Mutex
	spans    map[string]*spanAgg
	counters map[string]int64
	gauges   map[string]float64
}

type spanAgg struct {
	count int64
	wall  time.Duration
	cpu   time.Duration
	min   time.Duration
	max   time.Duration
}

// New returns an enabled registry labeled with the tool name.
func New(tool string) *Registry {
	return &Registry{
		tool:     tool,
		start:    time.Now(),
		cpu0:     processCPU(),
		spans:    make(map[string]*spanAgg),
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
	}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// StartSpan begins one timed stage. The returned func ends the span and
// folds its wall/CPU duration into the named aggregate; call it exactly
// once (defer r.StartSpan("explore")() is the usual shape). Overlapping
// spans each see the whole process's CPU delta, so CPU attribution is only
// exact for stages that do not run concurrently with other stages.
func (r *Registry) StartSpan(name string) func() {
	if r == nil {
		return func() {}
	}
	t0, c0 := time.Now(), processCPU()
	return func() {
		wall, cpu := time.Since(t0), processCPU()-c0
		r.mu.Lock()
		a := r.spans[name]
		if a == nil {
			a = &spanAgg{min: wall}
			r.spans[name] = a
		}
		a.count++
		a.wall += wall
		a.cpu += cpu
		if wall < a.min {
			a.min = wall
		}
		if wall > a.max {
			a.max = wall
		}
		r.mu.Unlock()
	}
}

// Span times fn as one occurrence of the named stage.
func (r *Registry) Span(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	end := r.StartSpan(name)
	fn()
	end()
}

// Add increments a monotonic counter.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// AddHitMiss increments name+".hit" when hit, else name+".miss"; the
// memo-cache instrumentation shape.
func (r *Registry) AddHitMiss(name string, hit bool) {
	if hit {
		r.Add(name+".hit", 1)
	} else {
		r.Add(name+".miss", 1)
	}
}

// SetGauge records the latest value of a gauge. For determinism across
// worker counts, set gauges only to values independent of scheduling.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// MaxGauge raises a gauge to v if v exceeds its current value (max
// commutes, so concurrent updates are order-independent).
func (r *Registry) MaxGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if cur, ok := r.gauges[name]; !ok || v > cur {
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

// SpanStat is one stage's aggregate in a Snapshot.
type SpanStat struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	WallNS int64  `json:"wall_ns"`
	CPUNS  int64  `json:"cpu_ns"`
	MinNS  int64  `json:"min_ns"`
	MaxNS  int64  `json:"max_ns"`
}

// Snapshot is the exported, JSON-stable view of a registry. Spans are
// sorted by name; map keys serialize in sorted order.
type Snapshot struct {
	Tool     string             `json:"tool"`
	WallNS   int64              `json:"wall_ns"`
	CPUNS    int64              `json:"cpu_ns"`
	Spans    []SpanStat         `json:"spans"`
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Tool:     r.tool,
		WallNS:   int64(time.Since(r.start)),
		CPUNS:    int64(processCPU() - r.cpu0),
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for name, a := range r.spans {
		s.Spans = append(s.Spans, SpanStat{
			Name: name, Count: a.count,
			WallNS: int64(a.wall), CPUNS: int64(a.cpu),
			MinNS: int64(a.min), MaxNS: int64(a.max),
		})
	}
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].Name < s.Spans[j].Name })
	return s
}

// WriteJSON writes the structured trace dump (the -trace file format).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the WriteJSON dump to a new file at path.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJSON parses a trace dump written by WriteJSON.
func ReadJSON(rd io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(rd).Decode(&s); err != nil {
		return nil, fmt.Errorf("telemetry: bad trace: %w", err)
	}
	return &s, nil
}

// WriteSummary renders the human-readable per-stage report (the stderr
// companion of the -trace dump). Stages sort by total wall time descending
// so the most expensive stage leads.
func (r *Registry) WriteSummary(w io.Writer) {
	s := r.Snapshot()
	fmt.Fprintf(w, "telemetry: %s wall %v cpu %v\n", s.Tool,
		time.Duration(s.WallNS).Round(time.Millisecond),
		time.Duration(s.CPUNS).Round(time.Millisecond))
	if len(s.Spans) > 0 {
		fmt.Fprintf(w, "  %-24s %7s %12s %12s %12s\n", "stage", "count", "wall", "cpu", "avg")
		sorted := append([]SpanStat(nil), s.Spans...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].WallNS != sorted[j].WallNS {
				return sorted[i].WallNS > sorted[j].WallNS
			}
			return sorted[i].Name < sorted[j].Name
		})
		for _, sp := range sorted {
			avg := time.Duration(0)
			if sp.Count > 0 {
				avg = time.Duration(sp.WallNS / sp.Count)
			}
			fmt.Fprintf(w, "  %-24s %7d %12v %12v %12v\n", sp.Name, sp.Count,
				time.Duration(sp.WallNS).Round(time.Microsecond),
				time.Duration(sp.CPUNS).Round(time.Microsecond),
				avg.Round(time.Microsecond))
		}
	}
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "  counters:\n")
		keys := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "    %-40s %d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "  gauges:\n")
		keys := make([]string, 0, len(s.Gauges))
		for k := range s.Gauges {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "    %-40s %g\n", k, s.Gauges[k])
		}
	}
	if busy, cap := s.Counters["pool.busy_ns"], s.Counters["pool.capacity_ns"]; cap > 0 {
		fmt.Fprintf(w, "  pool utilization: %.1f%% of %v worker-time, %.1f%% blocked on shared work\n",
			100*float64(busy)/float64(cap), time.Duration(cap).Round(time.Millisecond),
			100*float64(s.Counters["pool.wait_ns"])/float64(cap))
	}
}
