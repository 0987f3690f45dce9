package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry must report disabled")
	}
	r.StartSpan("x")() // must not panic
	r.Span("y", func() {})
	r.Add("c", 3)
	r.AddHitMiss("m", true)
	r.SetGauge("g", 1)
	r.MaxGauge("g", 2)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Spans) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

func TestCountersAndGauges(t *testing.T) {
	r := New("test")
	r.Add("a", 2)
	r.Add("a", 3)
	r.AddHitMiss("memo", true)
	r.AddHitMiss("memo", true)
	r.AddHitMiss("memo", false)
	r.SetGauge("workers", 8)
	r.MaxGauge("peak", 3)
	r.MaxGauge("peak", 1)
	s := r.Snapshot()
	if s.Counters["a"] != 5 {
		t.Fatalf("a = %d, want 5", s.Counters["a"])
	}
	if s.Counters["memo.hit"] != 2 || s.Counters["memo.miss"] != 1 {
		t.Fatalf("memo hit/miss = %d/%d, want 2/1", s.Counters["memo.hit"], s.Counters["memo.miss"])
	}
	if s.Gauges["workers"] != 8 || s.Gauges["peak"] != 3 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
}

func TestSpanAggregation(t *testing.T) {
	r := New("test")
	for i := 0; i < 3; i++ {
		r.Span("stage", func() { time.Sleep(time.Millisecond) })
	}
	s := r.Snapshot()
	if len(s.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(s.Spans))
	}
	sp := s.Spans[0]
	if sp.Name != "stage" || sp.Count != 3 {
		t.Fatalf("span = %+v", sp)
	}
	if sp.WallNS < 3*int64(time.Millisecond) {
		t.Fatalf("wall = %d, want >= 3ms", sp.WallNS)
	}
	if sp.MinNS <= 0 || sp.MaxNS < sp.MinNS || sp.WallNS < sp.MaxNS {
		t.Fatalf("min/max/wall inconsistent: %+v", sp)
	}
}

// TestConcurrentAggregatesCommute checks that the same work recorded from
// many goroutines yields the same counter totals as serially — the
// determinism guarantee the harness relies on across -j settings.
func TestConcurrentAggregatesCommute(t *testing.T) {
	r := New("test")
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("n", 1)
				r.MaxGauge("m", float64(i%7))
				r.Span("s", func() {})
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["n"] != 16000 {
		t.Fatalf("n = %d, want 16000", s.Counters["n"])
	}
	if s.Gauges["m"] != 6 {
		t.Fatalf("m = %g, want 6", s.Gauges["m"])
	}
	if s.Spans[0].Count != 16000 {
		t.Fatalf("span count = %d, want 16000", s.Spans[0].Count)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := New("iscsweep")
	r.Add("pool.busy_ns", 900)
	r.Add("pool.capacity_ns", 1000)
	r.SetGauge("pool.workers", 4)
	r.Span("compile", func() {})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tool != "iscsweep" || s.Counters["pool.busy_ns"] != 900 || len(s.Spans) != 1 {
		t.Fatalf("round trip lost data: %+v", s)
	}
	if err := r.WriteFile(filepath.Join(path, "not-a-dir", "trace.json")); err == nil {
		t.Error("WriteFile into a missing directory reported no error")
	}
}

func TestSummaryRendersStagesAndUtilization(t *testing.T) {
	r := New("t")
	r.Span("explore", func() {})
	r.Add("pool.busy_ns", 500)
	r.Add("pool.wait_ns", 250)
	r.Add("pool.capacity_ns", 1000)
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"telemetry: t", "explore", "pool.busy_ns", "pool utilization: 50.0%", "25.0% blocked on shared work"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestServePprof(t *testing.T) {
	if err := ServePprof("127.0.0.1:0"); err != nil {
		t.Fatalf("ServePprof: %v", err)
	}
	if err := ServePprof("256.0.0.1:bad"); err == nil {
		t.Fatal("bad address must error")
	}
}

func TestProcessCPUAdvances(t *testing.T) {
	c := processCPU()
	if c < 0 {
		t.Fatalf("processCPU = %v", c)
	}
}
