package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkFile is the subset of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func asFileMetrics(ms []metric, withBound bool) []fileMetric {
	var out []fileMetric
	for _, m := range ms {
		fm := fileMetric{Name: m.name, Unit: m.unit, Better: "higher"}
		if m.lowerIsBetter {
			fm.Better = "lower"
		}
		if withBound {
			fm.Bound = &m.bound
		}
		out = append(out, fm)
	}
	return out
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program's
// metric tables in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	if got, want := f.EndToEnd, asFileMetrics(endToEnd, true); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's table")
	}
	if got, want := f.PerLayer, asFileMetrics(perLayer, false); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's table")
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its unit,
// and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	f := readBenchmarkFile(t)
	cfg := defaultConfig(7, time.Second)
	cfg.setups = 1
	cfg.calibRounds = 1
	// The cheapest domain and three of the cheapest benchmarks.
	cfg.domains = []string{"video"}
	cfg.benches = []string{"url", "djpeg", "edgedetect"}
	cfg.missRounds = 2
	cfg.replayJobs = 3
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(name, cfg, trace, "")
			if err != nil {
				t.Fatalf("%s (trace %t): %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %t): correct %t, %d of %d operations failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %t): %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s (trace %t): metric %s = %+v, want unit %s", name, trace, m.Name, v, m.Unit)
				}
			}
		}
	}
}
