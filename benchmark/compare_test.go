package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The comparison rules on made-up metrics: bounds of 10% keep the samples
// readable.
var (
	latency = metric{"latency_mean_ms", "ms", true, 0.10}
	rate    = metric{"sweeps_per_s", "1/s", false, 0.10}
	layer   = metric{"explore.self_s", "s", true, 0}
)

// around returns n samples alternating just below and above base.
func around(base, jitter float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = base * (1 - jitter)
		} else {
			out[i] = base * (1 + jitter)
		}
	}
	return out
}

func TestCompareMetric(t *testing.T) {
	for _, c := range []struct {
		name           string
		m              metric
		parent, change []float64
		want           string
	}{
		{"clear gain", latency, around(100, 0.01, 10), around(90, 0.01, 10), verdictGain},
		{"higher is better", rate, around(10, 0.01, 10), around(11, 0.01, 10), verdictGain},
		{"regression past the bound", latency, around(100, 0.01, 10), around(120, 0.01, 10), verdictRegression},
		{"worse within the bound", latency, around(100, 0.01, 10), around(105, 0.01, 10), verdictWithin},
		{"spread wider than the bound", latency, around(100, 0.3, 10), around(104, 0.3, 10), verdictUnresolved},
		{"noisy but every change run better", latency, around(100, 0.06, 10), around(50, 0.06, 10), verdictGain},
		{"per-layer gain", layer, around(2, 0.01, 10), around(1.5, 0.01, 10), verdictGain},
		{"per-layer loss", layer, around(2, 0.01, 10), around(2.5, 0.01, 10), verdictLoss},
		{"per-layer tie", layer, around(2, 0.01, 10), around(2, 0.01, 10), verdictNoChange},
	} {
		if got := compareMetric(c.m, c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestGainNeedsNineTenthsOfPairs: eight wins out of ten is not a gain even
// when the medians are far apart.
func TestGainNeedsNineTenthsOfPairs(t *testing.T) {
	parent := around(100, 0.01, 10)
	change := around(90, 0.01, 10)
	change[0], change[1] = 150, 150
	c := compareMetric(layer, parent, change)
	if c.wins != 8 || c.verdict != verdictNoChange {
		t.Fatalf("wins %d, verdict %q; want 8 wins and %q", c.wins, c.verdict, verdictNoChange)
	}
	change[1] = 95
	if c := compareMetric(layer, parent, change); c.wins != 9 || c.verdict != verdictGain {
		t.Fatalf("wins %d, verdict %q; want 9 wins and %q", c.wins, c.verdict, verdictGain)
	}
}

// TestGainNeedsMediansApartByMoreThanParentIQR: winning every pair by a
// hair is not a gain while the parent's own runs spread wider.
func TestGainNeedsMediansApartByMoreThanParentIQR(t *testing.T) {
	parent := around(100, 0.05, 10)
	change := make([]float64, len(parent))
	for i, p := range parent {
		change[i] = p - 1
	}
	if c := compareMetric(layer, parent, change); c.wins != 10 || c.verdict != verdictNoChange {
		t.Fatalf("wins %d, verdict %q; want 10 wins and %q", c.wins, c.verdict, verdictNoChange)
	}
}

func writeResults(t *testing.T, dir, name string, lat []float64) string {
	t.Helper()
	var lines []string
	for _, v := range lat {
		b, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]value{
			"latency_mean_ms": {v, "ms"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, "noise line", string(b))
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	parent := writeResults(t, dir, "parent.jsonl", around(100, 0.01, 10))
	var out strings.Builder
	if err := runCompare(&out, parent, writeResults(t, dir, "gain.jsonl", around(90, 0.01, 10))); err != nil {
		t.Fatalf("gain: %v", err)
	}
	if !strings.Contains(out.String(), verdictGain) {
		t.Errorf("gain: output lacks the verdict:\n%s", out.String())
	}
	if err := runCompare(&out, parent, writeResults(t, dir, "worse.jsonl", around(130, 0.01, 10))); err == nil {
		t.Error("a regression must make the comparison fail")
	}
	short := writeResults(t, dir, "short.jsonl", around(100, 0.01, 9))
	if err := runCompare(&out, short, short); err == nil {
		t.Error("fewer than ten pairs must be refused")
	}
}
