package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", s, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestLatencyStats(t *testing.T) {
	for _, c := range []struct {
		sorted         []float64
		p50, mean, p90 float64
	}{
		// A run of four sweeps reports its slowest as the tail.
		{[]float64{1, 2, 3, 10}, 2.5, 4, 10},
		{seq(10), 5.5, 5.5, 9},
		// From 100 samples up the 90th percentile has at least ten beyond it.
		{seq(100), 50.5, 50.5, 90},
		{seq(1800), 900.5, 900.5, 1620},
	} {
		got := latencyStats(c.sorted)
		want := map[string]float64{"latency_p50_ms": c.p50, "latency_mean_ms": c.mean, "latency_p90_ms": c.p90}
		for k, w := range want {
			if math.Abs(got[k]-w) > 1e-9 {
				t.Errorf("latencyStats(%d samples)[%s] = %g, want %g", len(c.sorted), k, got[k], w)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{2, 9}, 0.25, 5.5, 10.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
