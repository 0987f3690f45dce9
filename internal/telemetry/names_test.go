package telemetry

import (
	"strings"
	"testing"
)

// The resilience counter names are a wire contract between iscd,
// isccluster, dashboards, and the CI smoke jobs: this test pins the
// literal values so a rename is a deliberate, reviewed change.
func TestResilienceCounterNamesAreStable(t *testing.T) {
	want := map[string]string{
		CounterShed:     "resilience.shed",
		CounterDegraded: "resilience.degraded",
		CounterRetry:    "resilience.retry",
		CounterFailover: "resilience.failover",
	}
	for got, expect := range want {
		if got != expect {
			t.Errorf("counter constant = %q, want %q", got, expect)
		}
	}
	list := ResilienceCounters()
	if len(list) != len(want) {
		t.Fatalf("ResilienceCounters lists %d names, want %d", len(list), len(want))
	}
	seen := map[string]bool{}
	for _, name := range list {
		if _, ok := want[name]; !ok {
			t.Errorf("ResilienceCounters lists unknown name %q", name)
		}
		if seen[name] {
			t.Errorf("ResilienceCounters lists %q twice", name)
		}
		seen[name] = true
	}
}

// Every canonical resilience counter must appear on a rendered metrics
// page even when it never fired, so scrapers can rely on the line
// existing with value 0.
func TestWritePrometheusAlwaysEmitsResilienceCounters(t *testing.T) {
	r := New("test")
	r.Add(CounterRetry, 3)
	r.SetGauge("replicas.healthy", 2)
	var sb strings.Builder
	r.Snapshot().WritePrometheus(&sb, "isccluster")
	page := sb.String()
	for _, want := range []string{
		"isccluster_resilience_shed 0\n",
		"isccluster_resilience_degraded 0\n",
		"isccluster_resilience_retry 3\n",
		"isccluster_resilience_failover 0\n",
		"isccluster_replicas_healthy 2\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q:\n%s", want, page)
		}
	}
}

func TestMetricNameFlattening(t *testing.T) {
	if got := MetricName("server.cache.skip-truncated"); got != "server_cache_skip_truncated" {
		t.Errorf("MetricName = %q", got)
	}
}
