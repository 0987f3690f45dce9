package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// testFleet is N in-process iscd replicas behind one router.
type testFleet struct {
	cluster  *Cluster
	tel      *telemetry.Registry
	front    *httptest.Server
	backends []*httptest.Server
	servers  []*server.Server
}

// startFleet boots n real replicas (named r1..rn) and a router over them.
// The caller's cfg is completed with the replica list and fast test
// timings; the fleet tears itself down with the test.
func startFleet(t *testing.T, n int, cfg Config) *testFleet {
	t.Helper()
	f := &testFleet{tel: cfg.Telemetry}
	if f.tel == nil {
		f.tel = telemetry.New("isccluster")
		cfg.Telemetry = f.tel
	}
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{
			Name:          fmt.Sprintf("r%d", i+1),
			MaxConcurrent: 2,
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, srv)
		f.backends = append(f.backends, ts)
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{Name: fmt.Sprintf("r%d", i+1), URL: ts.URL})
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 5 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.cluster = c
	c.Start()
	t.Cleanup(c.Close)
	f.front = httptest.NewServer(c.Handler())
	t.Cleanup(f.front.Close)
	return f
}

func postCluster(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/customize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func counter(tel *telemetry.Registry, name string) int64 {
	return tel.Snapshot().Counters[name]
}

// A healthy fleet must serve a request and, because affinity routing pins
// a fingerprint to one replica, serve the repeat from that replica's
// cache byte-identically.
func TestClusterServesAndShardsCache(t *testing.T) {
	f := startFleet(t, 3, Config{})
	req := `{"benchmark":"crc","budget":5,"slo":"gold","deadline_ms":60000}`

	resp1, body1 := postCluster(t, f.front.URL, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp1.StatusCode, body1)
	}
	rep1 := resp1.Header.Get("X-Isccluster-Replica")
	if rep1 == "" {
		t.Fatal("response does not name its replica")
	}
	if got := resp1.Header.Get("X-Isccluster-SLO"); got != "gold" {
		t.Errorf("X-Isccluster-SLO = %q, want gold", got)
	}

	resp2, body2 := postCluster(t, f.front.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Isccluster-Replica"); got != rep1 {
		t.Errorf("affinity routing moved the repeat: %q then %q", rep1, got)
	}
	if got := resp2.Header.Get("X-Iscd-Cache"); got != "hit" {
		t.Errorf("repeat X-Iscd-Cache = %q, want hit", got)
	}
	if string(body1) != string(body2) {
		t.Error("cached repeat is not byte-identical")
	}
}

// A replica that 500s every request must be failed past — the request
// succeeds elsewhere, the failover counter moves, and enough strikes open
// the sick replica's breaker.
func TestFailoverPastFlakyReplica(t *testing.T) {
	f := startFleet(t, 3, Config{})
	req := `{"benchmark":"sha","budget":5,"slo":"gold","deadline_ms":60000}`

	// Find the replica affinity would pick and make exactly it sick.
	preq, _, err := ParseRequest([]byte(req), 0)
	if err != nil {
		t.Fatal(err)
	}
	primary := f.cluster.ring.Sequence(preq.Key)[0]
	restore, err := faultinject.Enable("replica:" + primary.Name + "=flaky:1")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()

	resp, body := postCluster(t, f.front.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request with sick primary: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Isccluster-Replica"); got == primary.Name {
		t.Errorf("request served by the sick replica %q", got)
	}
	if resp.Header.Get("X-Isccluster-Failovers") == "0" {
		t.Error("failover header is 0 after failing over")
	}
	if counter(f.tel, telemetry.CounterFailover) == 0 {
		t.Error("failover counter did not move")
	}
	if counter(f.tel, telemetry.CounterRetry) == 0 {
		t.Error("retry counter did not move")
	}

	// Two more requests pin the primary's breaker open (threshold 3).
	for i := 0; i < 4; i++ {
		postCluster(t, f.front.URL, req)
	}
	if primary.Breaker().State() != "open" {
		t.Errorf("sick primary breaker = %q, want open", primary.Breaker().State())
	}
}

// Draining replicas are alive, not dead: the router re-routes their
// Retry-After 503s to another replica without a breaker strike.
func TestDrainReroutesWithoutTrippingBreaker(t *testing.T) {
	f := startFleet(t, 2, Config{})
	req := `{"benchmark":"djpeg","budget":5,"slo":"silver","deadline_ms":60000}`
	preq, _, err := ParseRequest([]byte(req), 0)
	if err != nil {
		t.Fatal(err)
	}
	primary := f.cluster.ring.Sequence(preq.Key)[0]
	var draining *server.Server
	for i, rep := range f.cluster.Replicas() {
		if rep == primary {
			draining = f.servers[i]
		}
	}
	draining.Shutdown(context.Background()) // flips the drain flag; no inflight work
	// Wait for the health loop to observe the drain.
	deadline := time.Now().Add(2 * time.Second)
	for !primary.Draining() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !primary.Draining() {
		t.Fatal("health loop never observed the drain")
	}

	resp, body := postCluster(t, f.front.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request during drain: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Isccluster-Replica"); got == primary.Name {
		t.Errorf("pipeline request routed to the draining replica %q", got)
	}
	if primary.Breaker().State() != "closed" {
		t.Errorf("drain tripped the breaker: %q", primary.Breaker().State())
	}
}

// A dead replica (connection refused) must be marked down by the health
// loop and skipped by routing.
func TestHealthLoopDownsDeadReplica(t *testing.T) {
	f := startFleet(t, 3, Config{})
	dead := f.cluster.Replicas()[1]
	f.backends[1].Close()

	deadline := time.Now().Add(2 * time.Second)
	for dead.State() != Down && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if dead.State() != Down {
		t.Fatal("health loop never downed the dead replica")
	}

	// Every request still succeeds, served by the survivors.
	for _, bench := range []string{"crc", "sha", "rijndael"} {
		req := fmt.Sprintf(`{"benchmark":%q,"budget":5,"slo":"gold","deadline_ms":60000}`, bench)
		resp, body := postCluster(t, f.front.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s with a dead replica: status %d: %s", bench, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Isccluster-Replica"); got == dead.Name {
			t.Errorf("%s served by the dead replica", bench)
		}
	}

	// /healthz reports the asymmetry.
	resp, err := http.Get(f.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status   string `json:"status"`
		Replicas []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Errorf("cluster status = %q, want degraded", health.Status)
	}
}

// Tight admission: bronze must shed with Retry-After while gold, borrowing
// bronze's refused capacity, is still served — possibly degraded, never
// 503.
func TestAdmissionShedsBronzeBeforeGold(t *testing.T) {
	f := startFleet(t, 2, Config{
		Admission: AdmissionConfig{
			Gold:     ClassLimits{Rate: 0.001, Burst: 2},
			Silver:   ClassLimits{Rate: 0.001, Burst: 1},
			Bronze:   ClassLimits{Rate: 0.001, Burst: 1},
			Degraded: ClassLimits{Rate: 0.001, Burst: 1},
		},
	})
	req := func(slo string) string {
		return fmt.Sprintf(`{"benchmark":"crc","budget":5,"slo":%q,"deadline_ms":60000}`, slo)
	}

	// Burn bronze's bucket and the shared pool.
	for i := 0; i < 2; i++ {
		postCluster(t, f.front.URL, req("bronze"))
	}
	resp, _ := postCluster(t, f.front.URL, req("bronze"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third bronze: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 503 carries no Retry-After")
	}

	// Gold still lands: its own burst (2), the shared pool is gone, then a
	// borrowed silver token — three admissions after bronze started
	// shedding.
	for i := 0; i < 3; i++ {
		resp, body := postCluster(t, f.front.URL, req("gold"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gold %d during overload: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if counter(f.tel, telemetry.CounterShed) == 0 {
		t.Error("shed counter did not move")
	}
	if counter(f.tel, telemetry.CounterDegraded) == 0 {
		t.Error("degraded counter did not move")
	}
	if counter(f.tel, "slo.bronze.shed") == 0 {
		t.Error("per-class shed counter did not move")
	}
}

// Degraded admission must shrink the forwarded deadline, not reject: the
// response arrives (possibly Truncated) with the degraded marker.
func TestDegradedAdmissionShrinksDeadline(t *testing.T) {
	f := startFleet(t, 1, Config{
		Admission: AdmissionConfig{
			Silver:   ClassLimits{Rate: 0.001, Burst: 1},
			Degraded: ClassLimits{Rate: 0.001, Burst: 5},
		},
	})
	req := `{"benchmark":"crc","budget":5,"slo":"silver","deadline_ms":60000}`
	postCluster(t, f.front.URL, req) // burns silver's burst

	resp, body := postCluster(t, f.front.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Isccluster-Degraded") != "1" {
		t.Error("degraded request not marked X-Isccluster-Degraded")
	}
}

// The metrics page must carry the canonical resilience counters and the
// replica-state gauges in iscd-compatible Prometheus text.
func TestClusterMetricsPage(t *testing.T) {
	f := startFleet(t, 2, Config{})
	postCluster(t, f.front.URL, `{"benchmark":"crc","budget":5,"deadline_ms":60000}`)
	resp, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"isccluster_up 1",
		"isccluster_replicas 2",
		"isccluster_replicas_healthy 2",
		"isccluster_resilience_shed 0",
		"isccluster_resilience_retry 0",
		"isccluster_resilience_failover 0",
		"isccluster_resilience_degraded 0",
		"isccluster_slo_silver_requests 1",
		"isccluster_cluster_requests 1",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// Benchmarks proxying: the cluster answers /v1/benchmarks like any
// replica would.
func TestClusterBenchmarksProxy(t *testing.T) {
	f := startFleet(t, 2, Config{})
	resp, err := http.Get(f.front.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "blowfish") {
		t.Errorf("benchmarks proxy: status %d body %.80s", resp.StatusCode, body)
	}
}

// Bad requests die at the router without consuming replica capacity.
func TestClusterRejectsBadRequests(t *testing.T) {
	f := startFleet(t, 1, Config{})
	for body, want := range map[string]int{
		`{"benchmark":"crc","slo":"platinum"}`: http.StatusBadRequest,
		`{"benchmark":"nope"}`:                 http.StatusNotFound,
		`{]`:                                   http.StatusBadRequest,
	} {
		resp, _ := postCluster(t, f.front.URL, body)
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", body, resp.StatusCode, want)
		}
	}
	if got := counter(f.tel, "cluster.attempts"); got != 0 {
		t.Errorf("bad requests reached replicas: %d attempts", got)
	}
}

// New must reject configurations that cannot route.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty replica list")
	}
	if _, err := New(Config{Replicas: []ReplicaConfig{{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}}}); err == nil {
		t.Error("New accepted duplicate replica names")
	}
}
