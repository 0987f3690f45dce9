package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

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
// A non-nil adm replaces the router's admission controller before it
// serves; the fleet tears itself down with the test.
func startFleet(t *testing.T, n int, adm *Admission) *testFleet {
	t.Helper()
	f := &testFleet{tel: telemetry.New("isccluster")}
	cfg := Config{Telemetry: f.tel}
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
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adm != nil {
		c.admission = adm
	}
	f.cluster = c
	c.Start()
	t.Cleanup(c.Close)
	f.front = httptest.NewServer(c.Handler())
	t.Cleanup(f.front.Close)
	return f
}

// tightAdmission is an admission controller whose buckets hold the given
// bursts and practically never refill.
func tightAdmission(gold, silver, bronze, degraded float64) *Admission {
	const rate = 0.001
	return &Admission{
		class: map[SLO]*Bucket{
			Gold:   NewBucket(rate, gold),
			Silver: NewBucket(rate, silver),
			Bronze: NewBucket(rate, bronze),
		},
		degraded: NewBucket(rate, degraded),
	}
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
	f := startFleet(t, 3, nil)
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
	f := startFleet(t, 3, nil)
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
	if primary.breaker.State() != "open" {
		t.Errorf("sick primary breaker = %q, want open", primary.breaker.State())
	}
}

// Draining replicas are alive, not dead: the router re-routes their
// Retry-After 503s to another replica without a breaker strike.
func TestDrainReroutesWithoutTrippingBreaker(t *testing.T) {
	f := startFleet(t, 2, nil)
	req := `{"benchmark":"djpeg","budget":5,"slo":"silver","deadline_ms":60000}`
	preq, _, err := ParseRequest([]byte(req), 0)
	if err != nil {
		t.Fatal(err)
	}
	primary := f.cluster.ring.Sequence(preq.Key)[0]
	var draining *server.Server
	for i, rep := range f.cluster.replicas {
		if rep == primary {
			draining = f.servers[i]
		}
	}
	draining.Shutdown(context.Background()) // flips the drain flag; no inflight work
	f.cluster.probeAll()                    // the health loop's next tick
	if !primary.Draining() {
		t.Fatal("health probe never observed the drain")
	}

	resp, body := postCluster(t, f.front.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request during drain: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Isccluster-Replica"); got == primary.Name {
		t.Errorf("pipeline request routed to the draining replica %q", got)
	}
	if primary.breaker.State() != "closed" {
		t.Errorf("drain tripped the breaker: %q", primary.breaker.State())
	}
}

// A dead replica (connection refused) must be marked down by a health
// probe and skipped by routing.
func TestHealthLoopDownsDeadReplica(t *testing.T) {
	f := startFleet(t, 3, nil)
	dead := f.cluster.replicas[1]
	f.backends[1].Close()
	f.cluster.probeAll() // the health loop's next tick
	if dead.State() != Down {
		t.Fatal("health probe never downed the dead replica")
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
	f := startFleet(t, 2, tightAdmission(2, 1, 1, 1))
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
	f := startFleet(t, 1, tightAdmission(classBurst, 1, classBurst, 5))
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

// The router forwards each class's fixed default deadline when a request
// sets none, a quarter of the deadline (floored at 50ms) when admission
// degrades it, and an explicit deadline_ms unchanged. The benchmark's hit
// path warms replicas with the gold default, so it is pinned here.
func TestForwardedDeadlines(t *testing.T) {
	var mu sync.Mutex
	var forwarded int
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("replica got an undecodable body: %v", err)
		}
		mu.Lock()
		forwarded = req.DeadlineMS
		mu.Unlock()
		w.Write([]byte("{}\n"))
	}))
	t.Cleanup(fake.Close)
	c, err := New(Config{Replicas: []ReplicaConfig{{Name: "fake", URL: fake.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	// Empty class buckets admit every request from the degraded pool.
	full, degraded := c.admission, tightAdmission(0, 0, 0, 1000)
	for _, tc := range []struct {
		body     string
		degraded bool
		want     int
	}{
		{`{"benchmark":"crc","slo":"gold"}`, false, 30000},
		{`{"benchmark":"crc","slo":"silver"}`, false, 10000},
		{`{"benchmark":"crc","slo":"bronze"}`, false, 3000},
		{`{"benchmark":"crc"}`, false, 10000},
		{`{"benchmark":"crc","slo":"gold","deadline_ms":1234}`, false, 1234},
		{`{"benchmark":"crc","slo":"bronze","deadline_ms":60000}`, false, 60000},
		{`{"benchmark":"crc","slo":"gold"}`, true, 7500},
		{`{"benchmark":"crc","slo":"silver"}`, true, 2500},
		{`{"benchmark":"crc","slo":"bronze"}`, true, 750},
		{`{"benchmark":"crc","slo":"gold","deadline_ms":1000}`, true, 250},
		{`{"benchmark":"crc","slo":"silver","deadline_ms":100}`, true, 50},
	} {
		c.admission = full
		if tc.degraded {
			c.admission = degraded
		}
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/customize", strings.NewReader(tc.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.body, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Isccluster-Degraded") == "1"; got != tc.degraded {
			t.Fatalf("%s: degraded = %v, want %v", tc.body, got, tc.degraded)
		}
		mu.Lock()
		got := forwarded
		mu.Unlock()
		if got != tc.want {
			t.Errorf("%s (degraded %v): forwarded deadline_ms %d, want %d", tc.body, tc.degraded, got, tc.want)
		}
	}
}

// The metrics page must carry the canonical resilience counters and the
// replica-state gauges in iscd-compatible Prometheus text.
func TestClusterMetricsPage(t *testing.T) {
	f := startFleet(t, 2, nil)
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
	f := startFleet(t, 2, nil)
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
	f := startFleet(t, 1, nil)
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
