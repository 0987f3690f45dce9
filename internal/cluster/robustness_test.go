package cluster

import (
	"bytes"
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
	"repro/internal/workloads"
)

// The robustness contract: while replicas fail (always-500 and slowed),
// every gold request still succeeds, the responses are byte-identical to
// a single-node iscd (modulo Truncated), failover fires, and after the
// faults lift the wounded replica rejoins service.
func TestRobustnessFaultedFleetStaysByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-phase fleet test")
	}
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	// Reference single-node iscd: the oracle the cluster must match. Its
	// name dodges the replica fault rules armed below.
	refSrv := server.New(server.Config{Name: "ref", MaxConcurrent: 2})
	ref := httptest.NewServer(refSrv.Handler())
	t.Cleanup(ref.Close)

	tel := telemetry.New("isccluster")
	f := startFleet(t, 3, Config{
		Telemetry:      tel,
		MaxAttempts:    6,
		BreakerCooloff: 100 * time.Millisecond,
	})

	// r2's customize handler always 500s (its /healthz stays fine, so only
	// the passive path can save traffic); r3 answers slowly. Both faults
	// leave payload bytes untouched.
	restore, err := faultinject.Enable("replica:r2=flaky:1,replica:r3=slow:30ms")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()

	benches := []string{"crc", "sha", "url", "rijndael", "gsmdecode"}
	for _, bench := range benches {
		body := fmt.Sprintf(`{"benchmark":%q,"budget":5,"slo":"gold","deadline_ms":30000}`, bench)
		resp, got := postCluster(t, f.front.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: cluster returned %d under faults: %s", bench, resp.StatusCode, got)
		}
		refResp, want := postCluster(t, ref.URL, body)
		if refResp.StatusCode != http.StatusOK {
			t.Fatalf("%s: reference iscd returned %d: %s", bench, refResp.StatusCode, want)
		}
		truncated := bytes.Contains(got, []byte(`"truncated": true`)) ||
			bytes.Contains(want, []byte(`"truncated": true`))
		if !truncated && !bytes.Equal(got, want) {
			t.Errorf("%s: cluster response differs from single-node iscd (%d vs %d bytes)",
				bench, len(got), len(want))
		}
	}

	if got := counter(tel, "slo.gold.errors"); got != 0 {
		t.Errorf("gold errors = %d under faults, want 0", got)
	}
	if got := counter(tel, "slo.gold.ok"); got != int64(len(benches)) {
		t.Errorf("gold ok = %d, want %d", got, len(benches))
	}
	if counter(tel, telemetry.CounterFailover) == 0 {
		t.Error("no failovers recorded while a replica 500s every request")
	}
	if counter(tel, telemetry.CounterRetry) == 0 {
		t.Error("no retries recorded while a replica 500s every request")
	}

	// A starved deadline degrades to Truncated — a 200, not an error —
	// and the contract above explicitly exempts it from byte-identity.
	resp, body := postCluster(t, f.front.URL, `{"benchmark":"sha","budget":500,"slo":"bronze","deadline_ms":1,"max_candidates":1000000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("starved bronze request returned %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"truncated": true`)) {
		t.Errorf("starved bronze request was not truncated: %.200s", body)
	}

	// Recovery: lift the faults and the 500ing replica must rejoin once
	// its breaker's cooloff lets a half-open probe through. Pick a request
	// whose affinity primary is r2, so closed-breaker routing goes back to
	// it.
	restore()
	// The routing key is the program's content fingerprint, so the search
	// must vary the program (budget and the other knobs never reach the
	// key): some benchmark's fingerprint lands each of the three replicas.
	var r2Body string
	for _, name := range workloads.Names() {
		body := fmt.Sprintf(`{"benchmark":%q,"budget":8,"slo":"silver","deadline_ms":30000}`, name)
		preq, _, err := ParseRequest([]byte(body), 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.cluster.ring.Sequence(preq.Key)[0].Name == "r2" {
			r2Body = body
			break
		}
	}
	if r2Body == "" {
		t.Fatal("no benchmark maps its key to r2 — widen the search")
	}
	deadline := time.Now().Add(10 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		resp, _ := postCluster(t, f.front.URL, r2Body)
		if resp.StatusCode == http.StatusOK && resp.Header.Get("X-Isccluster-Replica") == "r2" {
			recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Error("r2 never served again after its fault lifted")
	}

	// The whole episode must be visible on the metrics page.
	mresp, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	pageBytes, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(pageBytes)
	for _, want := range []string{
		"isccluster_resilience_failover",
		"isccluster_resilience_retry",
		"isccluster_slo_gold_ok",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page is missing %s", want)
		}
	}
}
