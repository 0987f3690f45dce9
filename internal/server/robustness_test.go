package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// An injected panic in one request's pipeline must become a 500 with the
// failure identity, leave the daemon serving, and never poison the cache.
func TestInjectedPanicIsContained(t *testing.T) {
	for _, kind := range pipelineKinds {
		t.Run(kind, func(t *testing.T) {
			_, tel, ts := newTestServer(t, Config{})
			restore, err := faultinject.Enable("server:crc=panic")
			if err != nil {
				t.Fatal(err)
			}
			defer restore()

			resp, body := postKind(t, ts.URL, kind, `{"benchmark":"crc","budget":5}`)
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("poisoned request: status %d, want 500: %s", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("500 body is not JSON: %s", body)
			}
			if !strings.Contains(e.Error, "panic in "+kind) || !strings.Contains(e.Error, "crc") {
				t.Errorf("panic error does not name the failing request: %q", e.Error)
			}
			if c := counter(tel, "server.panics"); c != 1 {
				t.Errorf("server.panics = %d, want 1", c)
			}

			// Other benchmarks are unaffected while the fault is armed.
			if resp, body := postKind(t, ts.URL, kind, `{"benchmark":"sha","budget":5}`); resp.StatusCode != http.StatusOK {
				t.Errorf("healthy benchmark alongside a poisoned one: status %d: %s", resp.StatusCode, body)
			}

			// Once the fault clears, the previously poisoned request
			// succeeds: the failure was not cached.
			restore()
			resp2, _ := postKind(t, ts.URL, kind, `{"benchmark":"crc","budget":5}`)
			if resp2.StatusCode != http.StatusOK {
				t.Errorf("recovered request: status %d, want 200", resp2.StatusCode)
			}
			if got := resp2.Header.Get("X-Iscd-Cache"); got != "miss" {
				t.Errorf("recovered request cache state = %q, want miss (failures are uncacheable)", got)
			}
		})
	}
}

func TestInjectedErrorIsReported(t *testing.T) {
	restore, err := faultinject.Enable("server:url=error")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	for _, kind := range pipelineKinds {
		t.Run(kind, func(t *testing.T) {
			_, tel, ts := newTestServer(t, Config{})
			fired := faultinject.Fired("server", "url")
			resp, body := postKind(t, ts.URL, kind, `{"benchmark":"url","budget":5}`)
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("injected error: status %d, want 500: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), "injected error at server:url") {
				t.Errorf("error body does not carry the injected failure: %s", body)
			}
			if c := counter(tel, "server.faults"); c != 1 {
				t.Errorf("server.faults = %d, want 1", c)
			}
			if n := faultinject.Fired("server", "url") - fired; n != 1 {
				t.Errorf("fault fired %d times, want 1", n)
			}
		})
	}
}

// Wildcard faults cover the whole server site, mirroring how the sweep
// robustness suite exercises the batch pipeline.
func TestWildcardServerFault(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	restore, err := faultinject.Enable("server:*=error")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	for _, kind := range pipelineKinds {
		for _, bench := range []string{"crc", "sha"} {
			resp, _ := postKind(t, ts.URL, kind, `{"benchmark":"`+bench+`","budget":5}`)
			if resp.StatusCode != http.StatusInternalServerError {
				t.Errorf("%s %s: status %d, want 500 under wildcard fault", kind, bench, resp.StatusCode)
			}
		}
	}
}

// A method an endpoint does not serve is refused before the request is
// counted or reaches the replica fault site, so even a sick replica
// answers it 405.
func TestBadMethodRefusedBeforeReplicaFault(t *testing.T) {
	_, tel, ts := newTestServer(t, Config{})
	restore, err := faultinject.Enable("replica:iscd=error")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	for _, c := range []struct{ method, kind, counter string }{
		{http.MethodDelete, "hdl", "server.hdl.requests"},
		{http.MethodGet, "customize", "server.requests"},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+"/v1/"+c.kind, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s /v1/%s under a replica fault = %d, want 405", c.method, c.kind, resp.StatusCode)
		}
		if n := counter(tel, c.counter); n != 0 {
			t.Errorf("%s /v1/%s moved %s to %d, want 0", c.method, c.kind, c.counter, n)
		}
	}
	// The fault is armed: a served method still hits it.
	if resp, body := postKind(t, ts.URL, "hdl", `{"benchmark":"crc","budget":5}`); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("POST /v1/hdl under a replica fault = %d, want 500: %s", resp.StatusCode, body)
	}
}

// A coalesced follower owns nothing but the leader's done channel: it
// must receive the full result even when the leader's client disconnects
// mid-run (the detached run context keeps the pipeline alive) while the
// result cache churns through evictions around the in-flight key.
func TestFollowerSurvivesLeaderDisconnectUnderEviction(t *testing.T) {
	_, tel, ts := newTestServer(t, Config{CacheEntries: 2, MaxConcurrent: 4})
	restore, err := faultinject.Enable("server:crc=slow:500ms")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	const body = `{"benchmark":"crc","budget":5}`

	// The leader fires and will hang up mid-pipeline.
	leaderCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	leaderErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodPost,
			ts.URL+"/v1/customize", strings.NewReader(body))
		if err != nil {
			leaderErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // leader is inside the slow pipeline

	// Followers coalesce onto the leader's in-flight call.
	const followers = 4
	var wg sync.WaitGroup
	bodies := make([][]byte, followers)
	states := make([]string, followers)
	statuses := make([]int, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/customize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies[i], states[i], statuses[i] = b, resp.Header.Get("X-Iscd-Cache"), resp.StatusCode
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // followers are parked on the call

	// The leader's client dies; the 2-entry cache churns through six
	// distinct keys, evicting everything repeatedly around the still-
	// in-flight crc run.
	hangUp()
	for i := 0; i < 6; i++ {
		resp, b := postCustomize(t, ts.URL, fmt.Sprintf(`{"benchmark":"url","budget":%d}`, 2+i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("churn request %d: status %d: %s", i, resp.StatusCode, b)
		}
	}
	if err := <-leaderErr; err == nil {
		t.Error("leader's hang-up did not surface as a client error")
	}
	wg.Wait()

	for i := 0; i < followers; i++ {
		if statuses[i] != http.StatusOK {
			t.Errorf("follower %d: status %d, want 200", i, statuses[i])
		}
		if states[i] != "coalesced" {
			t.Errorf("follower %d: cache state %q, want coalesced", i, states[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("follower %d: body differs from follower 0", i)
		}
	}
	var out Response
	if err := json.Unmarshal(bodies[0], &out); err != nil {
		t.Fatalf("follower body is not a Response: %v", err)
	}
	if out.Speedup < 1 || out.MDES == nil {
		t.Errorf("followers received a gutted result: %+v", out)
	}
	if c := spanCount(tel, "server.customize"); c != 1+6 {
		t.Errorf("pipeline ran %d times, want 7 (1 coalesced crc + 6 churn)", c)
	}
}
