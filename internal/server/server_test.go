package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// newTestServer returns a server with its own registry, an httptest
// frontend, and a cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *telemetry.Registry, *httptest.Server) {
	t.Helper()
	tel := telemetry.New("test")
	cfg.Telemetry = tel
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, tel, ts
}

func postCustomize(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	return postKind(t, url, "customize", body)
}

// pipelineKinds names the endpoints that run the pipeline: /v1/<kind>
// takes a POST of the JSON request body.
var pipelineKinds = []string{"customize", "hdl"}

// postKind POSTs body to /v1/<kind>.
func postKind(t *testing.T, url, kind, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/"+kind, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/%s: %v", kind, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

func counter(tel *telemetry.Registry, name string) int64 {
	return tel.Snapshot().Counters[name]
}

// spanCount reports how many times the pipeline actually ran.
func spanCount(tel *telemetry.Registry, name string) int64 {
	for _, sp := range tel.Snapshot().Spans {
		if sp.Name == name {
			return sp.Count
		}
	}
	return 0
}

func TestRepeatedRequestServedFromCacheByteIdentical(t *testing.T) {
	_, tel, ts := newTestServer(t, Config{})
	req := `{"benchmark":"crc","budget":5}`

	resp1, body1 := postCustomize(t, ts.URL, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Iscd-Cache"); got != "miss" {
		t.Errorf("first request cache state = %q, want miss", got)
	}

	resp2, body2 := postCustomize(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Iscd-Cache"); got != "hit" {
		t.Errorf("second request cache state = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response is not byte-identical to the first")
	}
	if n := spanCount(tel, "server.customize"); n != 1 {
		t.Errorf("pipeline ran %d times, want 1 (second request must be a cache hit)", n)
	}
	if h := counter(tel, "server.cache.hit"); h != 1 {
		t.Errorf("server.cache.hit = %d, want 1", h)
	}

	var out Response
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if out.Source == "" || out.Speedup < 1 || out.MDES == nil || out.Report == nil {
		t.Errorf("implausible response: %+v", out)
	}
}

// A default-spelled request and an explicitly-defaulted request are the
// same work and must share one cache entry.
func TestDefaultNormalizationSharesCacheEntry(t *testing.T) {
	_, tel, ts := newTestServer(t, Config{})
	_, body1 := postCustomize(t, ts.URL, `{"benchmark":"crc"}`)
	resp2, body2 := postCustomize(t, ts.URL,
		`{"benchmark":"crc","budget":15,"max_inputs":5,"max_outputs":3,"select_mode":"greedy"}`)
	if got := resp2.Header.Get("X-Iscd-Cache"); got != "hit" {
		t.Errorf("explicit-defaults request cache state = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("normalized requests returned different bytes")
	}
	if n := spanCount(tel, "server.customize"); n != 1 {
		t.Errorf("pipeline ran %d times, want 1", n)
	}
}

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	_, tel, ts := newTestServer(t, Config{})
	// Hold the leader inside the pipeline long enough for every follower
	// to arrive and coalesce.
	restore, err := faultinject.Enable("server:crc=slow:300ms")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()

	const n = 8
	bodies := make([][]byte, n)
	states := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/customize", "application/json",
				strings.NewReader(`{"benchmark":"crc","budget":5}`))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = b
			states[i] = resp.Header.Get("X-Iscd-Cache")
		}(i)
	}
	wg.Wait()

	if n := spanCount(tel, "server.customize"); n != 1 {
		t.Errorf("pipeline ran %d times for %d concurrent identical requests, want exactly 1", n, 8)
	}
	var miss, coalesced int
	for i := range states {
		switch states[i] {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Errorf("cache states: %d miss, %d coalesced; want 1 and %d (got %v)", miss, coalesced, n-1, states)
	}
	if c := counter(tel, "server.coalesced"); c != n-1 {
		t.Errorf("server.coalesced = %d, want %d", c, n-1)
	}
}

func TestDeadlineReturnsTruncatedBestSoFar(t *testing.T) {
	// Stall the pipeline past the request deadline: the run must come back
	// with its best-so-far result tagged truncated, not an error.
	restore, err := faultinject.Enable("server:mpeg2dec=slow:80ms")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	req := `{"benchmark":"mpeg2dec","deadline_ms":5}`

	for _, kind := range pipelineKinds {
		t.Run(kind, func(t *testing.T) {
			_, tel, ts := newTestServer(t, Config{})
			resp, body := postKind(t, ts.URL, kind, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("deadline-bounded request: status %d, want 200 (truncated result, not an error): %s",
					resp.StatusCode, body)
			}
			var out struct {
				Truncated bool   `json:"truncated"`
				Source    string `json:"source"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if !out.Truncated {
				t.Fatal("deadline-bounded request did not report truncation")
			}
			if out.Source != "mpeg2dec" {
				t.Errorf("truncated response names source %q, want mpeg2dec", out.Source)
			}
			if kind == "customize" {
				var full Response
				if err := json.Unmarshal(body, &full); err != nil {
					t.Fatal(err)
				}
				if full.Report == nil || full.MDES == nil || full.Speedup < 1 {
					t.Errorf("truncated response must still carry a valid best-so-far result: %+v", full)
				}
			}
			for _, name := range []string{"server.truncated", "server.cache.skip_truncated"} {
				if c := counter(tel, name); c != 1 {
					t.Errorf("%s = %d, want 1", name, c)
				}
			}
			// Truncated results are timing accidents and must not be cached.
			resp2, _ := postKind(t, ts.URL, kind, req)
			if got := resp2.Header.Get("X-Iscd-Cache"); got != "miss" {
				t.Errorf("repeat of a truncated request served %q, want miss (truncated results are uncacheable)", got)
			}
			if c := counter(tel, "server.cache.store"); c != 0 {
				t.Errorf("server.cache.store = %d, want 0", c)
			}
		})
	}
}

func TestShutdownDrainsInflightRuns(t *testing.T) {
	s, _, ts := newTestServer(t, Config{})
	// The injected delay keeps the request in flight across Shutdown. The
	// pipeline run behind it uses ipchains, one of the cheapest benchmarks
	// (tens of milliseconds even under the race detector), so the drain
	// deadline below measures draining rather than how long a slow
	// benchmark takes on a small or instrumented machine.
	restore, err := faultinject.Enable("server:ipchains=slow:250ms")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()

	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/customize", "application/json",
			strings.NewReader(`{"benchmark":"ipchains","budget":5}`))
		if err != nil {
			done <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, nil}
	}()

	// Let the slow request get in flight, then drain.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("in-flight request dropped during drain: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Errorf("in-flight request finished with status %d, want 200", r.status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	// New work is refused while drained, with Retry-After marking the 503
	// as graceful drain (a cluster router re-routes it without a breaker
	// strike); health reports draining.
	resp, body := postCustomize(t, ts.URL, `{"benchmark":"sha","budget":5}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("drain 503 is missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("drain Retry-After = %q, want whole seconds >= 1", ra)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), "iscd_draining 1") {
		t.Error("metrics during drain are missing iscd_draining 1")
	}
	if !strings.Contains(string(mb), "iscd_resilience_shed") {
		t.Error("metrics are missing the resilience shed counter")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(hb), "draining") {
		t.Errorf("healthz during drain = %s, want draining", hb)
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []BenchmarkInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 16 {
		t.Fatalf("got %d benchmarks, want the paper's 13 plus 3 video", len(out))
	}
	if out[0].Name != "blowfish" || out[0].Domain != "encryption" || out[0].Ops == 0 {
		t.Errorf("unexpected first benchmark: %+v", out[0])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	postCustomize(t, ts.URL, `{"benchmark":"crc","budget":5}`)
	postCustomize(t, ts.URL, `{"benchmark":"crc","budget":5}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, want := range []string{
		"iscd_up 1",
		"iscd_cache_entries 1",
		"iscd_server_cache_hit 1",
		"iscd_server_cache_miss 1",
		"iscd_server_requests 2",
		"iscd_span_server_customize_count 1",
	} {
		if !strings.Contains(text, want+"\n") && !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q:\n%s", want, text)
		}
	}
}

func TestCustomizeFromIscasmProgram(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	prog := "program wire\nblock hot weight 1000\n%0 = and r1, #0xffff\n%1 = shl %0, #2\n%2 = add %1, r2 -> r3\n"
	body, err := json.Marshal(Request{Program: prog, Config: core.Config{Budget: 5}})
	if err != nil {
		t.Fatal(err)
	}
	resp, rb := postCustomize(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("iscasm program: status %d: %s", resp.StatusCode, rb)
	}
	var out Response
	if err := json.Unmarshal(rb, &out); err != nil {
		t.Fatal(err)
	}
	if out.Source != "wire" {
		t.Errorf("source = %q, want wire", out.Source)
	}
}

// A request that sets only one port bound takes the paper's default for
// the other, in iscd and in core alike, so both produce the same MDES.
func TestPartialPortBoundsMatchCore(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, body := postCustomize(t, ts.URL, `{"benchmark":"sha","max_inputs":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		MDES json.RawMessage `json:"mdes"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.GenerateMDES(b.Program, core.Config{Constraints: explore.Constraints{MaxInputs: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.CFUs) == 0 {
		t.Fatal("core selected no CFUs with only max_inputs set")
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, out.MDES); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("iscd and core disagree on the MDES for max_inputs=4:\n iscd %s\n core %s", got.Bytes(), want)
	}
}

func TestRequestValidation(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"both inputs", `{"benchmark":"crc","program":"program p\n"}`, http.StatusBadRequest},
		{"unknown benchmark", `{"benchmark":"doom"}`, http.StatusNotFound},
		{"bad JSON", `{`, http.StatusBadRequest},
		{"bad mode", `{"benchmark":"crc","select_mode":"psychic"}`, http.StatusBadRequest},
		{"bad program", `{"program":"block ???"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postCustomize(t, ts.URL, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body is not {\"error\":...}: %s", c.name, body)
		}
	}
	if resp, _ := http.Get(ts.URL + "/v1/customize"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET customize: status %d, want 405", resp.StatusCode)
	}
}

func TestCacheEviction(t *testing.T) {
	_, tel, ts := newTestServer(t, Config{CacheEntries: 1})
	postCustomize(t, ts.URL, `{"benchmark":"crc","budget":5}`)
	postCustomize(t, ts.URL, `{"benchmark":"crc","budget":6}`) // evicts budget 5
	resp, _ := postCustomize(t, ts.URL, `{"benchmark":"crc","budget":5}`)
	if got := resp.Header.Get("X-Iscd-Cache"); got != "miss" {
		t.Errorf("evicted entry served %q, want miss", got)
	}
	if n := spanCount(tel, "server.customize"); n != 3 {
		t.Errorf("pipeline ran %d times, want 3", n)
	}
}

// The LRU itself, without HTTP in the way.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	// a is now most recent; inserting c must evict b.
	if evicted := c.put("c", []byte("C")); !evicted {
		t.Error("third insert into a 2-entry cache did not evict")
	}
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if v, ok := c.get("a"); !ok || string(v) != "A" {
		t.Error("a lost")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestHealthz(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"ok"`) {
		t.Errorf("healthz: %d %s", resp.StatusCode, b)
	}
}

// Admission must serialize runs within the token budget rather than
// rejecting or oversubscribing: MaxConcurrent=1 with distinct concurrent
// requests completes them all.
func TestBoundedAdmissionQueues(t *testing.T) {
	_, tel, ts := newTestServer(t, Config{MaxConcurrent: 1})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"benchmark":"crc","budget":%d}`, 4+i)
			resp, err := http.Post(ts.URL+"/v1/customize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if n := spanCount(tel, "server.customize"); n != 3 {
		t.Errorf("pipeline ran %d times, want 3", n)
	}
}
