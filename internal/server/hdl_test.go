package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

func getHDL(t *testing.T, url, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url + "/v1/hdl?" + query)
	if err != nil {
		t.Fatalf("GET /v1/hdl: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

// GET /v1/hdl decodes its query exactly as POST decodes its body: for every
// wire key, the query spelling and the JSON spelling of one value must give
// the same Request, and a value POST rejects must be rejected as a query.
func TestRequestFromQueryMatchesJSON(t *testing.T) {
	prog := "program q\nblock hot weight 10\n%0 = add r1, r2 -> r3\n"
	progJSON, _ := json.Marshal(prog)
	cases := []struct{ key, query, json string }{
		{"benchmark", "crc", `"crc"`},
		{"program", prog, string(progJSON)},
		{"budget", "7.5", `7.5`},
		{"max_inputs", "4", `4`},
		{"max_outputs", "2", `2`},
		{"select_mode", "dp", `"dp"`},
		{"strategy", "improve", `"improve"`},
		{"cost_model", "uarch", `"uarch"`},
		{"use_variants", "true", `true`},
		{"use_opcode_classes", "true", `true`},
		{"multi_function", "true", `true`},
		{"optimize", "true", `true`},
		{"verify", "true", `true`},
		{"deadline_ms", "7", `7`},
		{"max_candidates", "9", `9`},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.key] = true
		got, err := requestFromQuery(url.Values{c.key: {c.query}})
		if err != nil {
			t.Errorf("%s=%s: %v", c.key, c.query, err)
			continue
		}
		var want Request
		if err := json.Unmarshal([]byte(`{"`+c.key+`":`+c.json+`}`), &want); err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s=%s decodes to %+v, POST to %+v", c.key, c.query, got, want)
		}
	}
	for key := range wireFields(reflect.ValueOf(&Request{}).Elem()) {
		if !covered[key] {
			t.Errorf("wire key %s has no query case", key)
		}
	}
	for _, bad := range []string{"max_inputs=4.7", "budget=lots", "select_mode=psychic", "verify=yes"} {
		q, _ := url.ParseQuery(bad)
		if _, err := requestFromQuery(q); err == nil {
			t.Errorf("query %s decoded without error", bad)
		}
	}
}

// TestHDLEndpoint drives the happy path: a GET returns Verilog, an ISA
// spec, and a per-CFU co-simulation verdict; the identical request comes
// back from the cache byte-for-byte; and a POST with the equivalent JSON
// body lands on the same cache entry.
func TestHDLEndpoint(t *testing.T) {
	_, tel, ts := newTestServer(t, Config{})
	resp, body := getHDL(t, ts.URL, "benchmark=djpeg")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Iscd-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	var out HDLResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if out.Source != "djpeg" || out.Extension != "Xisc_djpeg" {
		t.Errorf("source %q extension %q", out.Source, out.Extension)
	}
	if len(out.CFUs) == 0 {
		t.Fatal("no CFUs in the response")
	}
	if !strings.Contains(out.Verilog, "module "+out.CFUs[0].Module+" (") {
		t.Errorf("Verilog lacks module %s", out.CFUs[0].Module)
	}
	if !strings.Contains(out.ISA, "extension Xisc_djpeg") {
		t.Errorf("ISA spec lacks the extension header:\n%s", out.ISA)
	}
	for _, c := range out.CFUs {
		want := "pass"
		if c.Memory && c.Datapaths == 0 {
			want = "skipped (memory)"
		}
		if c.Cosim != want {
			t.Errorf("CFU %s cosim = %q, want %q", c.Name, c.Cosim, want)
		}
	}

	resp2, body2 := getHDL(t, ts.URL, "benchmark=djpeg")
	if got := resp2.Header.Get("X-Iscd-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	if string(body) != string(body2) {
		t.Error("cached response is not byte-identical")
	}

	// A POST spelling the same request must land on the same cache entry.
	resp3, body3 := func() (*http.Response, []byte) {
		r, err := http.Post(ts.URL+"/v1/hdl", "application/json",
			strings.NewReader(`{"benchmark": "djpeg", "budget": 15}`))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, b
	}()
	if got := resp3.Header.Get("X-Iscd-Cache"); got != "hit" {
		t.Errorf("POST of the same request cache header = %q, want hit", got)
	}
	if string(body) != string(body3) {
		t.Error("GET and POST responses differ for one cache identity")
	}
	if n := counter(tel, "server.cache.store"); n != 1 {
		t.Errorf("pipeline stored %d results, want 1", n)
	}
}

// TestHDLEndpointDistinctFromCustomize proves the kind prefix: the same
// benchmark via /v1/customize and /v1/hdl must occupy different cache
// entries, not alias one another.
func TestHDLEndpointDistinctFromCustomize(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, body := postCustomize(t, ts.URL, `{"benchmark": "djpeg"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("customize: %d %s", resp.StatusCode, body)
	}
	resp2, body2 := getHDL(t, ts.URL, "benchmark=djpeg")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("hdl: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Iscd-Cache"); got != "miss" {
		t.Errorf("hdl after customize cache header = %q, want miss (distinct kinds)", got)
	}
}

// TestHDLEndpointErrors covers the refusal paths: unknown benchmarks,
// malformed query values, bad methods and bodies.
func TestHDLEndpointErrors(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	cases := []struct {
		query string
		want  int
	}{
		{"benchmark=no-such-benchmark", http.StatusNotFound},
		{"", http.StatusBadRequest},
		{"benchmark=sha&budget=everything", http.StatusBadRequest},
		{"benchmark=sha&multi_function=perhaps", http.StatusBadRequest},
		{"benchmark=sha&select_mode=psychic", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := getHDL(t, ts.URL, c.query)
		if resp.StatusCode != c.want {
			t.Errorf("GET /v1/hdl?%s = %d, want %d: %s", c.query, resp.StatusCode, c.want, body)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/hdl", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE = %d, want 405", resp.StatusCode)
	}
	resp2, err := http.Post(ts.URL+"/v1/hdl", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON = %d, want 400", resp2.StatusCode)
	}
}
