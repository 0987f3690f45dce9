package cluster

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

func TestParseSLO(t *testing.T) {
	cases := []struct {
		in   string
		want SLO
		ok   bool
	}{
		{"gold", Gold, true},
		{"silver", Silver, true},
		{"bronze", Bronze, true},
		{"", Silver, true},
		{"platinum", 0, false},
		{"GOLD", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSLO(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseSLO(%q) = %v, %v; want %v, ok=%t", c.in, got, err, c.want, c.ok)
		}
	}
	for _, s := range []SLO{Gold, Silver, Bronze} {
		back, err := ParseSLO(s.String())
		if err != nil || back != s {
			t.Errorf("round-trip %v -> %q -> %v, %v", s, s.String(), back, err)
		}
	}
}

func TestParseRequestValid(t *testing.T) {
	preq, status, err := ParseRequest([]byte(`{"benchmark":"crc","budget":5,"slo":"gold"}`), 0)
	if err != nil {
		t.Fatalf("ParseRequest: %v (status %d)", err, status)
	}
	if preq.Class != Gold {
		t.Errorf("class = %v, want gold", preq.Class)
	}
	if preq.Req.Budget != 5 || preq.Req.MaxInputs != 5 {
		t.Errorf("inner request not normalized: %+v", preq.Req)
	}
	if preq.Key == "" || preq.Program == nil {
		t.Error("missing routing key or program")
	}

	// The routing key is the canonical fingerprint: the same program named
	// two ways must share it (that is what makes the sharded cache shard).
	other, _, err := ParseRequest([]byte(`{"benchmark":"crc","slo":"bronze","budget":9}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	if other.Key != preq.Key {
		t.Error("same program, different routing keys: config must not move a program between replicas")
	}
}

func TestParseRequestErrors(t *testing.T) {
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed JSON", `{"benchmark":`, http.StatusBadRequest},
		{"bad slo", `{"benchmark":"crc","slo":"platinum"}`, http.StatusBadRequest},
		{"unknown benchmark", `{"benchmark":"nope","slo":"gold"}`, http.StatusNotFound},
		{"no program", `{"slo":"gold"}`, http.StatusBadRequest},
		{"both program forms", `{"benchmark":"crc","program":"block b 1.0\n","slo":"gold"}`, http.StatusBadRequest},
		{"bad select mode", `{"benchmark":"crc","select_mode":"frob"}`, http.StatusBadRequest},
		{"bad strategy", `{"benchmark":"crc","strategy":"quantum"}`, http.StatusBadRequest},
		{"bad program text", `{"program":"not iscasm at all"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		preq, status, err := ParseRequest([]byte(c.body), 0)
		if err == nil {
			t.Errorf("%s: accepted %+v", c.name, preq)
			continue
		}
		if status != c.status {
			t.Errorf("%s: status = %d, want %d (%v)", c.name, status, c.status, err)
		}
	}
}

// The SLO vocabulary is part of the wire contract; the error text must
// name the accepted classes so a 400 is self-explanatory.
func TestParseSLOErrorNamesClasses(t *testing.T) {
	_, err := ParseSLO("diamond")
	if err == nil || !strings.Contains(err.Error(), "gold") {
		t.Errorf("ParseSLO error %v does not name the accepted classes", err)
	}
}

// The cluster envelope is an iscd request plus exactly one key, "slo"; the
// server package pins the iscd request's own keys.
func TestRequestAddsOnlySLO(t *testing.T) {
	rt := reflect.TypeOf(Request{})
	var own []string
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Anonymous && f.Type == reflect.TypeOf(server.Request{}) && f.Tag == "" {
			continue
		}
		own = append(own, string(f.Tag))
	}
	if len(own) != 1 || own[0] != `json:"slo,omitempty"` {
		t.Errorf("cluster.Request adds %q beyond server.Request, want only slo", own)
	}
}
