package cluster

import (
	"reflect"
	"testing"
	"time"
)

// FuzzParseRequest hammers the router's trust boundary: arbitrary bytes
// through request parsing, SLO parsing, normalization, program
// resolution, and fingerprinting must produce an error or a valid parsed
// request — never a panic. The router sits in front of every replica, so
// a parser panic here is a cluster-wide outage.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte(`{"benchmark":"crc","budget":5,"slo":"gold"}`))
	f.Add([]byte(`{"benchmark":"sha","slo":"bronze","deadline_ms":100}`))
	f.Add([]byte(`{"program":"block b 1.0\n  %1 = add %0, %0\n","slo":"silver"}`))
	f.Add([]byte(`{"slo":"platinum"}`))
	f.Add([]byte(`{"benchmark":"crc","deadline_ms":-5}`))
	f.Add([]byte(`{"benchmark":"crc","budget":1e308}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"benchmark":"crc","select_mode":"frobnicate"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		preq, status, err := ParseRequest(body, time.Second)
		if err != nil {
			if status < 400 || status > 599 {
				t.Fatalf("error %v carries non-error status %d", err, status)
			}
			return
		}
		if preq == nil || preq.Program == nil || preq.Key == "" {
			t.Fatalf("nil-free success contract violated: %+v", preq)
		}
		// Normalization must be idempotent: re-normalizing a normalized
		// request cannot change it (the forwarded body is re-normalized by
		// the replica).
		if again := preq.Req.Normalized(time.Second); !reflect.DeepEqual(again, preq.Req) {
			t.Fatalf("normalization not idempotent: %+v != %+v", again, preq.Req)
		}
		if _, err := ParseSLO(preq.Class.String()); err != nil {
			t.Fatalf("parsed class %v does not round-trip: %v", preq.Class, err)
		}
	})
}
