package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
)

// Request is the JSON body of POST /v1/customize. Exactly one of Benchmark
// (a named seed benchmark) or Program (iscasm assembly text, the grammar of
// internal/asm) selects the input application; DeadlineMS bounds the run,
// and the embedded core.Config carries the pipeline knobs under its JSON
// tags (budget, max_inputs, select_mode, strategy, ...). Zero values mean
// the paper's defaults, and requests that differ only in how they spell a
// default (budget 0 versus budget 15) normalize to the same cache key.
type Request struct {
	// Benchmark names one of the sixteen seed benchmarks (the paper's
	// thirteen plus the video domain).
	Benchmark string `json:"benchmark,omitempty"`
	// Program is an application in iscasm assembly text.
	Program string `json:"program,omitempty"`
	// DeadlineMS bounds the request's pipeline wall-clock time in
	// milliseconds (0 = the server's default). On expiry the response
	// carries the best-so-far result tagged "truncated", not an error.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	core.Config
}

// Normalized returns the request with every defaulted field made explicit,
// so semantically identical requests share one cache key. defaultDeadline is
// the server's default pipeline deadline: a zero DeadlineMS resolves against
// it here, before cacheKey hashes the request, so "deadline_ms": 0 and the
// explicitly spelled server default coalesce and share one cache entry.
func (r Request) Normalized(defaultDeadline time.Duration) Request {
	r.Config = r.Config.Normalize()
	if r.DeadlineMS <= 0 {
		r.DeadlineMS = int(defaultDeadline / time.Millisecond)
	}
	return r
}

// deadline is the normalized request's pipeline deadline (0 = none).
func (r Request) deadline() time.Duration {
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// cacheKey is the content hash of (endpoint, program, configuration): the
// program's exact hash (ir.Fingerprint, which covers op order but not op
// IDs), the deadline and the JSON form of the normalized configuration.
// Every knob on the wire is in that JSON form and every knob off it is
// fixed for the server, so no field that can change the response is left
// out of the key. The kind prefix ("customize", "hdl") keeps different
// endpoints' results from aliasing in the shared cache even though they
// hash the same request. The cache is sound only if equal keys give
// byte-identical responses; TestEqualKeyEqualBytes checks that over every
// benchmark and across spellings of each program.
// The request must have passed Config.Validate: an unknown select mode has
// no JSON form.
func (r Request) cacheKey(kind string, p *ir.Program) string {
	cfg, err := json.Marshal(r.Config)
	if err != nil {
		panic(fmt.Sprintf("server: cache key of an unvalidated request: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "iscd/v2\nkind %s\nprogram %s\ndeadline_ms %d\nconfig %s\n",
		kind, ir.Fingerprint(p), r.DeadlineMS, cfg)
	return hex.EncodeToString(h.Sum(nil))
}
