package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/ir"
	"repro/internal/server"
)

// SLO is a request's service class. Higher classes are admitted longer and
// shed later under overload; the zero value is bronze, the first to go.
type SLO int

// The three service classes, in shedding order: bronze is degraded and
// rejected first, gold last.
const (
	Bronze SLO = iota
	Silver
	Gold
)

// String returns the wire spelling ("gold", "silver", "bronze").
func (s SLO) String() string {
	switch s {
	case Gold:
		return "gold"
	case Silver:
		return "silver"
	}
	return "bronze"
}

// SLOs lists every class from most to least protected (gold first): the
// display and reporting order.
func SLOs() []SLO { return []SLO{Gold, Silver, Bronze} }

// ParseSLO maps the wire spelling onto a class. The empty string is
// silver — the middle of the road is the only safe default, leaving both
// an upgrade and a downgrade available.
func ParseSLO(s string) (SLO, error) {
	switch s {
	case "gold":
		return Gold, nil
	case "silver", "":
		return Silver, nil
	case "bronze":
		return Bronze, nil
	}
	return 0, fmt.Errorf("unknown slo %q (want gold, silver, or bronze)", s)
}

// Request is the cluster's request envelope: everything an iscd replica
// accepts (server.Request, embedded) plus the SLO class the router uses
// for admission and deadline mapping. The SLO field is stripped before
// forwarding only in effect — replicas ignore unknown JSON fields — so the
// forwarded body is a plain iscd request.
type Request struct {
	server.Request
	// SLO is the request's service class: "gold", "silver", or "bronze"
	// ("" = silver).
	SLO string `json:"slo,omitempty"`
}

// ParsedRequest is the validated, normalized form of a cluster request:
// what the admission controller and router act on. Building one cannot
// panic — ParseRequest is the fuzzed trust boundary of the router.
type ParsedRequest struct {
	// Req is the inner iscd request, normalized (defaults explicit).
	Req server.Request
	// Class is the parsed SLO.
	Class SLO
	// Program is the resolved, validated input program.
	Program *ir.Program
	// Key is the routing key: the program's exact hash, ir.Fingerprint, the
	// same program identity the replicas' cache keys use, so a benchmark
	// name, its iscasm text and a renumbered copy route alike.
	Key string
}

// ParseRequest parses, validates, and normalizes one cluster request body.
// defaultDeadline is the deadline the inner request normalizes against
// when it carries none (the per-class deadline mapping happens later, in
// Cluster.effectiveDeadline — normalization here only makes the spelled
// fields explicit). On failure the returned status is the HTTP code to
// serve (400/404); the function never panics on any input.
func ParseRequest(body []byte, defaultDeadline time.Duration) (*ParsedRequest, int, error) {
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad request JSON: %v", err)
	}
	class, err := ParseSLO(req.SLO)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	inner := req.Request.Normalized(defaultDeadline)
	p, status, err := server.Resolve(inner)
	if err != nil {
		return nil, status, err
	}
	if err := inner.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return &ParsedRequest{
		Req:     inner,
		Class:   class,
		Program: p,
		Key:     ir.Fingerprint(p),
	}, 0, nil
}
