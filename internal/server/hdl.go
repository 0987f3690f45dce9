package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/hdl"
	"repro/internal/ir"
)

// hdlCosimTrials is the per-datapath random-trial count the endpoint
// spends co-simulating each emitted module before vouching for it. It is
// a server constant, not a request field, so it cannot fragment the cache.
const hdlCosimTrials = 64

// HDLCFU describes one selected CFU in an HDL response: its identity, the
// cost model's numbers, and the co-simulation verdict for its datapaths
// (the primary shape plus every subsumed variant).
type HDLCFU struct {
	// Name is the CFU's name in the machine description; Module is the
	// sanitized Verilog module / ISA mnemonic derived from it.
	Name   string `json:"name"`
	Module string `json:"module"`
	// Area (adder-equivalents) and Latency (cycles) come from the cost model.
	Area    float64 `json:"area"`
	Latency int     `json:"latency"`
	// Memory marks a unit with a load/store port; it has no combinational
	// datapath to emit or co-simulate.
	Memory bool `json:"memory,omitempty"`
	// Cosim is the differential-testing verdict: "pass" when every datapath
	// agreed with the reference semantics on every trial, or "skipped
	// (memory)". A mismatch never produces a response — it is a 500.
	Cosim string `json:"cosim"`
	// Datapaths counts the shapes checked (primary + subsumed variants);
	// Trials is the random trial count spent on each.
	Datapaths int `json:"datapaths"`
	Trials    int `json:"trials,omitempty"`
}

// HDLResponse is the JSON body of a successful GET or POST /v1/hdl: the
// selected extension rendered as synthesizable Verilog and as a RISC-V
// custom-opcode ISA spec, with every emitted datapath co-simulated
// bit-exactly against the ir.EvalScalar reference before the server
// vouches for it. Identical requests produce byte-identical responses.
type HDLResponse struct {
	// Source names the customized program; Budget echoes the area budget.
	Source string  `json:"source"`
	Budget float64 `json:"budget"`
	// Truncated reports a best-so-far selection (an anytime budget expired).
	// Truncated responses are never cached.
	Truncated bool `json:"truncated,omitempty"`
	// Extension is the ISA extension name (Xisc_<source>).
	Extension string `json:"extension"`
	// Verilog holds the emitted modules; ISA the extension spec text.
	Verilog string `json:"verilog"`
	ISA     string `json:"isa"`
	// CFUs lists the selected units in priority order.
	CFUs []HDLCFU `json:"cfus"`
}

// requestFromQuery builds a Request from GET query parameters by decoding
// them exactly as the POST body is decoded: each non-empty parameter
// becomes a member of a JSON object, taken verbatim when it is a JSON
// number, true, false or null and as a string otherwise. An empty parameter
// counts as absent, and a parameter given twice uses its first value.
func requestFromQuery(q url.Values) (Request, error) {
	obj := make(map[string]json.RawMessage, len(q))
	for key := range q {
		v := q.Get(key)
		switch {
		case v == "":
		case json.Valid([]byte(v)) && !strings.ContainsAny(v[:1], `"{[`):
			obj[key] = json.RawMessage(v)
		default:
			obj[key], _ = json.Marshal(v)
		}
	}
	body, _ := json.Marshal(obj)
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("bad query: %v", err)
	}
	return req, nil
}

// handleHDL is GET/POST /v1/hdl: the customization pipeline's selection
// exported as hardware. GET takes query parameters (benchmark=sha&
// budget=15&multi_function=true), POST the same JSON body as
// /v1/customize; both normalize to one cache identity, keyed by the same
// fingerprint-times-config scheme as /v1/customize under a distinct kind
// prefix.
func (s *Server) handleHDL(w http.ResponseWriter, r *http.Request) {
	s.tel.Add("server.hdl.requests", 1)
	if err := faultinject.Fire("replica", s.cfg.Name); err != nil {
		s.tel.Add("server.faults", 1)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var req Request
	switch r.Method {
	case http.MethodGet:
		q, err := requestFromQuery(r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		req = q
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request JSON: %v", err)
			return
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "want GET or POST")
		return
	}
	req = req.Normalized(s.cfg.DefaultDeadline)
	p, status, err := Resolve(req)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := req.cacheKey("hdl", p)
	s.serveCached(w, r, key, func() (int, []byte, string) {
		st, b := s.runHDL(req, p, key)
		return st, b, ""
	})
}

// runHDL generates the machine description, lowers every selected CFU to
// a netlist, co-simulates each datapath against the reference semantics,
// and renders the Verilog and ISA artifacts. Any disagreement between the
// emitted hardware and the functional model is a server-side bug and
// surfaces as a 500, never as a silently wrong artifact.
func (s *Server) runHDL(req Request, p *ir.Program, key string) (status int, body []byte) {
	defer s.tel.StartSpan("server.hdl")()
	defer func() {
		if r := recover(); r != nil {
			s.tel.Add("server.panics", 1)
			status, body = marshalError(http.StatusInternalServerError,
				fmt.Errorf("panic in hdl %q: %v", p.Name, r))
		}
	}()
	ctx := context.Background()
	if d := req.deadline(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if s.tokens.Acquire(ctx) {
		defer s.tokens.Release()
	}
	cfg := req.Config
	cfg.Ctx = ctx
	cfg.Telemetry = s.tel
	// The corpus warms /v1/hdl too (same exploration, same keys); only the
	// X-Iscd-Corpus header is a /v1/customize-only affordance.
	cfg.Corpus = s.cfg.Corpus
	m, err := core.GenerateMDES(p, cfg)
	if err != nil {
		s.tel.Add("server.errors", 1)
		return marshalError(http.StatusInternalServerError, err)
	}

	resp := HDLResponse{Source: m.Source, Budget: m.Budget, Truncated: m.Truncated}
	for i := range m.CFUs {
		spec := &m.CFUs[i]
		info := HDLCFU{
			Name:    spec.Name,
			Module:  hdl.ModuleName(spec.Name),
			Area:    spec.Area,
			Latency: spec.Latency,
		}
		for vi, shape := range append([]*graph.Shape{spec.Shape}, spec.Variants...) {
			if shape.UsesMemory() {
				info.Memory = true
				continue
			}
			n, err := hdl.BuildNetlist(info.Module, shape, cfg.Lib)
			if err != nil {
				s.tel.Add("server.errors", 1)
				return marshalError(http.StatusInternalServerError,
					fmt.Errorf("lowering %s variant %d: %w", spec.Name, vi, err))
			}
			opts := cosim.Options{Trials: hdlCosimTrials, Seed: int64(i*131 + vi)}
			if err := cosim.CheckNetlist(n, shape, opts); err != nil {
				s.tel.Add("server.hdl.mismatches", 1)
				return marshalError(http.StatusInternalServerError,
					fmt.Errorf("co-simulation of %s variant %d: %w", spec.Name, vi, err))
			}
			info.Datapaths++
		}
		if info.Datapaths > 0 {
			info.Cosim = "pass"
			info.Trials = hdlCosimTrials
		} else {
			info.Cosim = "skipped (memory)"
		}
		resp.CFUs = append(resp.CFUs, info)
	}

	var verilog bytes.Buffer
	if err := hdl.EmitMDES(&verilog, m, cfg.Lib); err != nil {
		return marshalError(http.StatusInternalServerError, err)
	}
	resp.Verilog = verilog.String()
	isaSpec, err := hdl.MapISA(m)
	if err != nil {
		return marshalError(http.StatusInternalServerError, err)
	}
	var isa bytes.Buffer
	if err := isaSpec.Write(&isa); err != nil {
		return marshalError(http.StatusInternalServerError, err)
	}
	resp.ISA = isa.String()
	resp.Extension = isaSpec.Name

	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return marshalError(http.StatusInternalServerError, err)
	}
	b = append(b, '\n')
	if resp.Truncated {
		s.tel.Add("server.cache.skip_truncated", 1)
	} else {
		s.cache.put(key, b)
		s.tel.Add("server.cache.store", 1)
	}
	return http.StatusOK, b
}
