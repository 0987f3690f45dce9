package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/core"
	"repro/internal/cosim"
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
	s.serve(w, r, "hdl", renderHDL)
}

// renderHDL generates the machine description, lowers every selected CFU
// to a netlist, co-simulates each datapath against the reference
// semantics, and renders the Verilog and ISA artifacts. Any disagreement
// between the emitted hardware and the functional model is a server-side
// bug and surfaces as a 500, never as a silently wrong artifact. The
// corpus warms this pipeline too, but the X-Iscd-Corpus header is a
// /v1/customize affordance, so the header value is always empty.
func renderHDL(p *ir.Program, cfg core.Config) (any, bool, string, error) {
	m, err := core.GenerateMDES(p, cfg)
	if err != nil {
		return nil, false, "", err
	}
	resp := HDLResponse{Source: m.Source, Budget: m.Budget, Truncated: m.Truncated}
	for _, spec := range m.CFUs {
		resp.CFUs = append(resp.CFUs, HDLCFU{
			Name:    spec.Name,
			Module:  hdl.ModuleName(spec.Name),
			Area:    spec.Area,
			Latency: spec.Latency,
		})
	}
	datapaths, lowerErr := cosim.CheckMDES(m, cfg.Lib, hdlCosimTrials, 0)
	for _, d := range datapaths {
		info := &resp.CFUs[d.CFU]
		switch {
		case d.Memory:
			info.Memory = true
		case d.Err != nil:
			cfg.Telemetry.Add("server.hdl.mismatches", 1)
			return nil, false, "", fmt.Errorf("co-simulation of %s variant %d: %w", info.Name, d.Variant, d.Err)
		default:
			info.Datapaths++
		}
	}
	if lowerErr != nil {
		return nil, false, "", lowerErr
	}
	for i := range resp.CFUs {
		if info := &resp.CFUs[i]; info.Datapaths > 0 {
			info.Cosim = "pass"
			info.Trials = hdlCosimTrials
		} else {
			info.Cosim = "skipped (memory)"
		}
	}

	var verilog bytes.Buffer
	if err := hdl.EmitMDES(&verilog, m, cfg.Lib); err != nil {
		return nil, false, "", err
	}
	resp.Verilog = verilog.String()
	isaSpec, err := hdl.MapISA(m)
	if err != nil {
		return nil, false, "", err
	}
	var isa bytes.Buffer
	if err := isaSpec.Write(&isa); err != nil {
		return nil, false, "", err
	}
	resp.ISA = isa.String()
	resp.Extension = isaSpec.Name
	return resp, resp.Truncated, "", nil
}
