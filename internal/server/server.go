package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/explore"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/mdes"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// maxRequestBytes bounds a customize request body (programs are text; the
// largest seed benchmark is well under 100 KiB).
const maxRequestBytes = 16 << 20

// Config parameterizes a Server. The zero value serves with one pipeline
// token per CPU, a 256-entry cache, and no default deadline.
type Config struct {
	// Name is the replica's identity ("" = "iscd"): it appears in /healthz,
	// keys the "replica" fault-injection site, and lets a cluster router
	// tell replicas apart when several run in one process (tests) or one
	// host (CI smoke).
	Name string
	// MaxConcurrent is the pipeline token budget: the number of requests
	// whose pipeline may run at once (0 = one per CPU). Each admitted
	// request holds one token and explores its blocks serially, since its
	// context is an anytime budget. Requests beyond the budget queue at
	// admission.
	MaxConcurrent int
	// CacheEntries is the LRU result-cache capacity (0 = 256).
	CacheEntries int
	// DefaultDeadline bounds each request's pipeline time when the request
	// does not set deadline_ms (0 = unbounded). Expiry yields a truncated
	// best-so-far response, not an error.
	DefaultDeadline time.Duration
	// DrainRetryAfter is the Retry-After hint (rounded up to whole seconds)
	// on the 503s a draining server sheds (0 = 1s). The header is how a
	// cluster router distinguishes graceful drain from death: drained
	// requests re-route without tripping the replica's circuit breaker.
	DrainRetryAfter time.Duration
	// Telemetry receives the server's counters, gauges and spans (nil = a
	// fresh registry, which /metrics renders either way).
	Telemetry *telemetry.Registry
	// Corpus, when non-nil, memoizes per-block exploration across requests
	// (and, when disk-backed, across restarts). Replies stay byte-identical
	// to corpus-free runs; the X-Iscd-Corpus response header reports how
	// many blocks a fresh run replayed versus searched, GET /v1/corpus
	// serves the store's stats, and /metrics grows iscd_corpus_* gauges.
	Corpus *corpus.Corpus
}

// Server is the customization service: the full paper pipeline behind an
// HTTP/JSON API with a content-addressed result cache, request coalescing,
// bounded admission, and panic containment. Create one with New, mount
// Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg      Config
	tel      *telemetry.Registry
	tokens   *explore.Tokens
	cache    *resultCache
	mux      *http.ServeMux
	draining atomic.Bool

	mu       sync.Mutex
	inflight map[string]*call

	wg sync.WaitGroup
}

// call is one in-flight pipeline run; followers of a coalesced request
// wait on done and then serve the leader's bytes.
type call struct {
	done   chan struct{}
	status int
	body   []byte
	// corpus is the X-Iscd-Corpus header value of the leader's run ("" =
	// no corpus attached). It rides the header, never the body: cached
	// bytes must stay byte-identical however the result was produced.
	corpus string
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "iscd"
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 256
	}
	if cfg.DrainRetryAfter <= 0 {
		cfg.DrainRetryAfter = time.Second
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New("iscd")
	}
	if cfg.Corpus != nil {
		cfg.Corpus.SetTelemetry(tel)
	}
	s := &Server{
		cfg:      cfg,
		tel:      tel,
		tokens:   explore.NewTokens(cfg.MaxConcurrent),
		cache:    newResultCache(cfg.CacheEntries),
		mux:      http.NewServeMux(),
		inflight: make(map[string]*call),
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("/v1/customize", s.handleCustomize)
	s.mux.HandleFunc("/v1/hdl", s.handleHDL)
	s.mux.HandleFunc("/v1/corpus", s.handleCorpus)
	return s
}

// Handler returns the HTTP handler serving the iscd API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new pipeline runs are refused with 503
// (cache hits are still served — they cost nothing), and Shutdown returns
// once every in-flight run has delivered its response, or with ctx's error
// if the context expires first. Call http.Server.Shutdown alongside to
// stop accepting connections.
func (s *Server) Shutdown(ctx context.Context) error {
	// The drain flag flips under the inflight mutex: a leader either
	// completes its wg.Add before this lock (and is waited for) or sees
	// draining afterwards (and is refused), so Add never races Wait.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Response is the JSON body of a successful POST /v1/customize: the
// generated machine description and the compilation report for the input
// program recompiled onto its own extended machine. Identical requests
// produce byte-identical responses (the encoder is deterministic and maps
// serialize in sorted key order), which makes the result cache observable:
// a cached reply is literally the bytes of the first one.
type Response struct {
	// Source names the customized program.
	Source string `json:"source"`
	// Speedup is the headline cycles(baseline)/cycles(custom) ratio.
	Speedup float64 `json:"speedup"`
	// Truncated reports that an anytime budget (the request deadline or
	// max_candidates) expired and the result is best-so-far, not
	// exhaustive. Truncated responses are never cached.
	Truncated bool `json:"truncated,omitempty"`
	// MDES is the generated machine description.
	MDES *mdes.MDES `json:"mdes"`
	// Report is the full cycle-accounting report.
	Report *compile.Report `json:"report"`
}

// errorResponse is the JSON body of every non-200 reply.
type errorResponse struct {
	Error string `json:"error"`
}

// BenchmarkInfo is one entry of GET /v1/benchmarks.
type BenchmarkInfo struct {
	// Name and Domain identify the benchmark (registration order, five
	// domains).
	Name   string `json:"name"`
	Domain string `json:"domain"`
	// Description says which kernel(s) were lowered.
	Description string `json:"description"`
	// Blocks and Ops size the program.
	Blocks int `json:"blocks"`
	Ops    int `json:"ops"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, "encoding failure", http.StatusInternalServerError)
		return
	}
	writeRaw(w, status, append(body, '\n'))
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"replica": s.cfg.Name, "status": status})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "want GET")
		return
	}
	var out []BenchmarkInfo
	for _, b := range workloads.All() {
		out = append(out, BenchmarkInfo{
			Name:        b.Name,
			Domain:      b.Domain,
			Description: b.Description,
			Blocks:      len(b.Program.Blocks),
			Ops:         b.Program.NumOps(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics renders the telemetry registry as a flat, sorted,
// Prometheus-style text page: one `iscd_<name> <value>` line per counter
// and gauge (dots become underscores), plus per-span count/wall/cpu lines,
// the cache occupancy, and the draining gauge a cluster router watches to
// tell graceful drain from death. The canonical resilience counters
// (telemetry.ResilienceCounters) are always present, zero or not, so their
// names stay joinable with the isccluster metrics page.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.tel.Snapshot()
	var sb strings.Builder
	sb.WriteString("iscd_up 1\n")
	fmt.Fprintf(&sb, "iscd_cache_entries %d\n", s.cache.len())
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(&sb, "iscd_draining %d\n", draining)
	// The corpus gauges are always present when a corpus is attached, zero
	// or not, so dashboards can join them with the X-Iscd-Corpus header and
	// GET /v1/corpus without special-casing a fresh store.
	if s.cfg.Corpus != nil {
		cs := s.cfg.Corpus.Stats()
		fmt.Fprintf(&sb, "iscd_corpus_enabled 1\n")
		fmt.Fprintf(&sb, "iscd_corpus_entries %d\n", cs.Entries)
		fmt.Fprintf(&sb, "iscd_corpus_hits %d\n", cs.Hits)
		fmt.Fprintf(&sb, "iscd_corpus_misses %d\n", cs.Misses)
		fmt.Fprintf(&sb, "iscd_corpus_inserts %d\n", cs.Inserts)
		fmt.Fprintf(&sb, "iscd_corpus_evictions %d\n", cs.Evictions)
		fmt.Fprintf(&sb, "iscd_corpus_segments %d\n", cs.Segments)
		fmt.Fprintf(&sb, "iscd_corpus_disk_bytes %d\n", cs.DiskBytes)
		fmt.Fprintf(&sb, "iscd_corpus_append_errors %d\n", cs.AppendErrors)
		fmt.Fprintf(&sb, "iscd_corpus_loaded %d\n", cs.Loaded)
		fmt.Fprintf(&sb, "iscd_corpus_load_errors %d\n", cs.LoadErrors)
	} else {
		fmt.Fprintf(&sb, "iscd_corpus_enabled 0\n")
	}
	snap.WritePrometheus(&sb, "iscd")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, sb.String())
}

// retryAfterSeconds rounds a drain hint up to the whole seconds the
// Retry-After header speaks, never below 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	return max(secs, 1)
}

// Resolve turns a request's benchmark name or iscasm text into a validated
// program, with the HTTP status to use on failure. The cluster router uses
// it to fingerprint requests for consistent-hash routing with exactly the
// replica's semantics, so router and replica can never disagree about
// which program a request names.
func Resolve(req Request) (*ir.Program, int, error) {
	var p *ir.Program
	switch {
	case req.Benchmark != "" && req.Program != "":
		return nil, http.StatusBadRequest, fmt.Errorf("set benchmark or program, not both")
	case req.Benchmark != "":
		b, err := workloads.ByName(req.Benchmark)
		if err != nil {
			return nil, http.StatusNotFound, err
		}
		p = b.Program
	case req.Program != "":
		parsed, err := asm.Parse(strings.NewReader(req.Program))
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		p = parsed
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("request needs a benchmark name or an iscasm program")
	}
	// Validation before fingerprinting: the hash resolves operands to
	// block positions and must only see well-formed programs, whose
	// operands name ops of their own block.
	if err := ir.Validate(p); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return p, 0, nil
}

// handleCustomize is POST /v1/customize: the hardware compiler's machine
// description plus the input program recompiled onto it.
func (s *Server) handleCustomize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "want POST")
		return
	}
	s.tel.Add("server.requests", 1)
	s.serve(w, r, "customize", renderCustomize)
}

// renderer runs one endpoint's pipeline under cfg. It returns the value
// encoded as the 200 body, whether that result is truncated (best-so-far),
// and the X-Iscd-Corpus header value ("" = none).
type renderer func(p *ir.Program, cfg core.Config) (body any, truncated bool, corpusHdr string, err error)

// serve is the request front end of every pipeline-backed endpoint: the
// replica fault site, request decoding, normalization, program resolution,
// validation, and the kind-prefixed cache key, then serveCached with one
// fenced run of render. The endpoint's handler has already checked its
// method and counted the request.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, kind string, render renderer) {
	// The replica-level fault site models a sick *process*, not a sick
	// pipeline: it sits before the cache so hang/flaky/kill faults hit
	// every request the replica handles, the way real replica failures do.
	if err := faultinject.Fire("replica", s.cfg.Name); err != nil {
		s.tel.Add("server.faults", 1)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	req, err := decodeRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
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
	key := req.cacheKey(kind, p)
	s.serveCached(w, r, key, func() (int, []byte, string) { return s.run(kind, req, p, key, render) })
}

// decodeRequest reads a Request from the query of a GET or the JSON body
// of a POST (bounded by maxRequestBytes). Each handler has already
// refused the methods it does not serve, so any failure is a 400.
func decodeRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	var req Request
	if r.Method == http.MethodGet {
		return requestFromQuery(r.URL.Query())
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return req, fmt.Errorf("reading body: %v", err)
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("bad request JSON: %v", err)
	}
	return req, nil
}

// handleCorpus is GET /v1/corpus: the exploration corpus's statistics —
// occupancy, hit/miss/insert/eviction counters, load errors and disk
// segment accounting. A server with no corpus attached reports
// {"enabled": false} rather than 404 so probes can tell "no corpus" from
// "no such replica".
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "want GET")
		return
	}
	resp := CorpusStatus{Replica: s.cfg.Name}
	if s.cfg.Corpus != nil {
		resp.Enabled = true
		st := s.cfg.Corpus.Stats()
		resp.Stats = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// CorpusStatus is the JSON body of GET /v1/corpus.
type CorpusStatus struct {
	// Replica names the serving replica, like /healthz.
	Replica string `json:"replica"`
	// Enabled reports whether a corpus is attached at all.
	Enabled bool `json:"enabled"`
	// Stats is the store's live statistics (absent when disabled).
	Stats *corpus.Stats `json:"stats,omitempty"`
}

// serveCached is the caching half of serve: result-cache lookup, request coalescing, drain refusal, and
// singleflight leadership. Exactly one goroutine runs `work` per key; any
// concurrent identical request waits for the leader's bytes. The
// X-Iscd-Cache response header says how the reply was produced ("hit",
// "miss", or "coalesced") without perturbing the cached body bytes.
// Caching the result (or not, for truncated responses) is run's job.
// `work`'s third return is the X-Iscd-Corpus header value ("" = none),
// which rides the response header — of the leader and of every coalesced
// follower — but never the cached body bytes.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, work func() (int, []byte, string)) {
	if cached, ok := s.cache.get(key); ok {
		s.tel.Add("server.cache.hit", 1)
		w.Header().Set("X-Iscd-Cache", "hit")
		writeRaw(w, http.StatusOK, cached)
		return
	}
	s.tel.Add("server.cache.miss", 1)

	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.tel.Add("server.coalesced", 1)
		select {
		case <-c.done:
			w.Header().Set("X-Iscd-Cache", "coalesced")
			if c.corpus != "" {
				w.Header().Set("X-Iscd-Corpus", c.corpus)
			}
			writeRaw(w, c.status, c.body)
		case <-r.Context().Done():
			// The follower's client went away; the leader keeps running.
		}
		return
	}
	if s.draining.Load() {
		s.mu.Unlock()
		// Retry-After marks this 503 as graceful drain, not death: a
		// cluster router re-routes to another replica without tripping the
		// circuit breaker, and counts the refusal as load shed.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.DrainRetryAfter)))
		s.tel.Add(telemetry.CounterShed, 1)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	c := &call{done: make(chan struct{})}
	s.inflight[key] = c
	s.wg.Add(1)
	s.tel.MaxGauge("server.inflight.max", float64(len(s.inflight)))
	s.mu.Unlock()

	c.status, c.body, c.corpus = work()

	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)
	s.wg.Done()

	w.Header().Set("X-Iscd-Cache", "miss")
	if c.corpus != "" {
		w.Header().Set("X-Iscd-Corpus", c.corpus)
	}
	writeRaw(w, c.status, c.body)
}

// run executes one admitted request's pipeline behind the panic fence.
// The run's context is detached from the leader's HTTP request (a
// coalesced follower must not die with the leader's connection) and
// bounded only by the request deadline; expiry surfaces as a truncated
// best-so-far response via the anytime-budget machinery. A truncated
// result is returned but never cached.
func (s *Server) run(kind string, req Request, p *ir.Program, key string, render renderer) (status int, body []byte, corpusHdr string) {
	defer s.tel.StartSpan("server." + kind)()
	defer func() {
		if r := recover(); r != nil {
			s.tel.Add("server.panics", 1)
			status, body, corpusHdr = errReply(http.StatusInternalServerError,
				fmt.Errorf("panic in %s %q: %v", kind, p.Name, r))
		}
	}()

	ctx := context.Background()
	if d := req.deadline(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// The injection point sits inside the deadline so an injected slowdown
	// models a slow pipeline: the robustness suite proves a stalled run
	// still yields a truncated best-so-far response within its deadline.
	if err := faultinject.Fire("server", p.Name); err != nil {
		s.tel.Add("server.faults", 1)
		return errReply(http.StatusInternalServerError, err)
	}

	// Admission: hold one pipeline token for the duration of the run. A
	// deadline that expires while queued is not an error — the pipeline
	// runs with the expired context and returns its (empty) best-so-far
	// result tagged truncated, which costs nothing.
	if s.tokens.Acquire(ctx) {
		defer s.tokens.Release()
	}

	cfg := req.Config
	cfg.Ctx = ctx
	cfg.Telemetry = s.tel
	cfg.Corpus = s.cfg.Corpus

	v, truncated, corpusHdr, err := render(p, cfg)
	if err != nil {
		s.tel.Add("server.errors", 1)
		return errReply(http.StatusInternalServerError, err)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return errReply(http.StatusInternalServerError, err)
	}
	b = append(b, '\n')
	if truncated {
		// A truncated result depends on where the clock cut the search, so
		// caching it would freeze one timing accident as the answer.
		s.tel.Add("server.truncated", 1)
		s.tel.Add("server.cache.skip_truncated", 1)
	} else {
		s.cache.put(key, b)
		s.tel.Add("server.cache.store", 1)
	}
	return http.StatusOK, b, corpusHdr
}

// renderCustomize is /v1/customize's pipeline: core.Customize rendered as
// a Response, with the run's corpus replay counts for X-Iscd-Corpus when a
// corpus is attached.
func renderCustomize(p *ir.Program, cfg core.Config) (any, bool, string, error) {
	res, err := core.Customize(p, cfg)
	if err != nil {
		return nil, false, "", err
	}
	corpusHdr := ""
	if cfg.Corpus != nil {
		corpusHdr = fmt.Sprintf("hits=%d misses=%d", res.CorpusHits, res.CorpusMisses)
	}
	resp := Response{
		Source:    res.Report.Source,
		Speedup:   res.Report.Speedup,
		Truncated: res.Report.Truncated,
		MDES:      res.MDES,
		Report:    res.Report,
	}
	return resp, resp.Truncated, corpusHdr, nil
}

// errReply is a JSON error body in serveCached's work signature: error
// replies never carry an X-Iscd-Corpus header.
func errReply(status int, err error) (int, []byte, string) {
	b, _ := json.MarshalIndent(errorResponse{Error: err.Error()}, "", "  ")
	return status, append(b, '\n'), ""
}
