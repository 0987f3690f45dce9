package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// maxResponseBytes bounds a replica response body (the largest report is
// well under a megabyte).
const maxResponseBytes = 64 << 20

const (
	// attemptSlack pads the per-attempt timeout above the request's
	// pipeline deadline: the replica needs the whole deadline to produce
	// its best-so-far answer, plus transit. Requests with no deadline get
	// attempts capped at 60s.
	attemptSlack = 2 * time.Second
	// degradeFactor scales the deadline of degraded-admitted requests,
	// floored at deadlineFloor: shrink the search, keep the request.
	degradeFactor = 0.25
	deadlineFloor = 50 * time.Millisecond
	// jitterSeed fixes the backoff jitter, so retry timing replays.
	jitterSeed = 1
	// healthInterval spaces the active health probes; healthTimeout
	// bounds each one. corpusTimeout bounds one replica's GET /v1/corpus
	// (stats are a lock-and-copy, never pipeline work).
	healthInterval = time.Second
	healthTimeout  = 500 * time.Millisecond
	corpusTimeout  = time.Second
	// breakerThreshold consecutive failures open a replica's circuit
	// breaker for breakerCooloff before a half-open probe.
	breakerThreshold = 3
	breakerCooloff   = 2 * time.Second
	// Retries back off exponentially from backoffBase to backoffMax with
	// full jitter.
	backoffBase = 10 * time.Millisecond
	backoffMax  = 500 * time.Millisecond
)

// classDeadlines maps each service class onto its default pipeline
// deadline: what ties the cluster's overload story to the anytime
// machinery. A request carrying its own deadline_ms keeps it; degraded
// admission multiplies whichever applies by degradeFactor.
var classDeadlines = [...]time.Duration{
	Gold:   30 * time.Second,
	Silver: 10 * time.Second,
	Bronze: 3 * time.Second,
}

// Config parameterizes a Cluster. Only Replicas is required; the routing,
// health, retry and admission tuning is fixed by the package constants.
type Config struct {
	// Replicas lists the iscd backends. At least one is required.
	Replicas []ReplicaConfig
	// Telemetry receives the router's counters and gauges (nil = fresh
	// registry).
	Telemetry *telemetry.Registry
}

// Cluster is the router: create with New, mount Handler, call Start to
// begin active health checking and Close to stop it.
type Cluster struct {
	tel       *telemetry.Registry
	replicas  []*Replica
	ring      *Ring
	admission *Admission
	mux       *http.ServeMux
	// maxAttempts bounds tries per request including the first: one per
	// replica plus one retry.
	maxAttempts int

	jitterMu sync.Mutex
	jitter   *rand.Rand

	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates cfg and returns a ready Cluster (health loop not yet
// started).
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	seen := map[string]bool{}
	for _, rc := range cfg.Replicas {
		if rc.Name == "" || rc.URL == "" {
			return nil, fmt.Errorf("cluster: replica needs a name and a URL (got %q, %q)", rc.Name, rc.URL)
		}
		if seen[rc.Name] {
			return nil, fmt.Errorf("cluster: duplicate replica name %q", rc.Name)
		}
		seen[rc.Name] = true
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New("isccluster")
	}
	c := &Cluster{
		tel:         tel,
		admission:   NewAdmission(),
		mux:         http.NewServeMux(),
		maxAttempts: len(cfg.Replicas) + 1,
		jitter:      rand.New(rand.NewSource(jitterSeed)),
		stop:        make(chan struct{}),
	}
	for _, rc := range cfg.Replicas {
		c.replicas = append(c.replicas, newReplica(rc))
	}
	c.ring = NewRing(c.replicas)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/metrics", c.handleMetrics)
	c.mux.HandleFunc("/v1/benchmarks", c.handleBenchmarks)
	c.mux.HandleFunc("/v1/corpus", c.handleCorpus)
	c.mux.HandleFunc("/v1/customize", c.handleCustomize)
	return c, nil
}

// Handler returns the HTTP handler serving the cluster API.
func (c *Cluster) Handler() http.Handler { return c.mux }

// Start launches the active health loop: every replica is probed
// immediately and then every healthInterval until Close.
func (c *Cluster) Start() {
	c.probeAll()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(healthInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Close stops the health loop.
func (c *Cluster) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.wg.Wait()
}

// probeAll health-checks every replica concurrently (slow replicas must
// not delay probes of the others).
func (c *Cluster) probeAll() {
	var wg sync.WaitGroup
	for _, rep := range c.replicas {
		wg.Add(1)
		go func(rep *Replica) {
			defer wg.Done()
			rep.probe(context.Background())
		}(rep)
	}
	wg.Wait()
}

func clusterWriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, "encoding failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func clusterWriteError(w http.ResponseWriter, status int, format string, args ...any) {
	clusterWriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// replicaHealth is one row of the cluster's /healthz reply.
type replicaHealth struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	State    string `json:"state"`
	Draining bool   `json:"draining,omitempty"`
	Breaker  string `json:"breaker"`
	LastErr  string `json:"last_error,omitempty"`
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var rows []replicaHealth
	healthy := 0
	for _, rep := range c.replicas {
		rep.mu.Lock()
		row := replicaHealth{
			Name: rep.Name, URL: rep.URL, State: rep.state.String(),
			Draining: rep.draining, Breaker: rep.breaker.State(), LastErr: rep.lastErr,
		}
		rep.mu.Unlock()
		if row.State != "down" && !row.Draining {
			healthy++
		}
		rows = append(rows, row)
	}
	status := "ok"
	switch {
	case healthy == 0:
		status = "down"
	case healthy < len(c.replicas):
		status = "degraded"
	}
	clusterWriteJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"replicas": rows,
	})
}

// handleMetrics renders the router's telemetry in the same Prometheus
// text dialect as iscd's /metrics, prefixed isccluster_, with live
// replica-state gauges recomputed per scrape so the two pages join on one
// vocabulary (telemetry.ResilienceCounters are always present on both).
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var healthy, degraded, down, draining int64
	for _, rep := range c.replicas {
		switch rep.State() {
		case Healthy:
			healthy++
		case Degraded:
			degraded++
		default:
			down++
		}
		if rep.Draining() {
			draining++
		}
	}
	c.tel.SetGauge("replicas.healthy", float64(healthy))
	c.tel.SetGauge("replicas.degraded", float64(degraded))
	c.tel.SetGauge("replicas.down", float64(down))
	c.tel.SetGauge("replicas.draining", float64(draining))
	var sb bytes.Buffer
	sb.WriteString("isccluster_up 1\n")
	fmt.Fprintf(&sb, "isccluster_replicas %d\n", len(c.replicas))
	c.tel.Snapshot().WritePrometheus(&sb, "isccluster")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(sb.Bytes())
}

// handleBenchmarks proxies GET /v1/benchmarks to the first replica that
// answers (the list is identical on every replica).
func (c *Cluster) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		clusterWriteError(w, http.StatusMethodNotAllowed, "want GET")
		return
	}
	res := c.do(r.Context(), "benchmarks", http.MethodGet, "/v1/benchmarks", nil, 0)
	c.serveUpstream(w, res)
}

// corpusReplica is one row of the cluster's GET /v1/corpus reply: which
// replica, whether it could be reached, and its corpus status verbatim.
type corpusReplica struct {
	Name    string        `json:"name"`
	Error   string        `json:"error,omitempty"`
	Enabled bool          `json:"enabled"`
	Stats   *corpus.Stats `json:"stats,omitempty"`
}

// handleCorpus is GET /v1/corpus: the cluster-wide corpus view. The
// fingerprint ring that routes requests is also the corpus shard map —
// one program's blocks always land on (and therefore warm) the same
// replica — so the aggregate totals below describe one logical corpus
// sharded across the fleet. The endpoint fans out to every
// replica concurrently and sums every counter of corpus.Stats over the
// replicas that answered; unreachable replicas are reported per-row rather
// than failing the whole view.
func (c *Cluster) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		clusterWriteError(w, http.StatusMethodNotAllowed, "want GET")
		return
	}
	rows := make([]corpusReplica, len(c.replicas))
	var wg sync.WaitGroup
	for i, rep := range c.replicas {
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			rows[i] = c.fetchCorpus(r.Context(), rep)
		}(i, rep)
	}
	wg.Wait()

	total := corpus.Stats{}
	enabled := 0
	for i := range rows {
		st := rows[i].Stats
		if st == nil {
			continue
		}
		enabled++
		total.Entries += st.Entries
		total.MaxEntries += st.MaxEntries
		total.Candidates += st.Candidates
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Inserts += st.Inserts
		total.Evictions += st.Evictions
		total.Loaded += st.Loaded
		total.LoadErrors += st.LoadErrors
		total.AppendErrors += st.AppendErrors
		total.Segments += st.Segments
		total.DiskBytes += st.DiskBytes
	}
	clusterWriteJSON(w, http.StatusOK, map[string]any{
		"enabled":  enabled,
		"replicas": rows,
		"total":    total,
	})
}

// fetchCorpus asks one replica for its corpus status, bounded by
// corpusTimeout.
func (c *Cluster) fetchCorpus(ctx context.Context, rep *Replica) corpusReplica {
	row := corpusReplica{Name: rep.Name}
	ctx, cancel := context.WithTimeout(ctx, corpusTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.URL+"/v1/corpus", nil)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		row.Error = err.Error()
		return row
	}
	if resp.StatusCode != http.StatusOK {
		row.Error = fmt.Sprintf("status %d", resp.StatusCode)
		return row
	}
	var status server.CorpusStatus
	if err := json.Unmarshal(body, &status); err != nil {
		row.Error = err.Error()
		return row
	}
	row.Enabled = status.Enabled
	row.Stats = status.Stats
	return row
}

// effectiveDeadline maps (request, class, admission decision) onto the
// pipeline deadline forwarded to the replica: the request's own
// deadline_ms if set, else the class default; shrunk by degradeFactor
// (floored) when admission degraded the request. This is the SLO →
// anytime mapping: overload makes deadlines smaller, so replicas return
// best-so-far Truncated results instead of the cluster returning errors.
func effectiveDeadline(d time.Duration, class SLO, degraded bool) time.Duration {
	if d <= 0 {
		d = classDeadlines[class]
	}
	if degraded {
		d = time.Duration(float64(d) * degradeFactor)
		d = max(d, deadlineFloor)
	}
	return d
}

func (c *Cluster) handleCustomize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		clusterWriteError(w, http.StatusMethodNotAllowed, "want POST")
		return
	}
	c.tel.Add("cluster.requests", 1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxResponseBytes))
	if err != nil {
		clusterWriteError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	preq, status, err := ParseRequest(body, 0)
	if err != nil {
		c.tel.Add("cluster.bad_requests", 1)
		clusterWriteError(w, status, "%v", err)
		return
	}
	class := preq.Class
	c.tel.Add("slo."+class.String()+".requests", 1)

	dec := c.admission.Admit(class)
	if !dec.Admitted {
		c.tel.Add(telemetry.CounterShed, 1)
		c.tel.Add("slo."+class.String()+".shed", 1)
		w.Header().Set("Retry-After", strconv.Itoa(int((dec.RetryAfter+time.Second-1)/time.Second)))
		clusterWriteError(w, http.StatusServiceUnavailable, "admission: %s capacity exhausted, retry later", class)
		return
	}
	if dec.Degraded {
		c.tel.Add(telemetry.CounterDegraded, 1)
		c.tel.Add("slo."+class.String()+".degraded", 1)
		w.Header().Set("X-Isccluster-Degraded", "1")
	}

	deadline := effectiveDeadline(time.Duration(preq.Req.DeadlineMS)*time.Millisecond, class, dec.Degraded)
	fwd := preq.Req
	fwd.DeadlineMS = int(deadline / time.Millisecond)
	fwdBody, err := json.Marshal(fwd)
	if err != nil {
		clusterWriteError(w, http.StatusInternalServerError, "encoding forward body: %v", err)
		return
	}

	// The overall routing budget: the pipeline deadline plus slack per
	// possible attempt, so a request can fail over even after burning most
	// of its deadline on a dead replica.
	ctx, cancel := context.WithTimeout(r.Context(), deadline+time.Duration(c.maxAttempts)*attemptSlack)
	defer cancel()

	res := c.do(ctx, preq.Key, http.MethodPost, "/v1/customize", fwdBody, deadline)
	if res.err != nil || res.status >= 500 {
		c.tel.Add("slo."+class.String()+".errors", 1)
	} else {
		c.tel.Add("slo."+class.String()+".ok", 1)
	}
	w.Header().Set("X-Isccluster-SLO", class.String())
	c.serveUpstream(w, res)
}

// upstream is one routed request's outcome: either a replica response to
// pass through (status/header/body) or a transport-level error.
type upstream struct {
	replica   *Replica
	status    int
	header    http.Header
	body      []byte
	attempts  int
	failovers int
	err       error
}

// drain reports a graceful-drain refusal: 503 carrying Retry-After. The
// router re-routes these without tripping the breaker — drain is not
// death.
func (u *upstream) drain() bool {
	return u.err == nil && u.status == http.StatusServiceUnavailable && u.header.Get("Retry-After") != ""
}

// serveUpstream writes a routed result to the client, passing replica
// bytes through untouched so cluster responses stay byte-identical to
// single-node ones.
func (c *Cluster) serveUpstream(w http.ResponseWriter, res upstream) {
	w.Header().Set("X-Isccluster-Attempts", strconv.Itoa(res.attempts))
	w.Header().Set("X-Isccluster-Failovers", strconv.Itoa(res.failovers))
	if res.replica != nil {
		w.Header().Set("X-Isccluster-Replica", res.replica.Name)
	}
	if res.err != nil {
		c.tel.Add("cluster.upstream_errors", 1)
		clusterWriteError(w, http.StatusBadGateway, "no replica could serve the request: %v", res.err)
		return
	}
	if cacheHdr := res.header.Get("X-Iscd-Cache"); cacheHdr != "" {
		w.Header().Set("X-Iscd-Cache", cacheHdr)
	}
	if corpusHdr := res.header.Get("X-Iscd-Corpus"); corpusHdr != "" {
		w.Header().Set("X-Iscd-Corpus", corpusHdr)
	}
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" && res.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// nextReplica picks the most preferred routable replica at or after
// *cursor in seq, advancing the cursor past it. Non-draining available
// replicas win; draining ones are a fallback (they still serve cache
// hits); nil means nothing is routable right now.
func (c *Cluster) nextReplica(seq []*Replica, cursor *int) *Replica {
	var drainFallback *Replica
	fallbackAt := 0
	for i := *cursor; i < len(seq); i++ {
		rep := seq[i]
		if rep.State() == Down {
			continue
		}
		if rep.Draining() {
			if drainFallback == nil {
				drainFallback, fallbackAt = rep, i
			}
			continue
		}
		if rep.breaker.Allow() {
			*cursor = i + 1
			return rep
		}
	}
	if drainFallback != nil && drainFallback.breaker.Allow() {
		*cursor = fallbackAt + 1
		return drainFallback
	}
	return nil
}

// backoff returns the jittered exponential delay before retry n (n >= 1):
// full jitter over backoffBase·2^(n-1), capped at backoffMax.
func (c *Cluster) backoff(n int) time.Duration {
	d := backoffBase << (n - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	c.jitterMu.Lock()
	j := c.jitter.Int63n(int64(d) + 1)
	c.jitterMu.Unlock()
	return time.Duration(j)
}

// do is the attempt engine: walk the ring's preference order with
// per-attempt timeouts, jittered backoff between tries, and failover past
// failed or draining replicas. It returns the first acceptable upstream
// result, or the last failure when every attempt is spent. deadline is
// the pipeline deadline the current attempt must be allowed to use in
// full (0 = none).
func (c *Cluster) do(ctx context.Context, key string, method, path string, body []byte, deadline time.Duration) upstream {
	seq := c.ring.Sequence(key)
	cursor := 0
	var prev *Replica
	var last upstream
	last.err = fmt.Errorf("no routable replica")
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		rep := c.nextReplica(seq, &cursor)
		if rep == nil {
			if cursor == 0 && attempt == 0 {
				break // nothing routable at all
			}
			// Spent the preference list: wrap around and re-evaluate from
			// the top (breakers may have reopened, probes may have landed).
			cursor = 0
			if rep = c.nextReplica(seq, &cursor); rep == nil {
				break
			}
		}
		if attempt > 0 {
			c.tel.Add(telemetry.CounterRetry, 1)
			if rep != prev {
				c.tel.Add(telemetry.CounterFailover, 1)
				last.failovers++
			}
			select {
			case <-time.After(c.backoff(attempt)):
			case <-ctx.Done():
				last.attempts++
				return last
			}
		}
		prev = rep
		res := c.attempt(ctx, rep, method, path, body, deadline)
		res.attempts = last.attempts + 1
		res.failovers = last.failovers
		last = res

		switch {
		case res.drain():
			// Graceful drain: re-route without a breaker strike.
			c.tel.Add("cluster.drain_reroute", 1)
		case res.err != nil:
			if ctx.Err() != nil {
				return last // the request's budget expired, not the replica
			}
			res.replica.noteFailure(res.err.Error())
		case res.status >= 500:
			res.replica.noteFailure(fmt.Sprintf("upstream status %d", res.status))
		default:
			res.replica.noteSuccess()
			return last
		}
	}
	return last
}

// attempt performs one upstream HTTP exchange with its per-attempt
// timeout (deadline + attemptSlack, or 60s for unbounded requests).
func (c *Cluster) attempt(ctx context.Context, rep *Replica, method, path string, body []byte, deadline time.Duration) upstream {
	timeout := 60 * time.Second
	if deadline > 0 {
		timeout = deadline + attemptSlack
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.URL+path, rd)
	if err != nil {
		return upstream{replica: rep, err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.tel.Add("cluster.attempts", 1)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return upstream{replica: rep, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return upstream{replica: rep, err: err}
	}
	return upstream{replica: rep, status: resp.StatusCode, header: resp.Header, body: b}
}
