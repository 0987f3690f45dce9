package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/mdes"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// request is one service call as the load generator sends it.
type request struct {
	kind string // "customize" or "hdl"
	// bench names a seed benchmark; program is iscasm text otherwise.
	bench, program string
	budget         int
	// slo is set on requests sent through the cluster; deadlineMS only on
	// the hit probe's requests sent straight to a replica.
	deadlineMS int
	slo        string
}

func (r request) path() string { return "/v1/" + r.kind }

// body is the request as iscd and isccluster read it.
func (r request) body() []byte {
	b, _ := json.Marshal(struct {
		Benchmark  string `json:"benchmark,omitempty"`
		Program    string `json:"program,omitempty"`
		Budget     int    `json:"budget,omitempty"`
		DeadlineMS int    `json:"deadline_ms,omitempty"`
		SLO        string `json:"slo,omitempty"`
	}{r.bench, r.program, r.budget, r.deadlineMS, r.slo})
	return b
}

func (r request) String() string {
	name := r.bench
	if name == "" {
		name = "program"
		if first, _, ok := strings.Cut(r.program, "\n"); ok {
			name = first
		}
	}
	return fmt.Sprintf("%s %s budget %d", r.kind, name, r.budget)
}

// newClient returns an HTTP client holding at most nproc connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc(),
		MaxIdleConnsPerHost: nproc(),
	}}
}

// send posts r to base and reads the whole reply.
func send(c *http.Client, base string, r request) (*http.Response, []byte, error) {
	resp, err := c.Post(base+r.path(), "application/json", bytes.NewReader(r.body()))
	if err != nil {
		return nil, nil, fmt.Errorf("%v: %w", r, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("%v: reading reply: %w", r, err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp, body, fmt.Errorf("%v: status %d: %s", r, resp.StatusCode, body)
	}
	return resp, body, nil
}

// encodeCustomize renders a /v1/customize body exactly as iscd does; it
// mirrors the response encoding in internal/server/server.go.
func encodeCustomize(m *mdes.MDES, rep *compile.Report) ([]byte, error) {
	b, err := json.MarshalIndent(server.Response{
		Source: rep.Source, Speedup: rep.Speedup, Truncated: rep.Truncated, MDES: m, Report: rep,
	}, "", "  ")
	return append(b, '\n'), err
}

// offlineCustomize is the reference for a synthetic program's body: the
// pipeline run directly, outside the service.
func offlineCustomize(r request) ([]byte, error) {
	p, _, err := server.Resolve(server.Request{Program: r.program})
	if err != nil {
		return nil, err
	}
	res, err := core.Customize(p, core.Config{Budget: float64(r.budget)})
	if err != nil {
		return nil, err
	}
	return encodeCustomize(res.MDES, res.Report)
}

// synthRequest draws a seeded synthetic program. Twelve blocks of 12 ops
// cost 16-41 ms to customize, well below the seed benchmarks' mean (about
// 200 ms). The seed benchmarks' costs fall in separated clusters (seven
// under 20 ms, two near 30 ms, the rest from 60 ms to 900 ms), and
// service-miss's median request falls at the edge of the cheap ones; the
// synthetic programs fill the band around it, so the median lands inside a
// dense band instead of jumping between clusters from seed to seed. Costs
// per block grow steeply with its size, so many small blocks keep the
// spread narrow: one block of 24 ops costs anywhere from 5 to 120 ms.
func synthRequest(name string, seed uint64, budget int) (request, error) {
	return synthProgram(fmt.Sprintf("name=%s:seed=%d:blocks=12:ops=12", name, seed), budget)
}

// synthProgram is a customize request for the synthetic program spec
// describes.
func synthProgram(spec string, budget int) (request, error) {
	s, err := synth.ParseSpec(spec)
	if err != nil {
		return request{}, err
	}
	p, err := synth.Generate(s)
	if err != nil {
		return request{}, err
	}
	var text strings.Builder
	if err := asm.Write(&text, p); err != nil {
		return request{}, err
	}
	return request{kind: "customize", program: text.String(), budget: budget}, nil
}

// stratifiedKeys orders every (benchmark, budget 1-15) key of one kind
// without replacement, in rounds that hold each benchmark once, so every
// prefix of the order mixes the benchmarks evenly.
func stratifiedKeys(rng *rand.Rand, benches []string, kind string) []request {
	budgets := make([][]int, len(benches))
	for i := range benches {
		budgets[i] = rng.Perm(15)
	}
	var out []request
	for round := 0; round < 15; round++ {
		for _, i := range rng.Perm(len(benches)) {
			out = append(out, request{kind: kind, bench: benches[i], budget: budgets[i][round] + 1})
		}
	}
	return out
}

// missRoundSize is the length of one round of service-miss's request list
// over benches: one /v1/customize request per benchmark, and three /v1/hdl
// and three synthetic-program requests per 16 benchmarks (at least one).
func missRoundSize(benches []string) (size, hdl int) {
	hdl = max(1, (3*len(benches)+8)/16)
	return len(benches) + 2*hdl, hdl
}

// missRequests builds service-miss's request list from the seed, in rounds
// shuffled within: each round holds one /v1/customize request for a named
// key of every benchmark, /v1/hdl requests for the next named keys of the
// hdl order, and as many customize requests for fresh synthetic programs.
// Each named key is used once; once the keys of a kind run out, their
// places go to synthetic programs, so no request ever repeats a cache key.
// The measured phase serves whole rounds: the seed benchmarks' costs span
// 2 ms to 900 ms, so a run that stopped inside a round would hold a
// speed-dependent subset of the benchmarks, and its median would move with it.
func missRequests(cfg config) ([]request, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	custom, hdlKeys := stratifiedKeys(rng, cfg.benches, "customize"), stratifiedKeys(rng, cfg.benches, "hdl")
	size, hdl := missRoundSize(cfg.benches)
	var out []request
	for round := 0; round < cfg.missRounds; round++ {
		kinds := make([]string, 0, size)
		for len(kinds) < size {
			switch {
			case len(kinds) < len(cfg.benches):
				kinds = append(kinds, "customize")
			case len(kinds) < len(cfg.benches)+hdl:
				kinds = append(kinds, "hdl")
			default:
				kinds = append(kinds, "synth")
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, kind := range kinds {
			seed, budget := uint64(rng.Uint32()), rng.Intn(15)+1
			switch {
			case kind == "customize" && len(custom) > 0:
				out, custom = append(out, custom[0]), custom[1:]
			case kind == "hdl" && len(hdlKeys) > 0:
				out, hdlKeys = append(out, hdlKeys[0]), hdlKeys[1:]
			default:
				r, err := synthRequest(fmt.Sprintf("synth-%d", len(out)), seed, budget)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// missWorkload is one in-process iscd (no corpus, no default deadline)
// behind a loopback listener, driven by a closed loop of nproc clients
// through a seeded list of requests that never repeat a cache key.
type missWorkload struct {
	cfg    config
	refs   *references
	reqs   []request
	srv    *httptest.Server
	tel    *telemetry.Registry
	client *http.Client
	// want holds each synthetic request's reference body by request index.
	want map[int][]byte
	// served holds each served body by request index.
	served map[int][]byte
}

// setup builds the request list and the synthetic requests' reference
// bodies, starts the server, and serves one warm-up request, a two-block
// synthetic program unlike any in the list, checked against its offline
// reference.
func (w *missWorkload) setup() error {
	w.close()
	reqs, err := missRequests(w.cfg)
	if err != nil {
		return err
	}
	w.reqs, w.want = reqs, map[int][]byte{}
	for i, r := range reqs {
		if r.bench == "" {
			if w.want[i], err = offlineCustomize(r); err != nil {
				return fmt.Errorf("%v: offline pipeline: %w", r, err)
			}
		}
	}
	w.tel = telemetry.New("iscd")
	w.srv = httptest.NewServer(server.New(server.Config{MaxConcurrent: nproc(), Telemetry: w.tel}).Handler())
	w.client = newClient()
	warm, err := synthProgram("name=warmup:seed=1:blocks=2:ops=24", 15)
	if err != nil {
		return err
	}
	want, err := offlineCustomize(warm)
	if err != nil {
		return err
	}
	_, body, err := send(w.client, w.srv.URL, warm)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("warm-up %v: body differs from the offline pipeline's", warm)
	}
	return nil
}

// measure runs the closed loop for about d: each client sends the next
// request of the list when its previous reply arrives, after any round of
// the reference workload that has come due. Once d has passed, no request
// of a new round is sent, so the run serves whole rounds (or the whole
// list).
func (w *missWorkload) measure(d time.Duration, cal *calibration) (*phase, error) {
	before := w.tel.Snapshot().Counters
	ops := make([]op, len(w.reqs))
	bodies := make([][]byte, len(w.reqs))
	size, _ := missRoundSize(w.cfg.benches)
	start := time.Now()
	// take hands out the requests in list order, so the requests served
	// form a prefix of the list, n long.
	var mu sync.Mutex
	n := 0
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if n == len(w.reqs) || n%size == 0 && time.Since(start) >= d {
			return 0, false
		}
		n++
		return n - 1, true
	}
	// One call per client, which serves requests until take refuses.
	fanOut(nproc(), func(_, _ int) bool {
		// prev is this client's last completion.
		prev := start
		for i, ok := take(); ok; i, ok = take() {
			r := w.reqs[i]
			t0 := time.Now()
			resp, body, err := send(w.client, w.srv.URL, r)
			end := time.Now()
			switch {
			case err != nil:
			case r.bench != "":
				err = w.refs.checkBody(r.kind, r.bench, r.budget, body)
			case !bytes.Equal(body, w.want[i]):
				err = fmt.Errorf("%v: body differs from the offline pipeline's", r)
			}
			o := op{latency: end.Sub(t0), lag: t0.Sub(prev), err: err, input: r.String()}
			o.hit = resp != nil && resp.Header.Get("X-Iscd-Cache") == "hit"
			ops[i], bodies[i] = o, body
			prev = end
			cal.tick(1)
		}
		return false
	})
	w.served = map[int][]byte{}
	for i := 0; i < n; i++ {
		w.served[i] = bodies[i]
	}
	return &phase{ops: ops[:n], counts: diffCounts(w.tel.Snapshot().Counters, before), pipeline: true}, nil
}

// jobs replays the first replayJobs requests of the list, expecting the
// bodies the measured phase was served.
func (w *missWorkload) jobs() []job {
	var jobs []job
	for i, r := range w.reqs[:min(w.cfg.replayJobs, len(w.reqs))] {
		jobs = append(jobs, job{req: r, budgets: []int{r.budget}, wantBody: w.served[i]})
	}
	return jobs
}

func (w *missWorkload) probe() (*hitPath, error) {
	var reqs []request
	for _, r := range w.reqs[:min(2, len(w.reqs))] {
		r.kind = "customize"
		reqs = append(reqs, r)
	}
	return newHitPath(reqs)
}

func (w *missWorkload) close() {
	if w.srv != nil {
		w.client.CloseIdleConnections()
		w.srv.Close()
		w.srv = nil
	}
}

// diffCounts returns the counters that grew between two snapshots.
func diffCounts(after, before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// The service-hit traffic: an open loop of Poisson arrivals in which every
// echoEvery-th arrival is an echo request (echoPath) and the others are
// cached requests, at hitRate. Keys are drawn Zipf(hitZipf) over the
// benchmarks and uniformly over the SLO classes. Requests name only their
// class; the router maps each class onto its default deadline, so each
// (benchmark, class) pair is its own replica cache entry. At this rate each
// class stays well inside its default admission rate (100/s), so nothing is
// shed or degraded and every request is a cache hit.
const (
	hitRate   = 150.0
	hitZipf   = 1.1
	hitBudget = 15
	echoEvery = 4
)

// echoBaseMS are the echo requests' latency statistics on the machine the
// benchmark was defined on (Intel Xeon at 2.0 GHz, 2 vCPUs, Go 1.24): the
// medians over ten quiet runs. service-hit reports each latency statistic
// of its cached requests multiplied by echoBaseMS / the same statistic of
// the run's echo requests, so it reads as the latency at that machine's
// quiet speed.
var echoBaseMS = map[string]float64{
	"latency_p50_ms":  1.04,
	"latency_mean_ms": 1.09,
	"latency_p90_ms":  1.61,
}

// echoPath is two loopback hops of the standard library alone: a reverse
// proxy in front of a handler that returns a fixed body. Echo requests ride
// in service-hit's open loop among the cached requests and travel the same
// two hops (client to router to replica), with none of the program's work.
// A cached request does little work: the traced run times the router's
// and the replica's handlers at about 0.6 ms of a 1.5 ms median. The rest
// is the hops' scheduling and wake-ups, which on the shared machine slow
// by up to 2x for seconds or minutes at a time, so between runs of the
// same code the cached requests' median spread by up to 17%, their mean
// by up to 43% and their 90th percentile by up to 61%. The echo requests
// see the same slowdowns at the same moments; divided by theirs, the
// spreads fell to 5-13% (README.md has the measurements).
type echoPath struct {
	backend, proxy *httptest.Server
}

var (
	echoRequest = request{kind: "customize", bench: "echo"}
	echoBody    = bytes.Repeat([]byte("0123456789abcdef"), 256)
)

func newEchoPath() (*echoPath, error) {
	backend := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		rw.Write(echoBody)
	}))
	u, err := url.Parse(backend.URL)
	if err != nil {
		backend.Close()
		return nil, err
	}
	return &echoPath{backend: backend, proxy: httptest.NewServer(httputil.NewSingleHostReverseProxy(u))}, nil
}

// send sends one echo request and checks the reply.
func (e *echoPath) send(c *http.Client) error {
	_, body, err := send(c, e.proxy.URL, echoRequest)
	if err == nil && !bytes.Equal(body, echoBody) {
		err = fmt.Errorf("%v: reply differs from the fixed body", echoRequest)
	}
	return err
}

func (e *echoPath) close() {
	e.proxy.Close()
	e.backend.Close()
}

// goldDeadlineMS is isccluster's default deadline for the gold class, which
// the router forwards to the replica. A request sent straight to a replica
// with this deadline shares the cache entry of a gold request sent through
// the router.
const goldDeadlineMS = 30000

var sloClasses = []string{"gold", "silver", "bronze"}

// hitWorkload is an in-process isccluster (affinity routing, default
// admission) in front of nproc iscd replicas, each behind a loopback
// listener, serving only cached keys.
type hitWorkload struct {
	cfg      config
	refs     *references
	replicas []*httptest.Server
	handlers []http.Handler
	tels     []*telemetry.Registry
	ctel     *telemetry.Registry
	cl       *cluster.Cluster
	router   *httptest.Server
	client   *http.Client
	echo     *echoPath
	// bodies maps a warmed request to the bytes setup was served for it,
	// and owner maps a benchmark to the index of the replica that cached it.
	bodies map[request][]byte
	owner  map[string]int
}

func hitRequest(bench, slo string) request {
	return request{kind: "customize", bench: bench, budget: hitBudget, slo: slo}
}

// setup starts the replicas and the router and warms every benchmark in
// every SLO class through the router, checking each body.
func (w *hitWorkload) setup() error {
	w.close()
	var rcs []cluster.ReplicaConfig
	for i := 0; i < nproc(); i++ {
		tel := telemetry.New("iscd")
		name := fmt.Sprintf("r%d", i+1)
		h := server.New(server.Config{Name: name, MaxConcurrent: nproc(), Telemetry: tel}).Handler()
		ts := httptest.NewServer(h)
		w.replicas, w.handlers, w.tels = append(w.replicas, ts), append(w.handlers, h), append(w.tels, tel)
		rcs = append(rcs, cluster.ReplicaConfig{Name: name, URL: ts.URL})
	}
	w.ctel = telemetry.New("isccluster")
	cl, err := cluster.New(cluster.Config{Replicas: rcs, Telemetry: w.ctel})
	if err != nil {
		return err
	}
	cl.Start()
	w.cl = cl
	w.router = httptest.NewServer(cl.Handler())
	w.client = newClient()
	if w.echo, err = newEchoPath(); err != nil {
		return err
	}
	echoErrs := make([]error, nproc())
	fanOut(len(echoErrs), func(_, i int) bool {
		echoErrs[i] = w.echo.send(w.client)
		return true
	})
	if err := errors.Join(echoErrs...); err != nil {
		return err
	}

	var warm []request
	for _, slo := range sloClasses {
		for _, b := range w.cfg.benches {
			warm = append(warm, hitRequest(b, slo))
		}
	}
	type reply struct {
		replica string
		body    []byte
	}
	replies := make([]reply, len(warm))
	errs := make([]error, len(warm))
	fanOut(len(warm), func(_, i int) bool {
		resp, body, err := send(w.client, w.router.URL, warm[i])
		if err == nil {
			err = w.refs.checkBody("customize", warm[i].bench, hitBudget, body)
			replies[i] = reply{resp.Header.Get("X-Isccluster-Replica"), body}
		}
		errs[i] = err
		return true
	})
	w.bodies, w.owner = map[request][]byte{}, map[string]int{}
	for i, r := range warm {
		if errs[i] != nil {
			return errs[i]
		}
		w.bodies[r] = replies[i].body
		w.owner[r.bench] = -1
		for k, rc := range rcs {
			if rc.Name == replies[i].replica {
				w.owner[r.bench] = k
			}
		}
		if w.owner[r.bench] < 0 {
			return fmt.Errorf("%v: served by unknown replica %q", r, replies[i].replica)
		}
	}
	return nil
}

// measure runs the open loop for d. Arrival times are drawn Poisson and
// scaled so that hitRate*d cached requests and a third as many echo
// requests arrive within d; each request is timed from its due time, and
// at most nproc are in flight at once. No reference round runs here, since
// it would hold up the arrivals due during it; the echo requests track the
// machine instead.
func (w *hitWorkload) measure(d time.Duration, _ *calibration) (*phase, error) {
	before := w.counts()
	rng := rand.New(rand.NewSource(w.cfg.seed))
	const rate = hitRate * echoEvery / (echoEvery - 1)
	arr, err := loadgen.NewArrivals(loadgen.ArrivalPoisson, rate, 0, rng)
	if err != nil {
		return nil, err
	}
	isEcho := func(i int) bool { return i%echoEvery == echoEvery-1 }
	n := max(echoEvery, int(math.Round(rate*d.Seconds())))
	due := make([]time.Duration, n)
	var t time.Duration
	for i := range due {
		t += arr.Next()
		due[i] = t
	}
	for i := range due {
		due[i] = time.Duration(float64(due[i]) * float64(d) / float64(t))
	}
	perm := rng.Perm(len(w.cfg.benches))
	zipf := rand.NewZipf(rng, hitZipf, 1, uint64(len(w.cfg.benches)-1))
	reqs := make([]request, n)
	for i := range reqs {
		if !isEcho(i) {
			reqs[i] = hitRequest(w.cfg.benches[perm[zipf.Uint64()]], sloClasses[rng.Intn(len(sloClasses))])
		}
	}

	ops := make([]op, n)
	echoErrs := make([]error, n)
	start := time.Now()
	fanOut(n, func(_, i int) bool {
		at := start.Add(due[i])
		time.Sleep(time.Until(at))
		if isEcho(i) {
			echoErrs[i] = w.echo.send(w.client)
			ops[i].latency = time.Since(at)
			return true
		}
		t0 := time.Now()
		resp, body, err := send(w.client, w.router.URL, reqs[i])
		end := time.Now()
		switch {
		case err != nil:
		case resp.Header.Get("X-Iscd-Cache") != "hit":
			err = fmt.Errorf("%v: X-Iscd-Cache %q, want hit", reqs[i], resp.Header.Get("X-Iscd-Cache"))
		case !bytes.Equal(body, w.bodies[reqs[i]]):
			err = fmt.Errorf("%v: body differs from the one setup was served", reqs[i])
		}
		ops[i] = op{latency: end.Sub(at), lag: t0.Sub(at), err: err, input: reqs[i].String(), hit: err == nil}
		return true
	})
	if err := errors.Join(echoErrs...); err != nil {
		return nil, err
	}
	ph := &phase{counts: diffCounts(w.counts(), before)}
	for i, o := range ops {
		if isEcho(i) {
			ph.echo = append(ph.echo, ms(o.latency))
		} else {
			ph.ops = append(ph.ops, o)
		}
	}
	return ph, nil
}

// counts sums the replicas' and the router's telemetry counters.
func (w *hitWorkload) counts() map[string]int64 {
	out := map[string]int64{}
	for _, tel := range append(append([]*telemetry.Registry(nil), w.tels...), w.ctel) {
		for k, v := range tel.Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

// jobs replays the warm set's pipeline work: every benchmark at the hit
// budget, expecting the bytes setup was served.
func (w *hitWorkload) jobs() []job {
	var jobs []job
	for _, b := range w.cfg.benches {
		r := hitRequest(b, "gold")
		jobs = append(jobs, job{req: r, budgets: []int{hitBudget}, wantBody: w.bodies[r]})
	}
	return jobs
}

// probe times the live cluster: each benchmark's owning replica and the
// router in front of it.
func (w *hitWorkload) probe() (*hitPath, error) {
	hp := &hitPath{router: w.cl.Handler()}
	for _, b := range w.cfg.benches {
		hp.reqs = append(hp.reqs, hitRequest(b, "gold"))
		hp.replica = append(hp.replica, w.handlers[w.owner[b]])
	}
	return hp, nil
}

func (w *hitWorkload) close() {
	if w.router != nil {
		w.client.CloseIdleConnections()
		w.router.Close()
		w.cl.Close()
		w.router = nil
	}
	if w.echo != nil {
		w.echo.close()
		w.echo = nil
	}
	for _, ts := range w.replicas {
		ts.Close()
	}
	w.replicas, w.handlers, w.tels = nil, nil, nil
}

// hitPath is a warmed replica handler per request plus the router in front
// of them. The traced run calls both handlers directly with recorders, so
// the replica's time and the router's extra hop are measured separately.
// reqs are gold-class requests as sent to the router.
type hitPath struct {
	reqs    []request
	replica []http.Handler
	router  http.Handler
	stop    func()
}

// atReplica is a gold request r as the router forwards it to a replica:
// without the class, with the class's default deadline.
func atReplica(r request) request {
	r.slo, r.deadlineMS = "", goldDeadlineMS
	return r
}

// newHitPath starts one replica behind a loopback listener and a router in
// front of it, and warms each of reqs on the replica in the form the router
// forwards, so the same requests sent through the router hit.
func newHitPath(reqs []request) (*hitPath, error) {
	h := server.New(server.Config{MaxConcurrent: nproc()}).Handler()
	ts := httptest.NewServer(h)
	cl, err := cluster.New(cluster.Config{Replicas: []cluster.ReplicaConfig{{Name: "probe", URL: ts.URL}}})
	if err != nil {
		ts.Close()
		return nil, err
	}
	hp := &hitPath{router: cl.Handler(), stop: ts.Close}
	for _, r := range reqs {
		r.slo = "gold"
		if rec := serveRecorded(h, atReplica(r)); rec.Code != http.StatusOK {
			ts.Close()
			return nil, fmt.Errorf("probe warm-up %v: status %d", r, rec.Code)
		}
		hp.reqs = append(hp.reqs, r)
		hp.replica = append(hp.replica, h)
	}
	return hp, nil
}

func serveRecorded(h http.Handler, r request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body())))
	return rec
}

// hitSample is one cached request timed through the hit path, in
// milliseconds: at the replica, and through the router (replica included).
type hitSample struct {
	input           string
	replica, routed float64
}

// time serves n cached requests, each through its replica's handler and
// then through the router.
func (hp *hitPath) time(n int) ([]hitSample, error) {
	var out []hitSample
	for k := 0; k < n; k++ {
		i := k % len(hp.reqs)
		t0 := time.Now()
		rec := serveRecorded(hp.replica[i], atReplica(hp.reqs[i]))
		tr := time.Since(t0)
		t1 := time.Now()
		routed := serveRecorded(hp.router, hp.reqs[i])
		tc := time.Since(t1)
		for _, x := range []*httptest.ResponseRecorder{rec, routed} {
			if x.Code != http.StatusOK || x.Header().Get("X-Iscd-Cache") != "hit" {
				return nil, fmt.Errorf("probe %v: status %d, X-Iscd-Cache %q", hp.reqs[i], x.Code, x.Header().Get("X-Iscd-Cache"))
			}
		}
		if !bytes.Equal(rec.Body.Bytes(), routed.Body.Bytes()) {
			return nil, fmt.Errorf("probe %v: routed body differs from the replica's", hp.reqs[i])
		}
		out = append(out, hitSample{hp.reqs[i].String(), ms(tr), ms(tc)})
	}
	return out, nil
}

func (hp *hitPath) close() {
	if hp.stop != nil {
		hp.stop()
	}
}
