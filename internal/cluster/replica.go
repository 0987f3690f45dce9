package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// State is a replica's health as the router sees it.
type State int

// The replica states. Healthy replicas take traffic; degraded replicas
// take traffic but recently failed a request (the circuit breaker, not
// the state, decides when a flaky replica leaves rotation); down replicas
// failed their last active health probe — the process is unreachable —
// and are skipped until a probe succeeds.
const (
	Healthy State = iota
	Degraded
	Down
)

// String returns the state name for /healthz and metrics.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	}
	return "down"
}

// ReplicaConfig names one backend of the cluster.
type ReplicaConfig struct {
	// Name is the replica's identity: it keys health reporting, metrics,
	// and the "replica" fault-injection site (match iscd's -name).
	Name string
	// URL is the replica's base URL, e.g. "http://localhost:8081".
	URL string
}

// Replica is one iscd backend plus everything the router tracks about it:
// active health state, drain flag and circuit breaker. All mutable state
// is its own — replicas are shared by every request goroutine.
type Replica struct {
	// Name and URL are fixed at construction.
	Name string
	URL  string

	breaker *Breaker

	mu       sync.Mutex
	state    State
	draining bool
	lastErr  string
}

func newReplica(cfg ReplicaConfig) *Replica {
	return &Replica{
		Name:    cfg.Name,
		URL:     cfg.URL,
		breaker: NewBreaker(breakerThreshold, breakerCooloff),
	}
}

// State returns the replica's current health state.
func (r *Replica) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Draining reports whether the replica's last health probe said it is
// gracefully draining: still alive, serving cache hits, but shedding new
// pipeline runs. Draining replicas route last and their drain 503s never
// trip the breaker.
func (r *Replica) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// noteSuccess records a served request: the breaker closes and the replica
// is healthy again (a request is as good as a probe).
func (r *Replica) noteSuccess() {
	r.breaker.Success()
	r.mu.Lock()
	r.state = Healthy
	r.lastErr = ""
	r.mu.Unlock()
}

// noteFailure records a failed attempt (transport error or 5xx): a
// passive health signal that marks the replica degraded and feeds the
// breaker. It never downs the replica — a process that answers /healthz
// but fails requests is the flaky case the circuit breaker exists for,
// and letting probes or failures flip Down/Healthy faster than the
// breaker's cooloff would defeat it.
func (r *Replica) noteFailure(err string) {
	r.breaker.Failure()
	r.mu.Lock()
	if r.state == Healthy {
		r.state = Degraded
	}
	r.lastErr = err
	r.mu.Unlock()
}

// noteProbe records an active health-check outcome: probes own process
// liveness and nothing else. ok raises a Down replica back to Healthy
// (the breaker still gates its request path separately); !ok downs it
// immediately — an unreachable /healthz is death, not degradation.
func (r *Replica) noteProbe(ok, draining bool, err string) {
	r.mu.Lock()
	if ok {
		if r.state == Down {
			r.state = Healthy
		}
	} else {
		r.state = Down
	}
	r.draining = draining
	r.lastErr = err
	r.mu.Unlock()
}

// healthzBody is the JSON of iscd's GET /healthz.
type healthzBody struct {
	Status string `json:"status"`
}

// probe runs one active health check: GET /healthz bounded by
// healthTimeout.
func (r *Replica) probe(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.URL+"/healthz", nil)
	if err != nil {
		r.noteProbe(false, false, err.Error())
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.noteProbe(false, false, err.Error())
		return
	}
	defer resp.Body.Close()
	var body healthzBody
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		r.noteProbe(false, false, fmt.Sprintf("healthz status %d", resp.StatusCode))
		return
	}
	r.noteProbe(true, body.Status == "draining", "")
}
