// Package cluster is the multi-replica front end of the customization
// service: a stdlib-only router that makes N iscd replicas look like one
// resilient iscd. It exists because a single replica is a single point of
// failure and a single LRU — the router turns the fingerprint-keyed result
// cache into a sharded distributed cache and turns overload into graceful
// quality degradation instead of 503s.
//
// The pieces, in request order:
//
//   - Request / ParseRequest: the iscd request envelope plus an SLO class
//     (gold | silver | bronze). Parsing and normalization never panic — the
//     path is fuzzed — and reuse server.Resolve so router and replica can
//     never disagree about which program a request names.
//   - Admission: token-bucket admission control per SLO class. An empty
//     class bucket does not mean rejection: the request degrades first —
//     its deadline shrinks to a quarter (never below 50ms) so the anytime
//     machinery returns a best-so-far Truncated result — and gold may then
//     borrow bronze's and silver's tokens, so under overload bronze sheds
//     first and gold last. Shed responses are 503 + Retry-After.
//   - Ring: the replica-preference order. A consistent-hash ring keyed by
//     ir.Fingerprint, the replicas' own exact program hash, so every
//     request that can hit a replica's cache entry routes to that replica
//     and the per-replica LRUs shard the result space instead of
//     duplicating it.
//   - Replica / Breaker / health loop: every replica carries an active
//     health state (healthy | degraded | down, plus draining) driven by
//     periodic GET /healthz and passive per-request signals, and a
//     consecutive-failure circuit breaker with half-open probes. A 503
//     carrying Retry-After is graceful drain, not death: it re-routes
//     without tripping the breaker.
//   - Cluster.do: the attempt engine — per-attempt timeouts, jittered
//     exponential backoff, and failover to the next replica in preference
//     order. Response bytes pass through
//     untouched, so a cluster answer is byte-identical to the single-node
//     answer for the same effective request.
//
// Main entry points: New, Cluster.Handler, Cluster.Start/Close,
// ParseRequest, ParseSLO.
package cluster
