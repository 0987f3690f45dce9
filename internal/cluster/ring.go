package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
)

// Policy names accepted by ValidPolicy and Config.Policy.
const (
	// PolicyAffinity is consistent-hash routing on the program
	// fingerprint (ir.Fingerprint, the replicas' cache identity): requests
	// for one program land on the same replica, so the per-replica LRU
	// caches shard the result space. The default.
	PolicyAffinity = "affinity"
	// PolicyRoundRobin rotates through replicas regardless of key.
	PolicyRoundRobin = "roundrobin"
	// PolicyLeastLoaded prefers the replica with the fewest in-flight
	// cluster requests, ties broken by name for determinism.
	PolicyLeastLoaded = "leastloaded"
)

// Policies lists every routing policy name, default first.
func Policies() []string {
	return []string{PolicyAffinity, PolicyRoundRobin, PolicyLeastLoaded}
}

// ValidPolicy rejects unknown policy names with the accepted list.
func ValidPolicy(name string) error {
	for _, p := range Policies() {
		if name == p {
			return nil
		}
	}
	return fmt.Errorf("unknown policy %q (want one of %v)", name, Policies())
}

// Policy orders the replicas a request should try: Sequence returns every
// replica exactly once, most preferred first. The router walks the
// sequence skipping unavailable replicas, so a policy expresses preference
// only — availability is the router's job.
type Policy interface {
	// Name is the policy's wire name.
	Name() string
	// Sequence returns the preference order for one request key.
	Sequence(key string) []*Replica
}

// newPolicy builds the named policy over a fixed replica set.
func newPolicy(name string, replicas []*Replica) (Policy, error) {
	if err := ValidPolicy(name); err != nil {
		return nil, err
	}
	switch name {
	case PolicyRoundRobin:
		return &roundRobin{replicas: replicas}, nil
	case PolicyLeastLoaded:
		return &leastLoaded{replicas: replicas}, nil
	}
	return NewRing(replicas, defaultVirtualNodes), nil
}

// defaultVirtualNodes is the per-replica point count on the hash ring:
// enough that a 3-replica ring splits keys within a few percent of evenly.
const defaultVirtualNodes = 64

// Ring is the fingerprint-affinity policy: a consistent-hash ring with
// virtual nodes. Walking clockwise from the key's hash yields the
// preference order, and removing a replica only remaps the keys it owned —
// the property that keeps the sharded cache warm through membership
// churn.
type Ring struct {
	replicas []*Replica
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int // index into replicas
}

// NewRing builds a ring with vnodes virtual points per replica (<=0 uses
// the default).
func NewRing(replicas []*Replica, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	r := &Ring{replicas: replicas}
	for i, rep := range replicas {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", rep.Name, v)),
				replica: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break by replica index so the walk order is deterministic
		// even on (astronomically unlikely) hash collisions.
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// Name implements Policy.
func (r *Ring) Name() string { return PolicyAffinity }

// Sequence walks the ring clockwise from the key's hash, returning each
// distinct replica in first-encountered order.
func (r *Ring) Sequence(key string) []*Replica {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= hash64(key)
	})
	seq := make([]*Replica, 0, len(r.replicas))
	seen := make([]bool, len(r.replicas))
	for i := 0; i < len(r.points) && len(seq) < len(r.replicas); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			seq = append(seq, r.replicas[p.replica])
		}
	}
	return seq
}

func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	// FNV of short, nearly identical strings ("r1#0", "r1#1", ...) lands
	// in clusters; a splitmix64 finalizer avalanches the bits so the ring
	// points spread evenly.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// roundRobin rotates the starting replica per request, ignoring the key.
type roundRobin struct {
	replicas []*Replica
	next     atomic.Uint64
}

func (p *roundRobin) Name() string { return PolicyRoundRobin }

func (p *roundRobin) Sequence(key string) []*Replica {
	n := len(p.replicas)
	if n == 0 {
		return nil
	}
	start := int(p.next.Add(1)-1) % n
	seq := make([]*Replica, 0, n)
	for i := 0; i < n; i++ {
		seq = append(seq, p.replicas[(start+i)%n])
	}
	return seq
}

// leastLoaded sorts replicas by in-flight cluster attempts (ascending),
// ties by name, per request.
type leastLoaded struct {
	replicas []*Replica
}

func (p *leastLoaded) Name() string { return PolicyLeastLoaded }

func (p *leastLoaded) Sequence(key string) []*Replica {
	seq := make([]*Replica, len(p.replicas))
	copy(seq, p.replicas)
	sort.SliceStable(seq, func(a, b int) bool {
		la, lb := seq[a].Inflight(), seq[b].Inflight()
		if la != lb {
			return la < lb
		}
		return seq[a].Name < seq[b].Name
	})
	return seq
}
