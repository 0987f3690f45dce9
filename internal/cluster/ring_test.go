package cluster

import (
	"fmt"
	"testing"
)

func testReplicas(n int) []*Replica {
	var out []*Replica
	for i := 0; i < n; i++ {
		out = append(out, newReplica(ReplicaConfig{
			Name: fmt.Sprintf("r%d", i+1),
			URL:  fmt.Sprintf("http://replica-%d", i+1),
		}, 3, 0))
	}
	return out
}

// The ring must give every key a full, duplicate-free preference order.
func TestRingSequenceCoversAllReplicasOnce(t *testing.T) {
	ring := NewRing(testReplicas(5))
	for i := 0; i < 100; i++ {
		seq := ring.Sequence(fmt.Sprintf("key-%d", i))
		if len(seq) != 5 {
			t.Fatalf("sequence for key-%d has %d replicas, want 5", i, len(seq))
		}
		seen := map[string]bool{}
		for _, rep := range seq {
			if seen[rep.Name] {
				t.Fatalf("key-%d sequence repeats %s", i, rep.Name)
			}
			seen[rep.Name] = true
		}
	}
}

// Identical keys must route identically: that is the whole point of
// fingerprint affinity.
func TestRingIsDeterministic(t *testing.T) {
	reps := testReplicas(3)
	a, b := NewRing(reps), NewRing(reps)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		sa, sb := a.Sequence(key), b.Sequence(key)
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("two rings disagree on %s at position %d", key, j)
			}
		}
	}
}

// Virtual nodes must spread keys roughly evenly: no replica may own more
// than half of a large keyspace on a 3-replica ring.
func TestRingBalance(t *testing.T) {
	ring := NewRing(testReplicas(3))
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[ring.Sequence(fmt.Sprintf("key-%d", i))[0].Name]++
	}
	for name, n := range counts {
		if n < keys/10 || n > keys/2 {
			t.Errorf("replica %s owns %d/%d keys — ring is badly unbalanced: %v", name, n, keys, counts)
		}
	}
}

// Removing a replica must only remap the keys it owned: consistent
// hashing's defining property, and what keeps the sharded cache warm.
func TestRingRemovalOnlyRemapsOwnedKeys(t *testing.T) {
	reps := testReplicas(4)
	full := NewRing(reps)
	smaller := NewRing(reps[:3])
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Sequence(key)[0]
		after := smaller.Sequence(key)[0]
		if before.Name == "r4" {
			continue // owned by the removed replica: must move somewhere
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed replica were remapped, want 0", moved)
	}
}
