package ir

import (
	"fmt"
	"testing"
)

// fingerprintProgram builds a deterministic mid-sized program (several
// blocks of mixed expression trees with shared subexpressions, memory ops,
// and live-outs) sized like the larger seed benchmarks, so the fingerprint
// benchmarks measure the service hot path, not a toy.
func fingerprintProgram(blocks, rounds int) *Program {
	p := NewProgram("fpbench")
	for bi := 0; bi < blocks; bi++ {
		b := p.AddBlock(fmt.Sprintf("b%d", bi), float64(100+bi))
		acc := b.Arg(R(1))
		key := b.Arg(R(2))
		for r := 0; r < rounds; r++ {
			t1 := b.Xor(acc, b.Imm(uint32(0x9E3779B9+r)))
			t2 := b.Add(b.Shl(t1, b.Imm(4)), key)
			t3 := b.Or(b.Shr(t1, b.Imm(5)), t2)
			t4 := b.Mul(t3, b.Add(t1, t2))
			ld := b.Load(b.Add(t4, b.Imm(uint32(r*4))))
			acc = b.Xor(b.And(t4, ld), b.Sub(t3, t1))
		}
		b.Def(R(3), acc)
	}
	return p
}

// BenchmarkFingerprint measures the exact program hash on a mid-sized
// program: the iscd cache key and the cluster routing key, computed once
// per request. Its alloc row in .github/alloc-max.txt keeps the
// pooled-buffer hasher from regressing to per-op allocation. One call
// before the timer fills the sync.Pool, so the figure never counts the
// one-off ~32 KB buffer a cold pool allocates.
func BenchmarkFingerprint(b *testing.B) {
	p := fingerprintProgram(8, 24)
	b.Run("program", func(b *testing.B) {
		b.ReportAllocs()
		Fingerprint(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if Fingerprint(p) == "" {
				b.Fatal("empty fingerprint")
			}
		}
	})
}

// TestFingerprintAllocs pins the allocation count of the pooled-buffer
// fingerprint: the pooled state leaves the hex digest string and its byte
// slice as the only per-call allocations, so any per-op or per-block
// allocation sneaking back in fails the bound.
func TestFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by the race detector's sync.Pool instrumentation")
	}
	p := fingerprintProgram(8, 24)
	Fingerprint(p) // warm the pool
	got := testing.AllocsPerRun(50, func() { Fingerprint(p) })
	if got > 4 {
		t.Fatalf("Fingerprint allocates %.0f times per call; want <= 4 (pooled-buffer path)", got)
	}
}
