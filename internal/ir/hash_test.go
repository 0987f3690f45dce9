package ir_test

import (
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/workloads"
)

func TestBlockHashOrderAndWeightSensitive(t *testing.T) {
	build := func(swap bool, weight float64) *ir.Block {
		p := ir.NewProgram("x")
		b := p.AddBlock("hot", weight)
		if swap {
			y := b.Mul(b.Arg(ir.R(3)), b.Arg(ir.R(4)))
			x := b.Add(b.Arg(ir.R(1)), b.Arg(ir.R(2)))
			b.Def(ir.R(8), x)
			b.Def(ir.R(9), y)
		} else {
			x := b.Add(b.Arg(ir.R(1)), b.Arg(ir.R(2)))
			y := b.Mul(b.Arg(ir.R(3)), b.Arg(ir.R(4)))
			b.Def(ir.R(8), x)
			b.Def(ir.R(9), y)
		}
		return b
	}
	base := ir.BlockHash(build(false, 100))
	if got := ir.BlockHash(build(false, 100)); got != base {
		t.Fatal("BlockHash not deterministic")
	}
	if got := ir.BlockHash(build(true, 100)); got == base {
		t.Fatal("BlockHash ignored op order; replay indices would be wrong")
	}
	if got := ir.BlockHash(build(false, 200)); got == base {
		t.Fatal("BlockHash ignored profile weight; weight-scaled fanout would alias")
	}
}

// BlockHash is the block half of every corpus key, on disk included, so
// its bytes are a storage format. These values were written by the
// original corpus-side implementation; a mismatch means corpora already on
// disk would stop replaying.
func TestBlockHashPinned(t *testing.T) {
	for _, tc := range []struct {
		bench, block, want string
	}{
		{"crc", "tablestep", "8b043913acc7c7bd7644091639feb0f33a7da0d911e9024c0c99f7bd18664a19"},
		{"blowfish", "feistel16", "680c544356e178ec4db2333ed337977dc8f9463740ada9b6da593c750f2abc61"},
	} {
		b, err := workloads.ByName(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		blk := b.Program.Block(tc.block)
		if blk == nil {
			t.Fatalf("%s has no block %q", tc.bench, tc.block)
		}
		if got := ir.BlockHash(blk); got != tc.want {
			t.Errorf("BlockHash(%s/%s) = %s, want %s", tc.bench, tc.block, got, tc.want)
		}
	}
}

// The hashes share pooled scratch state; concurrent callers (the corpus's
// exploration workers, the service's request goroutines) must each get
// the serial answer.
func TestHashesConcurrent(t *testing.T) {
	all := workloads.All()
	want := make([]string, len(all))
	for i, b := range all {
		want[i] = ir.Fingerprint(b.Program) + ir.BlockHash(b.Program.Blocks[0])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, b := range all {
				if got := ir.Fingerprint(b.Program) + ir.BlockHash(b.Program.Blocks[0]); got != want[i] {
					t.Errorf("%s: concurrent hashes differ from the serial ones", b.Name)
				}
			}
		}()
	}
	wg.Wait()
}
