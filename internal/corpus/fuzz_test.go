package corpus

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedSegment renders a small valid segment through the real encoder,
// so mutations explore the actual on-disk format rather than random junk.
func fuzzSeedSegment(t interface {
	TempDir() string
	Fatal(...any)
}) []byte {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Insert(Key{Block: "b1", Config: "c1"}, &Entry{
		Candidates: []Candidate{{
			Members:     []int{0, 2, 5},
			AreaBits:    math.Float64bits(1.27),
			LatencyBits: math.Float64bits(0.45),
			Inputs:      3, Outputs: 1, Shape: "abc123",
		}},
		Examined: 42, Pruned: 7,
	})
	c.Insert(Key{Block: "b2", Config: "c1"}, &Entry{Examined: 1})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzCorpusDecode hardens the disk-decode boundary: arbitrary bytes —
// truncations, bit flips, hostile lengths — must decode to a good record
// prefix plus an error, never a panic, and every returned record must pass
// the same validation the store relies on (no poisoned entries).
func FuzzCorpusDecode(f *testing.F) {
	seed := fuzzSeedSegment(f)
	f.Add(seed)
	f.Add(seed[:len(segMagic)])
	f.Add(seed[:len(segMagic)+9])
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	bad := bytes.Clone(seed)
	bad[len(segMagic)+10] ^= 0x80
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeAll(bytes.NewReader(data))
		if err == nil && !bytes.HasPrefix(data, []byte(segMagic)) {
			t.Fatal("decoded a stream without the segment magic")
		}
		for _, r := range recs {
			if verr := validateRecord(r.Key, r.Entry); verr != nil {
				t.Fatalf("DecodeAll returned an invalid record: %v", verr)
			}
		}
		_ = err
	})
}
