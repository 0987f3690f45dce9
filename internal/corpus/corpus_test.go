package corpus

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

func testEntry(members []int, area, lat float64) *Entry {
	return &Entry{
		Candidates: []Candidate{{
			Members:     members,
			AreaBits:    math.Float64bits(area),
			LatencyBits: math.Float64bits(lat),
			Inputs:      2, Outputs: 1,
			Shape: "shape-" + string(rune('a'+members[0])),
		}},
		Examined: 10, Pruned: 3,
	}
}

func key(n byte) Key { return Key{Block: "blk" + string('a'+rune(n)), Config: "cfg"} }

func TestCorpusLRUEviction(t *testing.T) {
	c, err := Open("", 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Insert(key(0), testEntry([]int{0, 1}, 1.5, 0.6))
	c.Insert(key(1), testEntry([]int{1, 2}, 2.5, 0.6))
	// Touch key 0 so key 1 is the LRU victim.
	if _, ok := c.Lookup(key(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	c.Insert(key(2), testEntry([]int{2, 3}, 3.5, 0.6))
	if _, ok := c.Lookup(key(1)); ok {
		t.Fatal("LRU victim key 1 still resident")
	}
	if _, ok := c.Lookup(key(0)); !ok {
		t.Fatal("recently used key 0 evicted")
	}
	if _, ok := c.Lookup(key(2)); !ok {
		t.Fatal("just-inserted key 2 missing")
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 2 and 1", s.Entries, s.Evictions)
	}
	// The evicted entry's shape class must leave the aggregation with it.
	if s.ShapeClasses != 2 {
		t.Fatalf("shape classes = %d, want 2 after eviction", s.ShapeClasses)
	}
	if s.Hits != 3 || s.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 3 and 1", s.Hits, s.Misses)
	}
}

func TestCorpusDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// An area whose bit pattern a recompute would not reproduce: the point
	// of storing bits is surviving exactly this.
	area := 0.1 + 0.2
	c.Insert(key(0), testEntry([]int{3, 5, 9}, area, 1.75))
	c.Insert(key(1), testEntry([]int{0, 1}, 2.0, 0.3))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	e, ok := c2.Lookup(key(0))
	if !ok {
		t.Fatal("key 0 lost across restart")
	}
	if got := e.Candidates[0].AreaBits; got != math.Float64bits(area) {
		t.Fatalf("area bits changed across disk round-trip: %x != %x", got, math.Float64bits(area))
	}
	if got := e.Candidates[0].Members; len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("members changed across disk round-trip: %v", got)
	}
	s := c2.Stats()
	if s.Loaded != 2 || s.LoadErrors != 0 {
		t.Fatalf("loaded=%d loadErrors=%d, want 2 and 0", s.Loaded, s.LoadErrors)
	}
}

// TestCorpusTornTailRecovery models a crash mid-append: the segment's good
// prefix must load, the tear must count as a load error, and — because
// appends go to a fresh segment — new inserts must survive the next
// restart even though the torn file is never repaired.
func TestCorpusTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Insert(key(0), testEntry([]int{0, 1}, 1.0, 0.5))
	c.Insert(key(1), testEntry([]int{1, 2}, 2.0, 0.5))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Lookup(key(0)); !ok {
		t.Fatal("good prefix record lost after torn tail")
	}
	if _, ok := c2.Lookup(key(1)); ok {
		t.Fatal("torn record resurrected")
	}
	if s := c2.Stats(); s.LoadErrors != 1 {
		t.Fatalf("load errors = %d, want 1", s.LoadErrors)
	}
	c2.Insert(key(2), testEntry([]int{4, 7}, 3.0, 0.5))
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	c3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, ok := c3.Lookup(key(2)); !ok {
		t.Fatal("post-tear insert lost: torn tail poisoned later appends")
	}
}

func TestCorpusCorruptCRCStopsSegment(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Insert(key(0), testEntry([]int{0, 1}, 1.0, 0.5))
	c.Insert(key(1), testEntry([]int{1, 2}, 2.0, 0.5))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the first record (just past header+frame).
	data[len(segMagic)+8+4] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	s := c2.Stats()
	if s.Loaded != 0 || s.LoadErrors != 1 {
		t.Fatalf("loaded=%d loadErrors=%d after CRC flip, want 0 and 1", s.Loaded, s.LoadErrors)
	}
}

func TestCorpusConcurrent(t *testing.T) {
	c, err := Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(byte(i % 16))
				if i%3 == 0 {
					c.Insert(k, testEntry([]int{i % 16, i%16 + 1}, float64(g)+1, 0.5))
				} else {
					c.Lookup(k)
				}
				if i%50 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries == 0 || s.Entries > 16 {
		t.Fatalf("entries = %d after concurrent churn, want 1..16", s.Entries)
	}
}

// TestCorpusFaultInjection proves the "corpus" site degrades the store to
// the cold path — a fault at load yields a usable memory-only corpus, a
// panic at append keeps the in-memory entry — rather than failing a run.
func TestCorpusFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	restore, err := faultinject.Enable("corpus:load=error")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := Open(dir, 0)
	restore()
	if err != nil {
		t.Fatalf("Open must degrade on injected load fault, got %v", err)
	}
	if s := c.Stats(); s.LoadErrors != 1 || s.Dir != "" {
		t.Fatalf("want memory-only with 1 load error, got dir=%q errors=%d", s.Dir, s.LoadErrors)
	}
	c.Insert(key(0), testEntry([]int{0, 1}, 1.0, 0.5))
	if _, ok := c.Lookup(key(0)); !ok {
		t.Fatal("memory tier unusable after load-fault degradation")
	}

	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	restore, err = faultinject.Enable("corpus:append=panic")
	if err != nil {
		t.Fatal(err)
	}
	c2.Insert(key(1), testEntry([]int{1, 2}, 2.0, 0.5))
	restore()
	if _, ok := c2.Lookup(key(1)); !ok {
		t.Fatal("injected append panic lost the in-memory entry")
	}
	if s := c2.Stats(); s.AppendErrors != 1 {
		t.Fatalf("append errors = %d, want 1", s.AppendErrors)
	}
	// With the fault cleared the same store must persist again.
	c2.Insert(key(2), testEntry([]int{2, 3}, 3.0, 0.5))
	if s := c2.Stats(); s.Segments != 1 {
		t.Fatalf("segments = %d after recovered append, want 1", s.Segments)
	}
}
