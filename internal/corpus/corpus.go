package corpus

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Key identifies one memoized block exploration: the block's program-order
// structure hash (ir.BlockHash) and the explorer's configuration
// signature. Both sides are content hashes, so the key is stable across
// processes and machines.
type Key struct {
	Block  string
	Config string
}

// String renders the key in its stored form.
func (k Key) String() string { return k.Block + "|" + k.Config }

// Candidate is one memoized candidate subgraph. Area and latency are kept
// as raw IEEE-754 bits: the explorer computes them by incremental
// accumulation, so replay must reproduce the exact bit pattern, not a
// recomputed (differently-rounded) value.
type Candidate struct {
	Members     []int  `json:"m"`
	AreaBits    uint64 `json:"a"`
	LatencyBits uint64 `json:"l"`
	Inputs      int    `json:"i"`
	Outputs     int    `json:"o"`
}

// Area returns the candidate's die area in adder units.
func (c *Candidate) Area() float64 { return math.Float64frombits(c.AreaBits) }

// Latency returns the candidate's critical-path delay in cycles.
func (c *Candidate) Latency() float64 { return math.Float64frombits(c.LatencyBits) }

// Entry is the memoized outcome of exploring one block under one
// configuration: the recorded candidates in recording order, plus the
// cold-path effort counters for the statistics endpoint.
type Entry struct {
	Candidates []Candidate `json:"c"`
	Examined   int         `json:"e"`
	Pruned     int         `json:"p"`

	// shapes is the candidates' shape index, built by the first Shapes
	// call. It lives in memory only: the disk tier stores what exploration
	// decides, and the index is a function of that and the block.
	shapesOnce sync.Once
	shapes     *graph.ShapeIndex
}

// Shapes returns the entry's candidates grouped by isomorphism (see
// graph.ShapeIndex), lifting them out of d, the DFG of a block the entry
// was recorded or replayed for, on the first call. built reports whether
// this call built the index. Any block with the entry's key gives the same
// index, so concurrent replays of one entry share the first one's: they
// read its shapes and never mutate them. sb supplies the build's buffers.
func (e *Entry) Shapes(sb *graph.ShapeBuilder, d *ir.DFG) (idx *graph.ShapeIndex, built bool) {
	e.shapesOnce.Do(func() {
		e.shapes = sb.Index(d, len(e.Candidates), func(i int) []int { return e.Candidates[i].Members })
		built = true
	})
	return e.shapes, built
}

// Corpus is a two-tier memo of explored blocks: a bounded in-memory LRU in
// front of an optional append-only disk store. All methods are safe for
// concurrent use.
type Corpus struct {
	mu         sync.Mutex
	maxEntries int
	entries    map[string]*list.Element // key → *lruItem element
	order      *list.List               // front = most recently used
	disk       *diskStore               // nil = memory only
	tel        *telemetry.Registry

	hits, misses, inserts, evictions int64
	loaded                           int64
	loadErrs, appendErrs             int
}

type lruItem struct {
	key string
	e   *Entry
}

// DefaultMaxEntries bounds the in-memory tier when Open is given no limit.
const DefaultMaxEntries = 4096

// Open returns a corpus backed by dir, loading every existing segment
// (tolerating torn tails and corrupt records — see Stats.LoadErrors) and
// starting a fresh segment for appends. An empty dir means memory-only.
// maxEntries bounds the in-memory LRU (<=0 = DefaultMaxEntries); the disk
// tier is append-only and unbounded. Open degrades rather than fails: disk
// trouble (including an injected "corpus" fault) yields a usable
// memory-only corpus, and only an unusable dir path returns an error.
func Open(dir string, maxEntries int) (*Corpus, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	c := &Corpus{
		maxEntries: maxEntries,
		entries:    make(map[string]*list.Element),
		order:      list.New(),
	}
	if dir == "" {
		return c, nil
	}
	disk, recs, loadErrs, err := openDisk(dir)
	if err != nil {
		return nil, err
	}
	c.loadErrs = loadErrs
	c.disk = disk
	for i := range recs {
		c.install(recs[i].Key, recs[i].Entry)
		c.loaded++
	}
	return c, nil
}

// SetTelemetry attaches a registry receiving hit/miss/insert counters and
// size gauges. Pass before serving traffic; not synchronized with lookups.
func (c *Corpus) SetTelemetry(r *telemetry.Registry) { c.tel = r }

// Lookup returns the memoized entry for key. The caller must treat the
// entry as read-only: it is shared with every other warm run of the key.
func (c *Corpus) Lookup(key Key) (*Entry, bool) {
	ks := key.String()
	c.mu.Lock()
	el, ok := c.entries[ks]
	var e *Entry
	if ok {
		c.order.MoveToFront(el)
		e = el.Value.(*lruItem).e
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	c.tel.AddHitMiss("corpus.lookup", ok)
	return e, ok
}

// Insert memoizes e under key, persisting it to the disk tier when one is
// attached. The corpus takes ownership of e; callers must not mutate it
// afterwards. Re-inserting an existing key replaces its entry (latest
// wins, matching disk load order), so a rejected or stale entry heals on
// the next cold run instead of pinning the key forever.
func (c *Corpus) Insert(key Key, e *Entry) {
	ks := key.String()
	c.mu.Lock()
	c.install(ks, e)
	c.inserts++
	if c.disk != nil {
		if err := c.disk.append(ks, e); err != nil {
			c.appendErrs++
		}
	}
	entries := c.order.Len()
	c.mu.Unlock()
	c.tel.Add("corpus.inserts", 1)
	c.tel.SetGauge("corpus.entries", float64(entries))
}

// install adds (or replaces) an in-memory entry and applies the LRU bound.
// Callers hold c.mu.
func (c *Corpus) install(ks string, e *Entry) {
	if el, ok := c.entries[ks]; ok {
		el.Value.(*lruItem).e = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[ks] = c.order.PushFront(&lruItem{key: ks, e: e})
	for c.order.Len() > c.maxEntries {
		back := c.order.Back()
		it := back.Value.(*lruItem)
		c.order.Remove(back)
		delete(c.entries, it.key)
		c.evictions++
	}
}

// Stats is a point-in-time snapshot of the corpus.
type Stats struct {
	Dir          string `json:"dir,omitempty"`
	Entries      int    `json:"entries"`
	MaxEntries   int    `json:"max_entries"`
	Candidates   int    `json:"candidates"`
	Hits         int64  `json:"hits"`
	Misses       int64  `json:"misses"`
	Inserts      int64  `json:"inserts"`
	Evictions    int64  `json:"evictions"`
	Loaded       int64  `json:"loaded"`
	LoadErrors   int    `json:"load_errors"`
	AppendErrors int    `json:"append_errors"`
	Segments     int    `json:"segments"`
	DiskBytes    int64  `json:"disk_bytes"`
}

// Stats returns a snapshot of sizes and counters.
func (c *Corpus) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Entries:      c.order.Len(),
		MaxEntries:   c.maxEntries,
		Hits:         c.hits,
		Misses:       c.misses,
		Inserts:      c.inserts,
		Evictions:    c.evictions,
		Loaded:       c.loaded,
		LoadErrors:   c.loadErrs,
		AppendErrors: c.appendErrs,
	}
	for el := c.order.Front(); el != nil; el = el.Next() {
		s.Candidates += len(el.Value.(*lruItem).e.Candidates)
	}
	if c.disk != nil {
		s.Dir = c.disk.dir
		s.Segments = c.disk.segments
		s.DiskBytes = c.disk.bytes
	}
	return s
}

// Close flushes and closes the disk tier. The corpus stays usable as a
// memory-only store afterwards.
func (c *Corpus) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disk == nil {
		return nil
	}
	err := c.disk.close()
	c.disk = nil
	return err
}
