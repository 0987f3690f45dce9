package corpus

import (
	"container/list"
	"math"
	"sort"
	"sync"

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
	// Shape is the candidate's canonical isomorphism-class hash
	// (ir.SubgraphFingerprint), used for cross-program aggregation only —
	// replay correctness never depends on it.
	Shape string `json:"s,omitempty"`
}

// Area returns the candidate's die area in adder units.
func (c *Candidate) Area() float64 { return math.Float64frombits(c.AreaBits) }

// Latency returns the candidate's critical-path delay in cycles.
func (c *Candidate) Latency() float64 { return math.Float64frombits(c.LatencyBits) }

// Savings returns the estimated cycles saved per execution were the
// candidate a CFU: one issue slot per member versus ceil(latency) cycles.
func (c *Candidate) Savings() int {
	cyc := int(math.Ceil(c.Latency()))
	if cyc < 1 {
		cyc = 1
	}
	return len(c.Members) - cyc
}

// Entry is the memoized outcome of exploring one block under one
// configuration: the recorded candidates in recording order, plus the
// cold-path effort counters for the statistics endpoint.
type Entry struct {
	Candidates []Candidate `json:"c"`
	Examined   int         `json:"e"`
	Pruned     int         `json:"p"`
}

// shapeAgg accumulates per-isomorphism-class statistics across every
// entry currently in memory.
type shapeAgg struct {
	count   int
	savings int
	minArea float64
}

// Corpus is a two-tier memo of explored blocks: a bounded in-memory LRU in
// front of an optional append-only disk store. All methods are safe for
// concurrent use.
type Corpus struct {
	mu         sync.Mutex
	maxEntries int
	entries    map[string]*list.Element // key → *lruItem element
	order      *list.List               // front = most recently used
	shapes     map[string]*shapeAgg
	disk       *diskStore // nil = memory only
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
		shapes:     make(map[string]*shapeAgg),
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
		c.unaccountShapes(el.Value.(*lruItem).e)
		el.Value.(*lruItem).e = e
		c.order.MoveToFront(el)
		c.accountShapes(e)
		return
	}
	c.entries[ks] = c.order.PushFront(&lruItem{key: ks, e: e})
	c.accountShapes(e)
	for c.order.Len() > c.maxEntries {
		back := c.order.Back()
		it := back.Value.(*lruItem)
		c.unaccountShapes(it.e)
		c.order.Remove(back)
		delete(c.entries, it.key)
		c.evictions++
	}
}

func (c *Corpus) accountShapes(e *Entry) {
	for i := range e.Candidates {
		cand := &e.Candidates[i]
		if cand.Shape == "" {
			continue
		}
		agg := c.shapes[cand.Shape]
		if agg == nil {
			agg = &shapeAgg{minArea: math.Inf(1)}
			c.shapes[cand.Shape] = agg
		}
		agg.count++
		agg.savings += cand.Savings()
		if a := cand.Area(); a < agg.minArea {
			agg.minArea = a
		}
	}
}

func (c *Corpus) unaccountShapes(e *Entry) {
	for i := range e.Candidates {
		cand := &e.Candidates[i]
		if cand.Shape == "" {
			continue
		}
		agg := c.shapes[cand.Shape]
		if agg == nil {
			continue
		}
		agg.count--
		agg.savings -= cand.Savings()
		if agg.count <= 0 {
			delete(c.shapes, cand.Shape)
		}
		// minArea is not recomputed on eviction: it stays a lower bound,
		// which is all the stats endpoint claims.
	}
}

// ShapeStat summarizes one candidate isomorphism class currently resident
// in memory.
type ShapeStat struct {
	// Shape is the canonical subgraph hash (ir.SubgraphFingerprint).
	Shape string `json:"shape"`
	// Count is how many memoized candidates share the shape.
	Count int `json:"count"`
	// Savings is the summed per-execution cycle savings over those
	// candidates.
	Savings int `json:"savings"`
	// MinArea is the smallest area (adder units) seen for the shape.
	MinArea float64 `json:"min_area"`
}

// Stats is a point-in-time snapshot of the corpus.
type Stats struct {
	Dir          string      `json:"dir,omitempty"`
	Entries      int         `json:"entries"`
	MaxEntries   int         `json:"max_entries"`
	Candidates   int         `json:"candidates"`
	ShapeClasses int         `json:"shape_classes"`
	Hits         int64       `json:"hits"`
	Misses       int64       `json:"misses"`
	Inserts      int64       `json:"inserts"`
	Evictions    int64       `json:"evictions"`
	Loaded       int64       `json:"loaded"`
	LoadErrors   int         `json:"load_errors"`
	AppendErrors int         `json:"append_errors"`
	Segments     int         `json:"segments"`
	DiskBytes    int64       `json:"disk_bytes"`
	TopShapes    []ShapeStat `json:"top_shapes,omitempty"`
}

// maxTopShapes bounds the shape leaderboard in Stats.
const maxTopShapes = 8

// Stats returns a snapshot of sizes, counters, and the highest-savings
// isomorphism classes.
func (c *Corpus) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Entries:      c.order.Len(),
		MaxEntries:   c.maxEntries,
		ShapeClasses: len(c.shapes),
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
	for shape, agg := range c.shapes {
		s.TopShapes = append(s.TopShapes, ShapeStat{
			Shape: shape, Count: agg.count, Savings: agg.savings, MinArea: agg.minArea,
		})
	}
	sort.Slice(s.TopShapes, func(i, j int) bool {
		a, b := s.TopShapes[i], s.TopShapes[j]
		if a.Savings != b.Savings {
			return a.Savings > b.Savings
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Shape < b.Shape
	})
	if len(s.TopShapes) > maxTopShapes {
		s.TopShapes = s.TopShapes[:maxTopShapes]
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
