package server

import (
	"container/list"
	"sync"
)

// resultCache is a fixed-capacity LRU of rendered response bodies keyed by
// the content hash of (endpoint, program, config), Request.cacheKey. Values are the exact
// bytes previously written to a client, so a hit is served without
// re-running the pipeline or re-encoding, and repeated requests are
// byte-identical by construction.
type resultCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key  string
	body []byte
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached body for key, marking it most recently used.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put inserts or refreshes key, evicting the least recently used entry
// when the cache is full. It reports whether an eviction happened.
func (c *resultCache) put(key string, body []byte) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.order.MoveToFront(el)
		return false
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	if c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		return true
	}
	return false
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
