package service

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
)

// Cache is a thread-safe LRU over completed query answers, keyed by the
// canonical request fingerprint. Answers are deterministic given the
// fingerprint (it includes the master seed), so entries only go
// stale when a graph name is rebound to different content — the server
// then drops that graph's entries via DropPrefix; nothing else ever
// invalidates.
type Cache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheItem
	items    map[string]*list.Element

	hits, misses, evictions atomic.Int64
}

type cacheItem struct {
	key string
	res *QueryAnswer
}

// NewCache returns an LRU holding at most capacity results. capacity <= 0
// disables caching (every Get misses, Add is a no-op).
func NewCache(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached result for key, marking it most recently used.
func (c *Cache) Get(key string) (*QueryAnswer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem).res, true
}

// Add inserts (or refreshes) a result, evicting the least recently used
// entry when over capacity.
func (c *Cache) Add(key string, res *QueryAnswer) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).res = res
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheItem{key: key, res: res})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem).key)
		c.evictions.Add(1)
	}
}

// DropPrefix removes every entry whose key starts with prefix, returning
// how many were dropped. Fingerprints lead with "graph=<name>;", so a
// graph replaced with different content can invalidate exactly the
// results computed against its old topology — the cache's "entries never
// go stale" premise is re-established by dropping, not by hoping.
func (c *Cache) DropPrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		item := el.Value.(*cacheItem)
		if strings.HasPrefix(item.key, prefix) {
			c.order.Remove(el)
			delete(c.items, item.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Hits returns the number of cache hits served.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of cache misses.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Evictions returns how many entries capacity pressure evicted
// (DropPrefix invalidations do not count).
func (c *Cache) Evictions() int64 { return c.evictions.Load() }
