package server

import (
	"container/list"
	"sync"

	"repro/internal/obsv"
)

// lruCache is a bounded, mutex-guarded least-recently-used map. The server
// keeps two: parsed networks keyed by their input (generator name or BLIF
// digest), and finished response bodies keyed by structural hash plus
// canonical options. Both are shared across every request of a long-lived
// process, so eviction has to be deterministic and O(1): classic
// list+map LRU.
//
// Values are treated as immutable by convention — a cached *logic.Network
// must be Clone()d before any mutating use (see resolveNetwork /
// handleFlow), and cached response bodies are served verbatim.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses *obsv.Counter // nil-safe obsv handles
}

type lruEntry struct {
	key string
	val any
}

// newLRU builds a cache bounded to max entries; max <= 0 means 1 (a cache
// that can never hold anything would make every request recompute, which
// is legal but never what a server wants).
func newLRU(max int, hits, misses *obsv.Counter) *lruCache {
	if max <= 0 {
		max = 1
	}
	return &lruCache{
		max:    max,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
		hits:   hits,
		misses: misses,
	}
}

// Get returns the cached value and marks it most recently used.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *lruCache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}
