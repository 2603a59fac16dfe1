package server

import (
	"testing"

	"repro/internal/obsv"
)

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU(2, nil, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted")
	}
	if v, ok := c.Get("b"); !ok || v.(int) != 2 {
		t.Errorf("b = %v, %v; want 2, true", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Errorf("c = %v, %v; want 3, true", v, ok)
	}
	if c.ll.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.ll.Len())
	}
}

func TestLRUGetRefreshesRecency(t *testing.T) {
	c := newLRU(2, nil, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a now most recent
	c.Put("c", 3) // evicts b, not a
	if _, ok := c.Get("a"); !ok {
		t.Error("a was evicted despite being most recently used")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
}

// TestLRURePutKeepsLenAndRefreshesEvictionOrder is the regression test
// for re-Put of a live key: it must not grow the cache (no duplicate
// list entries) and it must refresh the key's recency, so the next
// eviction takes the true oldest entry.
func TestLRURePutKeepsLenAndRefreshesEvictionOrder(t *testing.T) {
	c := newLRU(3, nil, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Put("a", 10) // re-Put: in-place update, a becomes most recent
	if c.ll.Len() != 3 {
		t.Fatalf("Len = %d after re-Put of a live key, want 3", c.ll.Len())
	}
	c.Put("d", 4) // evicts b — the oldest now that a was refreshed
	if c.ll.Len() != 3 {
		t.Fatalf("Len = %d after eviction, want 3", c.ll.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived: re-Put of a must have made b the eviction victim")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Errorf("a = %v, %v; want the refreshed value 10 still cached", v, ok)
	}
	for _, k := range []string{"c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s was evicted, want it retained", k)
		}
	}
}

func TestLRUPutUpdatesInPlace(t *testing.T) {
	c := newLRU(2, nil, nil)
	c.Put("a", 1)
	c.Put("a", 10)
	if c.ll.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.ll.Len())
	}
	if v, _ := c.Get("a"); v.(int) != 10 {
		t.Errorf("a = %v, want 10", v)
	}
}

func TestLRUCounters(t *testing.T) {
	reg := obsv.NewRegistry()
	hits := reg.Counter("test.lru.hits")
	misses := reg.Counter("test.lru.misses")
	h0, m0 := hits.Value(), misses.Value()
	c := newLRU(4, hits, misses)
	c.Get("nope")
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	if got := hits.Value() - h0; got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := misses.Value() - m0; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := newLRU(0, nil, nil)
	c.Put("a", 1)
	if _, ok := c.Get("a"); !ok {
		t.Error("capacity-clamped cache should still hold one entry")
	}
}
