package bdd

// The unique and computed tables, laid out on the node arena as the
// package comment describes. Both hash with a multiply and take the top
// bits, so their head arrays are powers of two indexed by a shift.

// uniqueTable is one level's unique table.
type uniqueTable struct {
	heads []Ref // bucket heads; 0 ends a chain (terminals are never chained)
	shift uint8 // 64 - log2(len(heads))
	n     int   // nodes chained
}

// uniqueFirstBits sizes a level's first head array: 8 buckets.
const uniqueFirstBits = 3

// Both head arrays grow 4x once they hold as many entries as heads, so
// the chains average 1/4 to 1 entry. Each growth rehashes every entry by
// a walk through the arena or the pages; at 2x steps those walks cost a
// large build about a tenth more time.
const (
	headGrowthBits = 2
	headGrowth     = 1 << headGrowthBits
)

func pairHash(lo, hi Ref) uint64 {
	return (uint64(uint32(lo))<<32 | uint64(uint32(hi))) * 0x9E3779B97F4A7C15
}

// lookup returns the node (lo, hi) of the table's level, or 0.
func (m *Manager) lookup(t *uniqueTable, lo, hi Ref) Ref {
	if t.heads == nil {
		return 0
	}
	for r := t.heads[pairHash(lo, hi)>>t.shift]; r != 0; {
		n := &m.nodes[r]
		if n.lo == lo && n.hi == hi {
			return r
		}
		r = n.next
	}
	return 0
}

// insert chains node r into t, quadrupling the head array once the
// chains average more than one node.
func (m *Manager) insert(t *uniqueTable, r Ref) {
	if t.heads == nil {
		t.heads = make([]Ref, 1<<uniqueFirstBits)
		t.shift = 64 - uniqueFirstBits
	} else if t.n >= len(t.heads) {
		m.rehash(t)
	}
	n := &m.nodes[r]
	b := pairHash(n.lo, n.hi) >> t.shift
	n.next = t.heads[b]
	t.heads[b] = r
	t.n++
}

func (m *Manager) rehash(t *uniqueTable) {
	old := t.heads
	t.heads = make([]Ref, headGrowth*len(old))
	t.shift -= headGrowthBits
	for _, r := range old {
		for r != 0 {
			n := &m.nodes[r]
			next := n.next
			b := pairHash(n.lo, n.hi) >> t.shift
			n.next = t.heads[b]
			t.heads[b] = r
			r = next
		}
	}
}

// unlink removes node r from t's chains.
func (m *Manager) unlink(t *uniqueTable, r Ref) {
	n := &m.nodes[r]
	p := &t.heads[pairHash(n.lo, n.hi)>>t.shift]
	for *p != r {
		if *p == 0 {
			panic("bdd: node missing from its unique table")
		}
		p = &m.nodes[*p].next
	}
	*p = n.next
	t.n--
}

// iteEntry is one computed-table record: ITE(f, g, h) = r.
type iteEntry struct {
	f, g, h, r Ref
	next       int32 // index+1 of the next entry in the chain; 0 ends it
}

const (
	itePageBits = 12
	itePageSize = 1 << itePageBits
	// The first page and the first head array hold 64 entries; the
	// first page doubles up to itePageSize, so a small manager never pays
	// for a full page.
	iteFirstBits = 6
)

// iteTable is the ITE computed table.
type iteTable struct {
	pages [][]iteEntry
	heads []int32 // index+1 of each chain's first entry; 0 = empty
	shift uint8
	n     int32 // entries stored
}

func tripleHash(f, g, h Ref) uint64 {
	x := (uint64(uint32(f))<<32 | uint64(uint32(g))) * 0x9E3779B97F4A7C15
	return (x ^ uint64(uint32(h))) * 0xC2B2AE3D27D4EB4F
}

func (c *iteTable) at(i int32) *iteEntry {
	return &c.pages[i>>itePageBits][i&(itePageSize-1)]
}

// get returns the cached ITE(f, g, h).
func (c *iteTable) get(f, g, h Ref) (Ref, bool) {
	if c.heads == nil {
		return 0, false
	}
	for i := c.heads[tripleHash(f, g, h)>>c.shift]; i != 0; {
		e := c.at(i - 1)
		if e.f == f && e.g == g && e.h == h {
			return e.r, true
		}
		i = e.next
	}
	return 0, false
}

// put records ITE(f, g, h) = r; the key must not be cached yet.
func (c *iteTable) put(f, g, h, r Ref) {
	if c.heads == nil {
		c.heads = make([]int32, 1<<iteFirstBits)
		c.shift = 64 - iteFirstBits
	} else if int(c.n) >= len(c.heads) {
		c.grow()
	}
	i := c.n
	p, o := int(i>>itePageBits), int(i&(itePageSize-1))
	switch {
	case p == len(c.pages):
		size := itePageSize
		if p == 0 {
			size = 1 << iteFirstBits
		}
		c.pages = append(c.pages, make([]iteEntry, size))
	case o == len(c.pages[p]):
		// Only the first page is ever short: double it.
		grown := make([]iteEntry, min(2*o, itePageSize))
		copy(grown, c.pages[p])
		c.pages[p] = grown
	}
	b := tripleHash(f, g, h) >> c.shift
	c.pages[p][o] = iteEntry{f: f, g: g, h: h, r: r, next: c.heads[b]}
	c.heads[b] = i + 1
	c.n++
}

// grow quadruples the head array and relinks every entry in place.
func (c *iteTable) grow() {
	c.heads = make([]int32, headGrowth*len(c.heads))
	c.shift -= headGrowthBits
	for i := int32(0); i < c.n; i++ {
		e := c.at(i)
		b := tripleHash(e.f, e.g, e.h) >> c.shift
		e.next = c.heads[b]
		c.heads[b] = i + 1
	}
}

// clear drops every entry, keeping the pages and head array for reuse.
func (c *iteTable) clear() {
	clear(c.heads)
	c.n = 0
}
