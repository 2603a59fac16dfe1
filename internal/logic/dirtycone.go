package logic

import (
	"fmt"
	"slices"
	"sort"
)

// Cone is the re-evaluation frontier derived from a dirty set (the nodes
// a Shape saw change): exactly the nodes whose computed values may differ
// from a stored baseline, in an order they can be recomputed in. It is
// the contract between change detection and the incremental estimation
// engines (power.IncrementalEstimator): everything outside Members and
// Removed is guaranteed unchanged and its stored per-node state may be
// reused.
type Cone struct {
	// Members holds the live combinational nodes (gates and constants)
	// in the transitive fanout of the dirty set, dirty roots included, in
	// topological order — recompute them front to back and every fanin
	// read is either an already-recomputed member or clean reusable
	// state. Fanout traversal stops at DFF boundaries.
	Members []NodeID
	// In is a by-NodeID membership mask over Members (len == NumNodes).
	In []bool
	// Removed lists dirty nodes that are now dead: consumers must drop
	// any per-node state they hold for these IDs.
	Removed []NodeID
	// Sources lists dirty nodes that are inputs or flip-flops. Their
	// values come from outside the combinational schedule, so a non-empty
	// Sources means the baseline's source assumptions may be invalid and
	// incremental consumers should fall back to a full recompute.
	Sources []NodeID
}

// DirtyCone computes the cone for an explicit dirty set, usually one
// returned by Shape.Update. It returns an error only when the network's
// combinational part is cyclic (the topological order is unavailable, so
// no recomputation order exists either).
func (nw *Network) DirtyCone(dirty []NodeID) (*Cone, error) {
	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	c := &Cone{In: make([]bool, len(nw.nodes))}
	// Flood the transitive fanout of the live dirty roots. DFFs terminate
	// the flood (their Q output is a cycle boundary, not a combinational
	// consequence) but are recorded so callers can see the cone reached
	// state.
	stack := make([]NodeID, 0, len(dirty))
	for _, id := range dirty {
		if id < 0 || int(id) >= len(nw.nodes) {
			return nil, fmt.Errorf("logic: dirty node %d out of range", id)
		}
		n := nw.nodes[id]
		switch {
		case n.dead:
			c.Removed = append(c.Removed, id)
		case n.Type == Input || n.Type == DFF:
			c.Sources = append(c.Sources, id)
			stack = append(stack, id)
		default:
			stack = append(stack, id)
		}
	}
	seen := make(map[NodeID]bool, len(stack))
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		n := nw.nodes[id]
		if !n.dead && n.Type != Input && n.Type != DFF {
			c.In[id] = true
		}
		for _, f := range n.fanout {
			fn := nw.nodes[f]
			if fn.dead {
				continue
			}
			if fn.Type == DFF {
				c.Sources = append(c.Sources, f)
				continue
			}
			stack = append(stack, f)
		}
	}
	for _, id := range order {
		if c.In[id] {
			c.Members = append(c.Members, id)
		}
	}
	sort.Slice(c.Removed, func(i, j int) bool { return c.Removed[i] < c.Removed[j] })
	sort.Slice(c.Sources, func(i, j int) bool { return c.Sources[i] < c.Sources[j] })
	return c, nil
}

// Shape is a record of a network's structure, node slot by node slot:
// each slot's type, liveness, reset value, fanin list and the number of
// primary outputs it drives — every field that determines a node's
// computed value and role (names and fanout lists, the mirror of other
// nodes' fanins, are left out). Update compares the network against the
// record, so a consumer that keeps a Shape finds what changed since it
// last looked without the network tracking anything on its behalf. Its
// buffers are reused across calls. The zero Shape is an empty record.
type Shape struct {
	slots, prev      []shapeSlot
	fanin, prevFanin []NodeID // slot fanin lists, concatenated
	changed          []NodeID
}

type shapeSlot struct {
	lo, hi     int32 // the node's fanin list is fanin[lo:hi]
	outputs    int32 // primary outputs the node drives
	typ        uint8
	dead, init bool
}

// Update returns, in ID order, the node slots of nw that differ from the
// record (slots the record does not have included), then records nw.
// The comparison is exact, so a change is never missed; the returned
// slice is the Shape's own and is valid until the next Update.
func (s *Shape) Update(nw *Network) []NodeID {
	edges := 0
	for _, n := range nw.nodes {
		edges += len(n.Fanin)
	}
	s.slots, s.prev = slices.Grow(s.prev[:0], len(nw.nodes))[:len(nw.nodes)], s.slots
	s.fanin, s.prevFanin = slices.Grow(s.prevFanin[:0], edges), s.fanin
	s.changed = slices.Grow(s.changed[:0], len(nw.nodes))
	clear(s.slots)
	for _, p := range nw.pos {
		s.slots[p].outputs++
	}
	for i, n := range nw.nodes {
		c := &s.slots[i]
		c.lo = int32(len(s.fanin))
		s.fanin = append(s.fanin, n.Fanin...)
		c.hi, c.typ, c.dead, c.init = int32(len(s.fanin)), uint8(n.Type), n.dead, n.InitVal
		if i < len(s.prev) {
			p := s.prev[i]
			if c.typ == p.typ && c.dead == p.dead && c.init == p.init && c.outputs == p.outputs &&
				slices.Equal(s.fanin[c.lo:c.hi], s.prevFanin[p.lo:p.hi]) {
				continue
			}
		}
		s.changed = append(s.changed, NodeID(i))
	}
	return s.changed
}
