package logic

import (
	"fmt"
	"sort"
)

// Cone is the re-evaluation frontier derived from a dirty set: exactly
// the nodes whose computed values may differ from a stored baseline, in
// an order they can be recomputed in. It is the contract between the
// Network's mutation tracking and the incremental estimation engines
// (power.IncrementalEstimator): everything outside Members and Removed is
// guaranteed unchanged and its stored per-node state may be reused.
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
// returned by TakeDirty. It returns an error only when the network's
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

// DirtyAudit detects rewrites that bypass the Network mutation APIs (and
// therefore dirty tracking) by fingerprinting every node's structure at
// snapshot time. Verify then re-fingerprints and demands that every
// changed node is accounted for in the given dirty set — a cheap, total
// check a flow can run after every pass in debug configurations
// (core.Context.DirtyAudit). A bypass that slips through would silently
// poison incremental re-estimation; this turns it into a loud error.
type DirtyAudit struct {
	sums []uint64
	pos  uint64
}

// NewDirtyAudit snapshots the network's per-node structural fingerprints.
func NewDirtyAudit(nw *Network) *DirtyAudit {
	a := &DirtyAudit{sums: make([]uint64, len(nw.nodes))}
	for i, n := range nw.nodes {
		a.sums[i] = nodeSum(n)
	}
	a.pos = idListSum(nw.pos)
	return a
}

// Verify compares the network against the snapshot: every node whose
// fingerprint changed (including added and deleted nodes) must appear in
// dirty, and a changed primary-output list requires at least one dirty
// node. It reports the first offender; nil means the dirty set fully
// accounts for all structural change.
func (a *DirtyAudit) Verify(nw *Network, dirty []NodeID) error {
	in := make(map[NodeID]bool, len(dirty))
	for _, id := range dirty {
		in[id] = true
	}
	for i, n := range nw.nodes {
		var snap uint64 // zero = node did not exist at snapshot time
		if i < len(a.sums) {
			snap = a.sums[i]
		}
		if nodeSum(n) == snap {
			continue
		}
		if !in[n.ID] {
			return fmt.Errorf("logic: node %d (%q) changed without being marked dirty — a rewrite bypassed the Network mutation API", n.ID, n.Name)
		}
	}
	if idListSum(nw.pos) != a.pos && len(dirty) == 0 {
		return fmt.Errorf("logic: primary-output list changed without any dirty node — a rewrite bypassed the Network mutation API")
	}
	return nil
}

// nodeSum is an FNV-1a fingerprint of the fields that determine a node's
// computed value and role: type, liveness, fanin list and DFF reset
// value. Names and fanout lists are deliberately excluded — fanout is the
// mirror of other nodes' fanins, and renames don't change values.
func nodeSum(n *Node) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime
		}
	}
	mix(uint64(n.Type))
	if n.dead {
		mix(1)
	} else {
		mix(2)
	}
	if n.InitVal {
		mix(3)
	}
	mix(uint64(len(n.Fanin)))
	for _, f := range n.Fanin {
		mix(uint64(f))
	}
	if h == 0 { // reserve 0 for "did not exist"
		h = 1
	}
	return h
}

func idListSum(ids []NodeID) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h ^= uint64(id) + 0x9e3779b97f4a7c15
		h *= 1099511628211
	}
	return h
}
