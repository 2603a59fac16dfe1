// Package logic provides the gate-level Boolean network substrate used by
// every optimization pass in the toolkit: a directed acyclic graph of typed
// logic gates plus D flip-flops, with structural utilities (topological
// ordering, levelization, cone extraction, structural hashing) and a
// BLIF-subset reader/writer.
//
// A Network is the common currency between packages: internal/sim simulates
// it, internal/power estimates its dissipation, and the logic-level passes
// (dontcare, balance, tmap, retime, gating, precomp) rewrite it.
package logic

import (
	"fmt"
	"sort"
	"sync"
)

// GateType identifies the function a node computes.
type GateType int

// Gate types. Input nodes have no fanin; Const0/Const1 are nullary
// constants; DFF nodes have exactly one fanin (the D input) and their
// output is the registered Q value.
const (
	Input GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor  // odd parity of fanins
	Xnor // even parity of fanins
	DFF
	numGateTypes
)

var gateNames = [...]string{
	Input: "input", Const0: "const0", Const1: "const1", Buf: "buf",
	Not: "not", And: "and", Or: "or", Nand: "nand", Nor: "nor",
	Xor: "xor", Xnor: "xnor", DFF: "dff",
}

// String returns the lower-case mnemonic for the gate type.
func (t GateType) String() string {
	if t < 0 || int(t) >= len(gateNames) {
		return fmt.Sprintf("gatetype(%d)", int(t))
	}
	return gateNames[t]
}

// IsGate reports whether the type is a combinational logic gate (has fanins
// and computes a function), as opposed to an input, constant or flip-flop.
func (t GateType) IsGate() bool {
	switch t {
	case Buf, Not, And, Or, Nand, Nor, Xor, Xnor:
		return true
	}
	return false
}

// MinFanin returns the minimum legal fanin count for the gate type.
func (t GateType) MinFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count, or -1 if unbounded.
func (t GateType) MaxFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return -1
	}
}

// NodeID indexes a node within its Network. IDs are dense and stable for
// the lifetime of the network (deleted nodes leave dead slots).
type NodeID int

// InvalidNode is returned by lookups that fail.
const InvalidNode NodeID = -1

// Node is a single vertex of the network DAG.
type Node struct {
	ID    NodeID
	Name  string
	Type  GateType
	Fanin []NodeID

	fanout []NodeID
	dead   bool

	// InitVal is the reset value of a DFF node (false = 0). Ignored for
	// other node types.
	InitVal bool
}

// Fanout returns the IDs of nodes that consume this node's output. The
// returned slice is owned by the network; callers must not mutate it.
func (n *Node) Fanout() []NodeID { return n.fanout }

// Network is a gate-level sequential circuit: a DAG of combinational gates
// cut by D flip-flops, with named primary inputs and outputs.
type Network struct {
	Name string

	nodes  []*Node
	byName map[string]NodeID

	pis []NodeID // primary inputs, in declaration order
	pos []NodeID // nodes whose values are primary outputs
	ffs []NodeID // DFF nodes

	// Topological-order cache. Deriving the levelized schedule is O(V+E)
	// and every simulation, probability propagation and estimation pass
	// asks for it; repeated simulations of an unchanged network (the
	// Monte Carlo hot path) would otherwise re-derive it per call. The
	// cache is invalidated by every structural mutation and filled
	// lazily under topoMu, so concurrent read-only users (requests that
	// share a cached network) can all call TopoOrder safely.
	topoMu    sync.Mutex
	topoCache []NodeID
	topoErr   error
	topoValid bool
	// compiled caches Compile's view (or compileErr its failure) under
	// the same lock and invalidation as the topological order.
	compiled   *Compiled
	compileErr error

	// Dirty set: every mutation records the NodeIDs whose computed value
	// may have changed — the seed of the incremental re-estimation cone
	// (see DirtyCone). Recording follows the same concurrency contract
	// as the mutations themselves: writes must not race with anything.
	// The set accumulates until a consumer calls TakeDirty (or
	// ClearDirty); networks nobody re-estimates just carry a set bounded
	// by their node count.
	dirty map[NodeID]struct{}
}

// New returns an empty network with the given name.
func New(name string) *Network {
	return &Network{Name: name, byName: make(map[string]NodeID)}
}

// NumNodes returns the number of node slots, including dead ones.
func (nw *Network) NumNodes() int { return len(nw.nodes) }

// Node returns the node with the given ID, or nil if it is out of range or
// dead.
func (nw *Network) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(nw.nodes) {
		return nil
	}
	n := nw.nodes[id]
	if n.dead {
		return nil
	}
	return n
}

// ByName returns the live node with the given name, or InvalidNode.
func (nw *Network) ByName(name string) NodeID {
	id, ok := nw.byName[name]
	if !ok {
		return InvalidNode
	}
	if nw.nodes[id].dead {
		return InvalidNode
	}
	return id
}

// PIs returns the primary input node IDs in declaration order.
func (nw *Network) PIs() []NodeID { return nw.pis }

// POs returns the IDs of the nodes driving primary outputs. The slice is
// the network's own, not a copy: ReplaceNode rewrites its entries in
// place, so a caller that replaces output drivers while walking it must
// walk a copy, or an output whose driver was already replaced reads as
// the new driver.
func (nw *Network) POs() []NodeID { return nw.pos }

// FFs returns the DFF node IDs.
func (nw *Network) FFs() []NodeID { return nw.ffs }

func (nw *Network) addNode(name string, t GateType, fanin []NodeID) (NodeID, error) {
	if name == "" {
		// Probe upward from the node count: imported netlists may already
		// use n<k> names, and an auto name must never collide with them.
		for i := len(nw.nodes); ; i++ {
			cand := fmt.Sprintf("n%d", i)
			if _, dup := nw.byName[cand]; !dup {
				name = cand
				break
			}
		}
	}
	if _, dup := nw.byName[name]; dup {
		return InvalidNode, fmt.Errorf("logic: duplicate node name %q", name)
	}
	if min := t.MinFanin(); len(fanin) < min {
		return InvalidNode, fmt.Errorf("logic: %s node %q needs at least %d fanins, got %d", t, name, min, len(fanin))
	}
	if max := t.MaxFanin(); max >= 0 && len(fanin) > max {
		return InvalidNode, fmt.Errorf("logic: %s node %q allows at most %d fanins, got %d", t, name, max, len(fanin))
	}
	for _, f := range fanin {
		if nw.Node(f) == nil {
			return InvalidNode, fmt.Errorf("logic: node %q references missing fanin %d", name, f)
		}
	}
	id := NodeID(len(nw.nodes))
	n := &Node{ID: id, Name: name, Type: t, Fanin: append([]NodeID(nil), fanin...)}
	nw.nodes = append(nw.nodes, n)
	nw.invalidateTopo()
	nw.markDirty(id)
	nw.byName[name] = id
	for _, f := range fanin {
		fn := nw.nodes[f]
		fn.fanout = append(fn.fanout, id)
	}
	return id, nil
}

// AddInput declares a new primary input.
func (nw *Network) AddInput(name string) (NodeID, error) {
	id, err := nw.addNode(name, Input, nil)
	if err != nil {
		return id, err
	}
	nw.pis = append(nw.pis, id)
	return id, nil
}

// AddConst adds a constant node.
func (nw *Network) AddConst(name string, val bool) (NodeID, error) {
	t := Const0
	if val {
		t = Const1
	}
	return nw.addNode(name, t, nil)
}

// AddGate adds a combinational gate. The name may be empty for an
// auto-generated one.
func (nw *Network) AddGate(name string, t GateType, fanin ...NodeID) (NodeID, error) {
	if !t.IsGate() {
		return InvalidNode, fmt.Errorf("logic: AddGate called with non-gate type %s", t)
	}
	return nw.addNode(name, t, fanin)
}

// FreshName returns base if no live node has that name, else the first
// of base_1, base_2, … that none has.
func (nw *Network) FreshName(base string) string {
	if nw.ByName(base) == InvalidNode {
		return base
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s_%d", base, i)
		if nw.ByName(cand) == InvalidNode {
			return cand
		}
	}
}

// Inverter returns an inverter of node id: a Not gate already in its
// fanout, or else a new one named FreshName(<name>_n).
func (nw *Network) Inverter(id NodeID) (NodeID, error) {
	n := nw.Node(id)
	if n == nil {
		return InvalidNode, fmt.Errorf("logic: inverter of missing node %d", id)
	}
	for _, c := range n.Fanout() {
		if cn := nw.Node(c); cn != nil && cn.Type == Not {
			return c, nil
		}
	}
	return nw.AddGate(nw.FreshName(n.Name+"_n"), Not, id)
}

// MustGate is AddGate but panics on error; for use in generators and tests
// where the construction is known valid.
func (nw *Network) MustGate(name string, t GateType, fanin ...NodeID) NodeID {
	id, err := nw.AddGate(name, t, fanin...)
	if err != nil {
		panic(err)
	}
	return id
}

// MustInput is AddInput but panics on error.
func (nw *Network) MustInput(name string) NodeID {
	id, err := nw.AddInput(name)
	if err != nil {
		panic(err)
	}
	return id
}

// AddDFF adds a D flip-flop whose D input is d and whose reset value is
// init. The node's own value is the registered output Q.
func (nw *Network) AddDFF(name string, d NodeID, init bool) (NodeID, error) {
	id, err := nw.addNode(name, DFF, []NodeID{d})
	if err != nil {
		return id, err
	}
	nw.nodes[id].InitVal = init
	nw.ffs = append(nw.ffs, id)
	return id, nil
}

// MarkOutput declares that node id drives a primary output.
func (nw *Network) MarkOutput(id NodeID) error {
	if nw.Node(id) == nil {
		return fmt.Errorf("logic: MarkOutput of missing node %d", id)
	}
	nw.pos = append(nw.pos, id)
	// The node's value is unchanged, but its role (and so its load in
	// capacitance models) is — conservatively dirty.
	nw.markDirty(id)
	return nil
}

// IsPO reports whether the node drives a primary output.
func (nw *Network) IsPO(id NodeID) bool {
	for _, p := range nw.pos {
		if p == id {
			return true
		}
	}
	return false
}

// ReplaceFanin rewires every occurrence of old in node id's fanin to new,
// updating fanout lists.
func (nw *Network) ReplaceFanin(id, old, new NodeID) error {
	n := nw.Node(id)
	if n == nil {
		return fmt.Errorf("logic: ReplaceFanin on missing node %d", id)
	}
	if nw.Node(new) == nil {
		return fmt.Errorf("logic: ReplaceFanin to missing node %d", new)
	}
	pins := 0
	for i, f := range n.Fanin {
		if f == old {
			n.Fanin[i] = new
			pins++
		}
	}
	if pins == 0 {
		return fmt.Errorf("logic: node %d has no fanin %d", id, old)
	}
	// Fanout lists carry one entry per consuming pin (addNode appends per
	// pin; topoOrder's indegree accounting depends on it), so a consumer
	// with duplicate pins of old must gain as many entries on new as
	// removeID strips from old.
	on := nw.nodes[old]
	on.fanout = removeID(on.fanout, id)
	nn := nw.nodes[new]
	for i := 0; i < pins; i++ {
		nn.fanout = append(nn.fanout, id)
	}
	nw.invalidateTopo()
	nw.markDirty(id)
	return nil
}

// ReplaceNode redirects all consumers of old (including primary outputs) to
// new, then deletes old. old and new must be distinct live nodes.
func (nw *Network) ReplaceNode(old, new NodeID) error {
	if old == new {
		return fmt.Errorf("logic: ReplaceNode with identical nodes %d", old)
	}
	on := nw.Node(old)
	if on == nil || nw.Node(new) == nil {
		return fmt.Errorf("logic: ReplaceNode with missing node (%d -> %d)", old, new)
	}
	// A consumer appears once per fanin pin; ReplaceFanin rewires every
	// pin at once, so deduplicate the consumer list.
	consumers := make([]NodeID, 0, len(on.fanout))
	seen := make(map[NodeID]bool, len(on.fanout))
	for _, c := range on.fanout {
		if !seen[c] {
			seen[c] = true
			consumers = append(consumers, c)
		}
	}
	for _, c := range consumers {
		if err := nw.ReplaceFanin(c, old, new); err != nil {
			return err
		}
	}
	for i, p := range nw.pos {
		if p == old {
			nw.pos[i] = new
			nw.markDirty(new)
		}
	}
	return nw.DeleteNode(old)
}

// DeleteNode removes a node that has no remaining consumers and does not
// drive a primary output.
func (nw *Network) DeleteNode(id NodeID) error {
	n := nw.Node(id)
	if n == nil {
		return fmt.Errorf("logic: DeleteNode of missing node %d", id)
	}
	if len(n.fanout) != 0 {
		return fmt.Errorf("logic: DeleteNode of node %q with %d consumers", n.Name, len(n.fanout))
	}
	if nw.IsPO(id) {
		return fmt.Errorf("logic: DeleteNode of primary output driver %q", n.Name)
	}
	for _, f := range n.Fanin {
		fn := nw.nodes[f]
		fn.fanout = removeID(fn.fanout, id)
	}
	n.dead = true
	n.Fanin = nil
	delete(nw.byName, n.Name)
	nw.invalidateTopo()
	nw.markDirty(id)
	switch n.Type {
	case Input:
		nw.pis = removeID(nw.pis, id)
	case DFF:
		nw.ffs = removeID(nw.ffs, id)
	}
	return nil
}

func removeID(s []NodeID, id NodeID) []NodeID {
	out := s[:0]
	for _, x := range s {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// Gates returns the IDs of all live combinational gate nodes, in ID order.
func (nw *Network) Gates() []NodeID {
	var out []NodeID
	for _, n := range nw.nodes {
		if !n.dead && n.Type.IsGate() {
			out = append(out, n.ID)
		}
	}
	return out
}

// Live returns the IDs of all live nodes of any type, in ID order.
func (nw *Network) Live() []NodeID {
	var out []NodeID
	for _, n := range nw.nodes {
		if !n.dead {
			out = append(out, n.ID)
		}
	}
	return out
}

// NumGates returns the number of live combinational gates.
func (nw *Network) NumGates() int { return len(nw.Gates()) }

// markDirty records that a node's computed value (or liveness) may have
// changed since the dirty set was last consumed. Every mutation API calls
// it; rewrites that bypass the mutation APIs and write Node fields
// directly leave the set stale — DirtyAudit exists to flag exactly that.
func (nw *Network) markDirty(id NodeID) {
	if nw.dirty == nil {
		nw.dirty = make(map[NodeID]struct{})
	}
	nw.dirty[id] = struct{}{}
}

// Dirty returns the accumulated dirty set in sorted order without
// consuming it. The dirty set contains every node a mutation API touched
// since the last TakeDirty/ClearDirty: nodes added, nodes whose fanin was
// rewired, nodes deleted (their IDs remain in the set even though the
// slots are dead), and nodes newly marked as primary outputs.
func (nw *Network) Dirty() []NodeID {
	out := make([]NodeID, 0, len(nw.dirty))
	for id := range nw.dirty {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TakeDirty returns the dirty set in sorted order and clears it: the
// caller assumes responsibility for re-estimating (or discarding state
// for) every returned node. Like the mutations that feed it, TakeDirty
// must not race with writers.
func (nw *Network) TakeDirty() []NodeID {
	out := nw.Dirty()
	nw.dirty = nil
	return out
}

// ClearDirty drops the dirty set without reading it — for consumers that
// just rebuilt everything from scratch.
func (nw *Network) ClearDirty() { nw.dirty = nil }

// invalidateTopo drops the cached topological order. Called by every
// structural mutation; mutations must not race with readers (the Network
// is not concurrency-safe for writes), so no lock is needed here beyond
// the cache's own.
func (nw *Network) invalidateTopo() {
	nw.topoMu.Lock()
	nw.topoValid = false
	nw.topoCache = nil
	nw.topoErr = nil
	nw.compiled = nil
	nw.compileErr = nil
	nw.topoMu.Unlock()
}

// TopoOrder returns the live combinational nodes (gates and constants) in
// topological order. Inputs and DFF outputs are sources and are not
// included. The order is deterministic. It returns an error if the
// combinational part contains a cycle.
//
// The result is cached until the next structural mutation; the returned
// slice is owned by the network and must not be modified. Concurrent
// calls on an unchanging network are safe (read-only sharing).
func (nw *Network) TopoOrder() ([]NodeID, error) {
	nw.topoMu.Lock()
	defer nw.topoMu.Unlock()
	return nw.topoLocked()
}

// topoLocked is TopoOrder with topoMu held.
func (nw *Network) topoLocked() ([]NodeID, error) {
	if !nw.topoValid {
		nw.topoCache, nw.topoErr = nw.topoOrder()
		nw.topoValid = true
	}
	return nw.topoCache, nw.topoErr
}

// topoOrder derives the order from scratch (Kahn's algorithm).
func (nw *Network) topoOrder() ([]NodeID, error) {
	indeg := make([]int, len(nw.nodes))
	var ready []NodeID
	total := 0
	for _, n := range nw.nodes {
		if n.dead || n.Type == Input || n.Type == DFF {
			continue
		}
		total++
		d := 0
		for _, f := range n.Fanin {
			ft := nw.nodes[f].Type
			if ft != Input && ft != DFF {
				d++
			}
		}
		indeg[n.ID] = d
		if d == 0 {
			ready = append(ready, n.ID)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	order := make([]NodeID, 0, total)
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		for _, c := range nw.nodes[id].fanout {
			cn := nw.nodes[c]
			if cn.dead || cn.Type == DFF {
				continue
			}
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(order) != total {
		return nil, fmt.Errorf("logic: combinational cycle in network %q", nw.Name)
	}
	return order, nil
}

// Levels assigns each live node a level: inputs, constants and DFF outputs
// are level 0; each gate is 1 + max fanin level. Returns the level slice
// (indexed by NodeID; dead nodes are -1) and the maximum level.
func (nw *Network) Levels() ([]int, int, error) {
	order, err := nw.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	lv := make([]int, len(nw.nodes))
	for i := range lv {
		lv[i] = -1
	}
	for _, n := range nw.nodes {
		if !n.dead && (n.Type == Input || n.Type == DFF) {
			lv[n.ID] = 0
		}
	}
	max := 0
	for _, id := range order {
		n := nw.nodes[id]
		l := 0
		for _, f := range n.Fanin {
			if lv[f]+1 > l {
				l = lv[f] + 1
			}
		}
		if !n.Type.IsGate() { // constants sit at level 0
			l = 0
		}
		lv[id] = l
		if l > max {
			max = l
		}
	}
	return lv, max, nil
}

// TransitiveFanin returns the set of live node IDs in the transitive fanin
// of roots, including the roots themselves. Traversal stops at (and
// includes) inputs and DFF outputs.
func (nw *Network) TransitiveFanin(roots ...NodeID) map[NodeID]bool {
	seen := make(map[NodeID]bool)
	stack := append([]NodeID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := nw.Node(id)
		if n == nil || seen[id] {
			continue
		}
		seen[id] = true
		if n.Type == Input || n.Type == DFF {
			continue
		}
		stack = append(stack, n.Fanin...)
	}
	return seen
}

// SweepDead repeatedly deletes gates and constants with no consumers that
// do not drive primary outputs. Returns the number of nodes removed.
func (nw *Network) SweepDead() int {
	removed := 0
	for {
		progress := false
		for _, n := range nw.nodes {
			if n.dead || n.Type == Input || n.Type == DFF {
				continue
			}
			if len(n.fanout) == 0 && !nw.IsPO(n.ID) {
				if err := nw.DeleteNode(n.ID); err == nil {
					removed++
					progress = true
				}
			}
		}
		if !progress {
			return removed
		}
	}
}

// Check validates structural invariants: fanin/fanout consistency, fanin
// arities, name table integrity and acyclicity. Intended for tests and
// after complex rewrites.
func (nw *Network) Check() error {
	for _, n := range nw.nodes {
		if n.dead {
			continue
		}
		if got, ok := nw.byName[n.Name]; !ok || got != n.ID {
			return fmt.Errorf("logic: name table corrupt for %q", n.Name)
		}
		if min := n.Type.MinFanin(); len(n.Fanin) < min {
			return fmt.Errorf("logic: node %q (%s) has %d fanins, needs >=%d", n.Name, n.Type, len(n.Fanin), min)
		}
		if max := n.Type.MaxFanin(); max >= 0 && len(n.Fanin) > max {
			return fmt.Errorf("logic: node %q (%s) has %d fanins, allows <=%d", n.Name, n.Type, len(n.Fanin), max)
		}
		for _, f := range n.Fanin {
			fn := nw.Node(f)
			if fn == nil {
				return fmt.Errorf("logic: node %q has dead fanin %d", n.Name, f)
			}
			if countID(fn.fanout, n.ID) != countID(n.Fanin, f) {
				return fmt.Errorf("logic: fanout list of %q inconsistent with fanin of %q", fn.Name, n.Name)
			}
		}
		for _, c := range n.fanout {
			cn := nw.Node(c)
			if cn == nil {
				return fmt.Errorf("logic: node %q has dead fanout %d", n.Name, c)
			}
			if countID(cn.Fanin, n.ID) == 0 {
				return fmt.Errorf("logic: node %q lists consumer %q that does not reference it", n.Name, cn.Name)
			}
		}
	}
	for _, p := range nw.pos {
		if nw.Node(p) == nil {
			return fmt.Errorf("logic: primary output references dead node %d", p)
		}
	}
	_, err := nw.TopoOrder()
	return err
}

func countID(s []NodeID, id NodeID) int {
	c := 0
	for _, x := range s {
		if x == id {
			c++
		}
	}
	return c
}

// Clone returns a deep copy of the network. Dead node slots are preserved
// so that NodeIDs remain valid across the copy. The clone starts with an
// empty dirty set: incremental estimators bind to a specific Network
// instance and always take a full baseline on first sight, so carrying
// the original's unconsumed dirt would only confuse a second consumer.
func (nw *Network) Clone() *Network {
	c := &Network{
		Name:   nw.Name,
		nodes:  make([]*Node, len(nw.nodes)),
		byName: make(map[string]NodeID, len(nw.byName)),
		pis:    append([]NodeID(nil), nw.pis...),
		pos:    append([]NodeID(nil), nw.pos...),
		ffs:    append([]NodeID(nil), nw.ffs...),
	}
	for i, n := range nw.nodes {
		cn := &Node{
			ID: n.ID, Name: n.Name, Type: n.Type, dead: n.dead, InitVal: n.InitVal,
			Fanin:  append([]NodeID(nil), n.Fanin...),
			fanout: append([]NodeID(nil), n.fanout...),
		}
		c.nodes[i] = cn
		if !n.dead {
			c.byName[n.Name] = n.ID
		}
	}
	return c
}

// Stats summarizes a network for reports.
type Stats struct {
	Inputs, Outputs, Gates, FFs, Levels int
}

// Stats computes summary statistics. A cyclic network yields Levels == -1.
func (nw *Network) Stats() Stats {
	s := Stats{Inputs: len(nw.pis), Outputs: len(nw.pos), Gates: nw.NumGates(), FFs: len(nw.ffs)}
	if _, max, err := nw.Levels(); err == nil {
		s.Levels = max
	} else {
		s.Levels = -1
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("pi=%d po=%d gates=%d ff=%d levels=%d", s.Inputs, s.Outputs, s.Gates, s.FFs, s.Levels)
}
