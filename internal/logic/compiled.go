package logic

// Compiled is a flat, read-only view of a network for the scalar and word
// evaluation kernels: per-node opcodes, fanin and consumer lists in CSR
// form (one flat array plus per-node offsets) and the topological order,
// all indexed by NodeID. It costs 9 bytes per node slot (an opcode and two
// offsets), 8 per fanin edge (the fanin entry and its consumer entry) and
// 4 per gate or constant in the order. Network.Compile builds it once per
// structure and shares it, so every simulator, State and prescan over an
// unchanged network reads the same view.
type Compiled struct {
	// Op[id] is node id's opcode (see Eval); 0 for sources and dead slots.
	Op []uint8
	// The fanins of node id are Fanin[FaninStart[id]:FaninStart[id+1]],
	// in pin order. Sources and dead slots have none.
	FaninStart []int32
	Fanin      []int32
	// The gates that read node id are Cons[ConsStart[id]:ConsStart[id+1]],
	// in fanout order, one entry per consuming pin; flip-flops are left
	// out (they only load at the clock edge).
	ConsStart []int32
	Cons      []int32
	// Order is the network's topological order: every live gate and
	// constant, each after its fanins.
	Order []int32
	// FFs lists the flip-flops in declaration order; FFD[i] is the D
	// input of FFs[i] and FFInit[i] its reset value.
	FFs    []int32
	FFD    []int32
	FFInit []bool
}

// An opcode is a gate's truth table over the three facts the Eval kernel
// derives from its fanin values: bit (z | a<<1 | p<<2) is the output when
// "no fanin is 1" is z, "every fanin is 1" is a and the parity of the
// ones is p. Buf and Not are one-input And and Nand; a constant ignores
// all three.
var opcodes = [numGateTypes]uint8{
	Const0: 0x00,
	Const1: 0xFF,
	Buf:    0xCC,
	Not:    0x33,
	And:    0xCC,
	Nand:   0x33,
	Or:     0x55,
	Nor:    0xAA,
	Xor:    0xF0,
	Xnor:   0x0F,
}

// Bit is 1 for true and 0 for false. The compiler lowers it to a
// zero-extension, so the stimulus and evaluation loops that count or pack
// bits with it run without a data-dependent branch.
func Bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Eval computes node id's output from the present values of its fanins in
// val (indexed by NodeID). It counts the ones among the fanins and looks
// the output up in the opcode, so no gate type costs a branch. It is
// written to stay within the compiler's inlining budget (uint(k-1)>>63 is
// k == 0 for a count), so Settle inlines it.
func (c *Compiled) Eval(id int32, val []bool) bool {
	fan := c.Fanin[c.FaninStart[id]:c.FaninStart[id+1]]
	k := 0
	for _, f := range fan {
		k += Bit(val[f])
	}
	return c.Op[id]>>(uint(k-1)>>63|uint(Bit(k == len(fan)))<<1|uint(k&1)<<2)&1 != 0
}

// OnesEval is Eval's opcode lookup without the fanin scan: node id's
// output when k of its fanin pins are 1 (a net read on two pins counts
// twice). The event-driven simulator keeps k per gate and inlines it.
func (c *Compiled) OnesEval(id, k int32) bool {
	n := c.FaninStart[id+1] - c.FaninStart[id]
	return c.Op[id]>>(uint(k-1)>>63|uint(Bit(k == n))<<1|uint(k&1)<<2)&1 != 0
}

// EvalWord is Eval over 64 lanes at once: bit j of the result is node
// id's output in lane j, given its fanins' lane words in val (indexed by
// NodeID). It derives Eval's three facts per lane from the OR, AND and
// XOR of the fanin words and reads the output from the same opcode (see
// wordOps), so every scalar and word evaluator computes one gate table.
// The packed simulator, incremental cone re-evaluation, TruthTable and the
// don't-care witness all run it. Like Eval it stays within the compiler's
// inlining budget, so their loops inline it.
func (c *Compiled) EvalWord(id int32, val []uint64) uint64 {
	var some, par uint64
	all := ^some
	for _, f := range c.Fanin[c.FaninStart[id]:c.FaninStart[id+1]] {
		w := val[f]
		some |= w
		all &= w
		par ^= w
	}
	m := wordOps[c.Op[id]]
	return m[0] ^ m[1]&^some ^ m[2]&all ^ m[3]&par
}

// wordOps[op] spreads an opcode over whole words for EvalWord. Every
// opcode is a constant or one fact, possibly inverted, so its table is
// op(0) ^ z·(op(z)^op(0)) ^ a·(op(a)^op(0)) ^ p·(op(p)^op(0)): entry 0 is
// the all-zero-facts output and entries 1-3 select z, a and p, each as an
// all-zero or all-one word.
var wordOps = func() (t [256][4]uint64) {
	for op := range t {
		o := uint64(op)
		t[op] = [4]uint64{-(o & 1), -((o>>1 ^ o) & 1), -((o>>2 ^ o) & 1), -((o>>4 ^ o) & 1)}
	}
	return t
}()

// Settle evaluates every gate and constant in topological order from the
// present source values in val (inputs and flip-flop outputs). It is the
// one scalar zero-delay settle kernel: simulator resets, prescans and
// State all run it.
func (c *Compiled) Settle(val []bool) {
	for _, id := range c.Order {
		val[id] = c.Eval(id, val)
	}
}

// Reset puts val in the reset state: flip-flops at their initial values,
// every other source at 0, and the logic settled.
func (c *Compiled) Reset(val []bool) {
	clear(val)
	for i, f := range c.FFs {
		val[f] = c.FFInit[i]
	}
	c.Settle(val)
}

// Compile returns the network's compiled view. Like TopoOrder, the view
// is cached until the next structural mutation and shared by concurrent
// callers, who must not modify it. It returns TopoOrder's error for a
// cyclic network, and an *UnsupportedGateError or *NoFaninError for the
// first node in topological order that cannot be evaluated (only
// hand-edited nodes can be either).
func (nw *Network) Compile() (*Compiled, error) {
	nw.topoMu.Lock()
	defer nw.topoMu.Unlock()
	order, err := nw.topoLocked()
	if err != nil {
		return nil, err
	}
	if nw.compiled == nil && nw.compileErr == nil {
		nw.compiled, nw.compileErr = nw.compile(order)
	}
	return nw.compiled, nw.compileErr
}

func (nw *Network) compile(order []NodeID) (*Compiled, error) {
	n := len(nw.nodes)
	c := &Compiled{
		Op:         make([]uint8, n),
		FaninStart: make([]int32, n+1),
		ConsStart:  make([]int32, n+1),
		Order:      make([]int32, len(order)),
		FFs:        make([]int32, len(nw.ffs)),
		FFD:        make([]int32, len(nw.ffs)),
		FFInit:     make([]bool, len(nw.ffs)),
	}
	edges := 0
	for i, id := range order {
		nd := nw.nodes[id]
		switch {
		case nd.Type == Const0 || nd.Type == Const1:
		case !nd.Type.IsGate():
			return nil, &UnsupportedGateError{Type: nd.Type}
		case len(nd.Fanin) == 0:
			return nil, &NoFaninError{Type: nd.Type}
		default:
			edges += len(nd.Fanin)
		}
		c.Op[id] = opcodes[nd.Type]
		c.Order[i] = int32(id)
	}
	// Every gate fanin pin is one Fanin entry and one Cons entry.
	c.Fanin = make([]int32, 0, edges)
	c.Cons = make([]int32, 0, edges)
	for id, nd := range nw.nodes {
		c.FaninStart[id] = int32(len(c.Fanin))
		c.ConsStart[id] = int32(len(c.Cons))
		if nd.dead {
			continue
		}
		if nd.Type.IsGate() {
			for _, f := range nd.Fanin {
				c.Fanin = append(c.Fanin, int32(f))
			}
		}
		for _, u := range nd.fanout {
			if un := nw.nodes[u]; !un.dead && un.Type.IsGate() {
				c.Cons = append(c.Cons, int32(u))
			}
		}
	}
	c.FaninStart[n] = int32(len(c.Fanin))
	c.ConsStart[n] = int32(len(c.Cons))
	for i, f := range nw.ffs {
		c.FFs[i] = int32(f)
		c.FFD[i] = int32(nw.nodes[f].Fanin[0])
		c.FFInit[i] = nw.nodes[f].InitVal
	}
	return c, nil
}
