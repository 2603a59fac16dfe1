package tmap

import (
	"fmt"

	"repro/internal/logic"
)

// Subject is the NAND2/INV subject graph of a network, plus the mapping
// from original nodes to their subject-graph counterparts.
type Subject struct {
	Net *logic.Network
	// OfOrig maps each live original node to the subject node computing
	// the same function.
	OfOrig map[logic.NodeID]logic.NodeID
}

// DecomposeOptions controls technology decomposition — itself a lever for
// power, as Tsui/Pedram/Despain note in "Technology Decomposition and
// Mapping Targeting Low Power Dissipation" [48]: the decomposition shape
// determines which cells can cover the graph.
type DecomposeOptions struct {
	// Balanced builds balanced AND/OR trees for wide gates instead of the
	// default left-deep chains. Left-deep chains expose NAND3-style
	// patterns; balanced trees expose NAND4/AOI22-style patterns and cut
	// subject-graph depth.
	Balanced bool
}

// DecomposeWith converts a network into its NAND2/INV subject graph, left
// deep unless opts asks for balanced trees. Xor and Xnor gates are
// emitted in the duplicated 4-NAND shape that the XOR2 pattern expects.
// Buf gates collapse to wires.
func DecomposeWith(nw *logic.Network, opts DecomposeOptions) (*Subject, error) {
	s := &Subject{Net: logic.New(nw.Name + "_subject"), OfOrig: make(map[logic.NodeID]logic.NodeID)}
	sn := s.Net
	seq := 0
	fresh := func() string { seq++; return fmt.Sprintf("t%d", seq) }
	mkNand := func(a, b logic.NodeID) (logic.NodeID, error) {
		return sn.AddGate(fresh(), logic.Nand, a, b)
	}
	mkInv := func(a logic.NodeID) (logic.NodeID, error) {
		return sn.AddGate(fresh(), logic.Not, a)
	}

	for _, pi := range nw.PIs() {
		id, err := sn.AddInput(nw.Node(pi).Name)
		if err != nil {
			return nil, err
		}
		s.OfOrig[pi] = id
	}
	// DFF outputs are sources; create with placeholder D, patch later.
	type ffFix struct {
		subjFF logic.NodeID
		origD  logic.NodeID
		ph     logic.NodeID
	}
	var fixes []ffFix
	for _, ff := range nw.FFs() {
		n := nw.Node(ff)
		ph, err := sn.AddConst("__ph_"+n.Name, false)
		if err != nil {
			return nil, err
		}
		q, err := sn.AddDFF(n.Name, ph, n.InitVal)
		if err != nil {
			return nil, err
		}
		s.OfOrig[ff] = q
		fixes = append(fixes, ffFix{subjFF: q, origD: n.Fanin[0], ph: ph})
	}

	// split picks the recursion partition: left-deep peels one element,
	// balanced halves the list.
	split := func(args []logic.NodeID) ([]logic.NodeID, []logic.NodeID) {
		if opts.Balanced {
			return args[:len(args)/2], args[len(args)/2:]
		}
		return args[:1], args[1:]
	}
	// andTree computes the AND of the list as a subject subgraph.
	var andTree func(args []logic.NodeID) (logic.NodeID, error)
	var nandTree func(args []logic.NodeID) (logic.NodeID, error)
	nandTree = func(args []logic.NodeID) (logic.NodeID, error) {
		switch len(args) {
		case 1:
			return mkInv(args[0])
		case 2:
			return mkNand(args[0], args[1])
		default:
			l, r := split(args)
			al, err := andTree(l)
			if err != nil {
				return logic.InvalidNode, err
			}
			ar, err := andTree(r)
			if err != nil {
				return logic.InvalidNode, err
			}
			return mkNand(al, ar)
		}
	}
	andTree = func(args []logic.NodeID) (logic.NodeID, error) {
		if len(args) == 1 {
			return args[0], nil
		}
		n, err := nandTree(args)
		if err != nil {
			return logic.InvalidNode, err
		}
		return mkInv(n)
	}
	var orTree func(args []logic.NodeID) (logic.NodeID, error)
	orTree = func(args []logic.NodeID) (logic.NodeID, error) {
		switch len(args) {
		case 1:
			return args[0], nil
		case 2:
			i0, err := mkInv(args[0])
			if err != nil {
				return logic.InvalidNode, err
			}
			i1, err := mkInv(args[1])
			if err != nil {
				return logic.InvalidNode, err
			}
			return mkNand(i0, i1)
		default:
			l, r := split(args)
			ol, err := orTree(l)
			if err != nil {
				return logic.InvalidNode, err
			}
			orr, err := orTree(r)
			if err != nil {
				return logic.InvalidNode, err
			}
			i0, err := mkInv(ol)
			if err != nil {
				return logic.InvalidNode, err
			}
			i1, err := mkInv(orr)
			if err != nil {
				return logic.InvalidNode, err
			}
			return mkNand(i0, i1)
		}
	}
	// XOR pair in the duplicated shape: middle NAND built twice.
	xorPair := func(a, b logic.NodeID) (logic.NodeID, error) {
		m1, err := mkNand(a, b)
		if err != nil {
			return logic.InvalidNode, err
		}
		m2, err := mkNand(a, b)
		if err != nil {
			return logic.InvalidNode, err
		}
		n1, err := mkNand(a, m1)
		if err != nil {
			return logic.InvalidNode, err
		}
		n2, err := mkNand(b, m2)
		if err != nil {
			return logic.InvalidNode, err
		}
		return mkNand(n1, n2)
	}

	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		n := nw.Node(id)
		args := make([]logic.NodeID, len(n.Fanin))
		for i, f := range n.Fanin {
			sf, ok := s.OfOrig[f]
			if !ok {
				return nil, fmt.Errorf("tmap: fanin %d of %q not decomposed", f, n.Name)
			}
			args[i] = sf
		}
		var out logic.NodeID
		switch n.Type {
		case logic.Const0:
			out, err = sn.AddConst(fresh(), false)
		case logic.Const1:
			out, err = sn.AddConst(fresh(), true)
		case logic.Buf:
			out = args[0]
		case logic.Not:
			out, err = mkInv(args[0])
		case logic.And:
			out, err = andTree(args)
		case logic.Nand:
			out, err = nandTree(args)
		case logic.Or:
			out, err = orTree(args)
		case logic.Nor:
			var o logic.NodeID
			o, err = orTree(args)
			if err == nil {
				out, err = mkInv(o)
			}
		case logic.Xor, logic.Xnor:
			out = args[0]
			for _, b := range args[1:] {
				out, err = xorPair(out, b)
				if err != nil {
					break
				}
			}
			if err == nil && n.Type == logic.Xnor {
				out, err = mkInv(out)
			}
		default:
			err = fmt.Errorf("tmap: cannot decompose node type %s", n.Type)
		}
		if err != nil {
			return nil, err
		}
		s.OfOrig[id] = out
	}

	for _, fix := range fixes {
		d, ok := s.OfOrig[fix.origD]
		if !ok {
			return nil, fmt.Errorf("tmap: DFF D-input %d not decomposed", fix.origD)
		}
		if err := sn.ReplaceFanin(fix.subjFF, fix.ph, d); err != nil {
			return nil, err
		}
		if err := sn.DeleteNode(fix.ph); err != nil {
			return nil, err
		}
	}
	for _, po := range nw.POs() {
		if err := sn.MarkOutput(s.OfOrig[po]); err != nil {
			return nil, err
		}
	}
	sn.SweepDead()
	return s, nil
}
