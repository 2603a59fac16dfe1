package logic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
)

// StrashResult reports what structural simplification did.
type StrashResult struct {
	Merged    int // structurally identical gates merged
	Folded    int // gates replaced by constants or wires
	DeadSwept int
}

// Strash performs structural hashing and local constant folding in place:
//
//   - gates with the same type and the same (order-insensitive, for
//     symmetric types) fanin list are merged;
//   - gates with constant inputs are simplified (x·0=0, x+1=1, buffers of
//     constants, xor with constants, single-input reductions);
//   - dead logic is swept.
//
// The network function is preserved. Iterates to a fixed point.
func Strash(nw *Network) (StrashResult, error) {
	var res StrashResult
	for {
		f, err := foldConstants(nw)
		if err != nil {
			return res, err
		}
		m, err := mergeStructural(nw)
		if err != nil {
			return res, err
		}
		res.Folded += f
		res.Merged += m
		res.DeadSwept += nw.SweepDead()
		if f == 0 && m == 0 {
			return res, nil
		}
	}
}

// StructuralHash returns a canonical SHA-256 digest of the network: its
// name, the full node table in ID order (type, name, fanin list, FF reset
// value, dead slots included so NodeIDs stay aligned), and the PI/PO/FF
// role lists. Two networks hash equal exactly when they would serialize
// identically, so the digest is a sound cache key for parsed-circuit and
// estimation-result caching (internal/server): any rewrite that changes
// structure, naming or output marking changes the key. Every field is
// length-prefixed, so no two distinct networks collide by concatenation.
//
// The hash reads only immutable structure — not the lazily filled
// topological-order cache — so concurrent calls on an unchanging network
// are safe.
func StructuralHash(nw *Network) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		io.WriteString(h, s)
	}
	writeIDs := func(ids []NodeID) {
		writeInt(int64(len(ids)))
		for _, id := range ids {
			writeInt(int64(id))
		}
	}
	writeStr(nw.Name)
	writeInt(int64(len(nw.nodes)))
	for _, n := range nw.nodes {
		if n.dead {
			writeInt(-1)
			continue
		}
		writeInt(int64(n.Type))
		writeStr(n.Name)
		writeIDs(n.Fanin)
		if n.InitVal {
			writeInt(1)
		} else {
			writeInt(0)
		}
	}
	writeIDs(nw.pis)
	writeIDs(nw.pos)
	writeIDs(nw.ffs)
	return hex.EncodeToString(h.Sum(nil))
}

// symmetric reports whether fanin order is irrelevant for the gate type.
func symmetric(t GateType) bool {
	switch t {
	case And, Or, Nand, Nor, Xor, Xnor:
		return true
	}
	return false
}

func gateKey(nw *Network, n *Node) string {
	ids := make([]int, len(n.Fanin))
	for i, f := range n.Fanin {
		ids[i] = int(f)
	}
	if symmetric(n.Type) {
		sort.Ints(ids)
	}
	parts := make([]string, len(ids)+1)
	parts[0] = n.Type.String()
	for i, id := range ids {
		parts[i+1] = fmt.Sprint(id)
	}
	return strings.Join(parts, ",")
}

func mergeStructural(nw *Network) (int, error) {
	merged := 0
	for {
		seen := make(map[string]NodeID)
		var victim, keeper NodeID = InvalidNode, InvalidNode
		order, err := nw.TopoOrder()
		if err != nil {
			return merged, err
		}
		for _, id := range order {
			n := nw.Node(id)
			if n == nil || !n.Type.IsGate() {
				continue
			}
			key := gateKey(nw, n)
			if prev, ok := seen[key]; ok {
				victim, keeper = id, prev
				break
			}
			seen[key] = id
		}
		if victim == InvalidNode {
			return merged, nil
		}
		if err := nw.ReplaceNode(victim, keeper); err != nil {
			return merged, err
		}
		merged++
	}
}

// constOf returns (isConst, value) for a node.
func constOf(nw *Network, id NodeID) (bool, bool) {
	switch nw.Node(id).Type {
	case Const0:
		return true, false
	case Const1:
		return true, true
	}
	return false, false
}

// foldConstants simplifies one pass of gates with constant or degenerate
// inputs; returns the number of rewrites.
func foldConstants(nw *Network) (int, error) {
	folded := 0
	order, err := nw.TopoOrder()
	if err != nil {
		return 0, err
	}
	getConst := func(v bool) (NodeID, error) {
		name := "strash_c0"
		if v {
			name = "strash_c1"
		}
		if id := nw.ByName(name); id != InvalidNode {
			return id, nil
		}
		return nw.AddConst(name, v)
	}
	for _, id := range order {
		n := nw.Node(id)
		if n == nil || !n.Type.IsGate() {
			continue
		}
		// Partition fanins into constants and variables; drop duplicate
		// variable fanins for symmetric idempotent gates.
		var vars []NodeID
		constTrue, constFalse := 0, 0
		dupParity := 0
		seenVar := map[NodeID]int{}
		for _, f := range n.Fanin {
			if isC, v := constOf(nw, f); isC {
				if v {
					constTrue++
				} else {
					constFalse++
				}
				continue
			}
			seenVar[f]++
			vars = append(vars, f)
		}
		_ = dupParity

		var replacement NodeID = InvalidNode
		var build func() (NodeID, error)
		switch n.Type {
		case Buf:
			if isC, v := constOf(nw, n.Fanin[0]); isC {
				build = func() (NodeID, error) { return getConst(v) }
			} else {
				// Forward buffers feeding other gates (keep PO buffers).
				replacement = n.Fanin[0]
			}
		case Not:
			if isC, v := constOf(nw, n.Fanin[0]); isC {
				build = func() (NodeID, error) { return getConst(!v) }
			}
		case And, Nand, Or, Nor:
			// A controlling constant (0 into And, 1 into Or) fixes the
			// output; the other constant is the identity and drops out.
			neg := n.Type == Nand || n.Type == Nor
			ctrl := n.Type == Or || n.Type == Nor
			nCtrl, nIdent := constFalse, constTrue
			if ctrl {
				nCtrl, nIdent = constTrue, constFalse
			}
			uniq := dedupVars(vars)
			switch {
			case nCtrl > 0:
				build = func() (NodeID, error) { return getConst(ctrl != neg) }
			case len(uniq) == 0: // all identity constants
				build = func() (NodeID, error) { return getConst(ctrl == neg) }
			case len(uniq) == 1 && (nIdent > 0 || len(n.Fanin) > 1):
				one := uniq[0]
				if neg {
					build = func() (NodeID, error) {
						return nw.AddGate(nw.FreshName(n.Name+"_f"), Not, one)
					}
				} else {
					replacement = one
				}
			case nIdent > 0 || len(uniq) < len(vars) || len(uniq) < len(n.Fanin):
				// Two or more distinct variables remain.
				gt := n.Type
				build = func() (NodeID, error) {
					return nw.AddGate(nw.FreshName(n.Name+"_f"), gt, uniq...)
				}
			}
		case Xor, Xnor:
			// Constants fold into the polarity; duplicate variables cancel
			// in pairs.
			invert := n.Type == Xnor
			if constTrue%2 == 1 {
				invert = !invert
			}
			var odd []NodeID
			for v, cnt := range seenVar {
				if cnt%2 == 1 {
					odd = append(odd, v)
				}
			}
			sort.Slice(odd, func(i, j int) bool { return odd[i] < odd[j] })
			changed := constTrue+constFalse > 0 || len(odd) != len(vars)
			if !changed {
				break
			}
			inv := invert
			build = func() (NodeID, error) {
				switch len(odd) {
				case 0:
					return getConst(inv)
				case 1:
					if inv {
						return nw.AddGate(nw.FreshName(n.Name+"_f"), Not, odd[0])
					}
					return odd[0], nil
				default:
					gt := Xor
					if inv {
						gt = Xnor
					}
					return nw.AddGate(nw.FreshName(n.Name+"_f"), gt, odd...)
				}
			}
		}
		if replacement == InvalidNode && build == nil {
			continue
		}
		if build != nil {
			r, err := build()
			if err != nil {
				return folded, err
			}
			replacement = r
		}
		if replacement == id {
			continue
		}
		if err := nw.ReplaceNode(id, replacement); err != nil {
			return folded, err
		}
		folded++
	}
	return folded, nil
}

func dedupVars(vars []NodeID) []NodeID {
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, v := range vars {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
