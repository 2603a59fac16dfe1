package bdd

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/logic"
	"repro/internal/obsv/trace"
)

// NetworkBDDs holds the global BDDs of a combinational network: one
// function per node, expressed over the circuit inputs. Variable indices
// follow declaration order (primary inputs, then flip-flop outputs);
// the levels those variables occupy follow the build's order (see
// FromNetworkOpts), which M.Order reports.
type NetworkBDDs struct {
	M *Manager
	// VarOf maps a PI or FF node to its BDD variable index.
	VarOf map[logic.NodeID]int
	// Fn maps every live node to its global function.
	Fn map[logic.NodeID]Ref
	// Vars lists the source nodes by variable index: Vars[i] is the
	// source of variable i.
	Vars []logic.NodeID

	// roots lists every Fn value in build order, so reordering can pin
	// them all deterministically.
	roots []Ref
}

// ReorderPolicy controls dynamic variable reordering during a network
// build. When enabled, the builder sifts the manager whenever the live
// node count crosses a threshold, then doubles the trigger — the classic
// dynamic-reordering schedule.
type ReorderPolicy struct {
	// Enable turns dynamic reordering on.
	Enable bool
	// Threshold is the live node count that triggers the first reorder.
	// 0 means min(4096, Budget.MaxNodes/2), floored at 64.
	Threshold int
}

// threshold resolves the first trigger point against a budget.
func (p ReorderPolicy) threshold(b Budget) int {
	th := p.Threshold
	if th <= 0 {
		th = 4096
		if b.MaxNodes > 0 && b.MaxNodes/2 < th {
			th = b.MaxNodes / 2
		}
	}
	if th < 64 {
		th = 64
	}
	return th
}

// BuildOptions bundles the knobs of a budgeted, optionally reordering
// network build. The zero value is exactly FromNetwork.
type BuildOptions struct {
	Budget  Budget
	Reorder ReorderPolicy
	// DeclarationOrder places variable i at level i instead of using the
	// depth-first order. Only measurements defined over the declaration
	// order want it.
	DeclarationOrder bool
}

// FromNetwork builds global BDDs for every node of the network. Primary
// inputs take variables 0..|PI|-1 in declaration order, then flip-flop
// outputs. Sequential networks are handled by treating FF outputs as free
// inputs (the standard combinational abstraction). The variables are
// levelled in depth-first order from the outputs (see FromNetworkOpts).
func FromNetwork(nw *logic.Network) (*NetworkBDDs, error) {
	return FromNetworkCtx(context.Background(), nw, Budget{})
}

// FromNetworkCtx is FromNetwork under a resource budget and a context.
// When the manager's budget trips or ctx is cancelled mid-build, the
// partial BDDs are discarded and the manager's typed error (a *BudgetError
// matching ErrBudgetExceeded, or the context error) is returned. With a
// zero budget and a background context it is exactly FromNetwork.
func FromNetworkCtx(ctx context.Context, nw *logic.Network, b Budget) (*NetworkBDDs, error) {
	return FromNetworkOpts(ctx, nw, BuildOptions{Budget: b})
}

// FromNetworkOpts is FromNetworkCtx with an explicit options bundle.
//
// Before any node exists, the build levels the variables by a
// depth-first walk: sources take levels in the order a walk from the
// primary outputs, then from the flip-flop D inputs, first reaches them,
// following fanins in order; sources it never reaches go last, in
// declaration order. This is the ordering heuristic of Malik, Wang,
// Brayton and Sangiovanni-Vincentelli (ICCAD 1988): inputs that meet
// in the same cone sit at adjacent levels, which keeps the declaration
// order's blow-ups (a wide comparator declares one operand's bits before
// the other's) out of the graph. DeclarationOrder turns it off.
//
// With Reorder.Enable the build also sifts the variable order whenever
// the live node count crosses the policy threshold, the fallback for
// circuits whose depth-first order still does not fit the budget.
func FromNetworkOpts(ctx context.Context, nw *logic.Network, opt BuildOptions) (*NetworkBDDs, error) {
	ctx, sp := trace.Start(ctx, "bdd.build")
	nb, err := fromNetworkOpts(ctx, nw, opt)
	if sp != nil {
		if nb != nil {
			sp.SetAttr("nodes", nb.M.Size())
			sp.SetAttr("steps", nb.M.Steps())
		}
		if opt.Reorder.Enable {
			sp.SetAttr("reorder", true)
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return nb, err
}

func fromNetworkOpts(ctx context.Context, nw *logic.Network, opt BuildOptions) (*NetworkBDDs, error) {
	srcs := append(append([]logic.NodeID(nil), nw.PIs()...), nw.FFs()...)
	m := New(len(srcs))
	if !opt.DeclarationOrder {
		m.setOrder(dfsOrder(nw, srcs))
	}
	m.SetBudget(opt.Budget)
	m.SetContext(ctx)
	nb := &NetworkBDDs{
		M:     m,
		VarOf: make(map[logic.NodeID]int, len(srcs)),
		Fn:    make(map[logic.NodeID]Ref),
		Vars:  srcs,
	}
	for i, s := range srcs {
		nb.VarOf[s] = i
		f := m.Var(i)
		nb.Fn[s] = f
		nb.roots = append(nb.roots, f)
	}
	next := 0
	if opt.Reorder.Enable {
		next = opt.Reorder.threshold(opt.Budget)
	}
	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		if err := ctx.Err(); err != nil {
			return nil, &BudgetError{Reason: err.Error(), Nodes: m.Size(), Steps: m.Steps()}
		}
		n := nw.Node(id)
		var f Ref
		switch n.Type {
		case logic.Const0:
			f = False
		case logic.Const1:
			f = True
		default:
			args := make([]Ref, len(n.Fanin))
			for i, fi := range n.Fanin {
				g, ok := nb.Fn[fi]
				if !ok {
					return nil, fmt.Errorf("bdd: fanin %d of %q not yet built", fi, n.Name)
				}
				args[i] = g
			}
			f, err = ApplyGate(m, n.Type, args)
			if err != nil {
				return nil, err
			}
		}
		if err := m.Err(); err != nil {
			return nil, err
		}
		nb.Fn[id] = f
		nb.roots = append(nb.roots, f)
		if opt.Reorder.Enable && m.live >= next {
			if _, err := m.Reorder(nb.roots); err != nil {
				return nil, err
			}
			next = 2 * m.live
			if th := opt.Reorder.threshold(opt.Budget); next < th {
				next = th
			}
		}
	}
	return nb, nil
}

// dfsOrder returns the depth-first level order of srcs (element l is the
// variable index placed at level l), as FromNetworkOpts describes. The
// walk is iterative, marking a node when it is popped, so it visits
// nodes in the same preorder as the recursive walk without its depth.
func dfsOrder(nw *logic.Network, srcs []logic.NodeID) []int32 {
	// varOf holds a source's variable index plus one; 0 marks a gate.
	varOf := make([]int32, nw.NumNodes())
	for i, s := range srcs {
		varOf[s] = int32(i) + 1
	}
	seen := make([]bool, nw.NumNodes())
	order := make([]int32, 0, len(srcs))
	var stack []logic.NodeID
	walk := func(root logic.NodeID) {
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[id] {
				continue
			}
			seen[id] = true
			if v := varOf[id]; v > 0 {
				order = append(order, v-1)
				continue
			}
			fanin := nw.Node(id).Fanin
			for i := len(fanin) - 1; i >= 0; i-- {
				if !seen[fanin[i]] {
					stack = append(stack, fanin[i])
				}
			}
		}
	}
	for _, po := range nw.POs() {
		walk(po)
	}
	for _, ff := range nw.FFs() {
		for _, d := range nw.Node(ff).Fanin {
			walk(d)
		}
	}
	for i, s := range srcs {
		if !seen[s] {
			order = append(order, int32(i))
		}
	}
	return order
}

// FromNetworkRetry builds nw's global BDDs from the depth-first order
// under b, without reordering. When that build trips the budget and ctx
// is still live, it builds once more with dynamic sifting reordering
// (ReorderPolicy{Enable: true}): the exact -> reorder -> retry rung of
// the degradation ladder. retried reports that the second build ran and
// succeeded. A cancelled context is never retried: the caller asked to
// stop.
func FromNetworkRetry(ctx context.Context, nw *logic.Network, b Budget) (nb *NetworkBDDs, retried bool, err error) {
	nb, err = FromNetworkCtx(ctx, nw, b)
	if err == nil || !errors.Is(err, ErrBudgetExceeded) || ctx.Err() != nil {
		return nb, false, err
	}
	nb, err = FromNetworkOpts(ctx, nw, BuildOptions{Budget: b, Reorder: ReorderPolicy{Enable: true}})
	return nb, err == nil, err
}

// SiftOutputs sifts the variable order of a build that reached the
// dynamic-reordering trigger (ReorderPolicy's default threshold under
// the manager's budget), pinning only the functions of outs, and reports
// whether it sifted. Below the trigger it does nothing. A sift frees
// every function it did not pin and may reuse the freed nodes, so it
// leaves Fn holding the entries of outs alone, whether or not the sift
// succeeded. Every id in outs must have an Fn entry.
func (nb *NetworkBDDs) SiftOutputs(outs []logic.NodeID) (bool, error) {
	fn := make(map[logic.NodeID]Ref, len(outs))
	roots := make([]Ref, 0, len(outs))
	for _, id := range outs {
		if _, dup := fn[id]; dup {
			continue
		}
		f, ok := nb.Fn[id]
		if !ok {
			return false, fmt.Errorf("bdd: no function for output node %d", id)
		}
		fn[id] = f
		roots = append(roots, f)
	}
	m := nb.M
	if m.live < (ReorderPolicy{}).threshold(m.budget) {
		return false, nil
	}
	nb.Fn, nb.roots = fn, roots
	_, err := m.Reorder(roots)
	return true, err
}

// ApplyGate returns the function of a gate of type t over its fanin
// functions args: the one gate-to-BDD mapping of network builds and of
// the don't-care rebuilds. A type that is not a combinational gate
// returns a wrapped *logic.UnsupportedGateError.
func ApplyGate(m *Manager, t logic.GateType, args []Ref) (Ref, error) {
	switch t {
	case logic.Buf:
		return args[0], nil
	case logic.Not:
		return m.Not(args[0]), nil
	case logic.And:
		return m.And(args...), nil
	case logic.Or:
		return m.Or(args...), nil
	case logic.Nand:
		return m.Not(m.And(args...)), nil
	case logic.Nor:
		return m.Not(m.Or(args...)), nil
	case logic.Xor:
		return m.Xor(args...), nil
	case logic.Xnor:
		return m.Xnor(args...), nil
	}
	return False, fmt.Errorf("bdd: %w", &logic.UnsupportedGateError{Type: t})
}
