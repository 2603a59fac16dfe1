package logic

import (
	"errors"
	"fmt"
)

// ErrUnsupportedGate is the sentinel matched by errors.Is for every
// unsupported-gate-type error returned by the evaluation entry points.
var ErrUnsupportedGate = errors.New("logic: unsupported gate type")

// UnsupportedGateError is the typed error returned when evaluation is
// asked to compute a node type that is not a combinational gate. It
// matches ErrUnsupportedGate under errors.Is.
type UnsupportedGateError struct {
	Type GateType
}

func (e *UnsupportedGateError) Error() string {
	return fmt.Sprintf("logic: unsupported gate type %s", e.Type)
}

// Is makes errors.Is(err, ErrUnsupportedGate) true.
func (e *UnsupportedGateError) Is(target error) bool { return target == ErrUnsupportedGate }

// NoFaninError is the typed error returned when a gate is evaluated with
// no fanin values. Construction rejects such gates (see GateType.MinFanin),
// so only hand-built nodes reach it.
type NoFaninError struct {
	Type GateType
}

func (e *NoFaninError) Error() string {
	return fmt.Sprintf("logic: %s gate evaluated with no fanin values", e.Type)
}

// EvalGate computes the output of a gate of type t given its fanin values.
// It panics on non-gate types: it is the Must-style helper for validated
// paths where the network has already passed construction-time checks.
// Whole-network evaluation goes through Network.Compile (and so
// Network.EvalComb and State.Step), which returns typed errors.
func EvalGate(t GateType, in []bool) bool {
	switch t {
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And:
		for _, v := range in {
			if !v {
				return false
			}
		}
		return true
	case Or:
		for _, v := range in {
			if v {
				return true
			}
		}
		return false
	case Nand:
		for _, v := range in {
			if !v {
				return true
			}
		}
		return false
	case Nor:
		for _, v := range in {
			if v {
				return false
			}
		}
		return true
	case Xor:
		p := false
		for _, v := range in {
			p = p != v
		}
		return p
	case Xnor:
		p := true
		for _, v := range in {
			p = p != v
		}
		return p
	}
	panic((&UnsupportedGateError{Type: t}).Error())
}

// State holds the present values of every node in a network during
// cycle-by-cycle zero-delay evaluation. It settles through the network's
// compiled view (see Network.Compile), so a Step allocates only the
// output slice it returns.
type State struct {
	nw   *Network
	val  []bool
	next []bool // flip-flop D values latched by Step
}

// NewState allocates an evaluation state with all flip-flops at their
// initial values.
func NewState(nw *Network) *State {
	s := &State{nw: nw, val: make([]bool, len(nw.nodes)), next: make([]bool, len(nw.ffs))}
	s.Reset()
	return s
}

// Reset restores every flip-flop to its initial value and clears all other
// node values.
func (s *State) Reset() {
	for i := range s.val {
		s.val[i] = false
	}
	for _, f := range s.nw.ffs {
		s.val[f] = s.nw.nodes[f].InitVal
	}
}

// Value returns the present value of a node.
func (s *State) Value(id NodeID) bool { return s.val[id] }

// SetFF forces a flip-flop output value; used to seed particular states.
func (s *State) SetFF(id NodeID, v bool) { s.val[id] = v }

// Step applies one clock cycle: primary inputs are set from in (indexed by
// PI position), the combinational logic settles under the zero-delay model,
// primary output values are returned in PO order, and then all flip-flops
// load their D inputs.
func (s *State) Step(in []bool) ([]bool, error) {
	if len(in) != len(s.nw.pis) {
		return nil, fmt.Errorf("logic: Step got %d inputs, network has %d", len(in), len(s.nw.pis))
	}
	for i, pi := range s.nw.pis {
		s.val[pi] = in[i]
	}
	c, err := s.settle()
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(s.nw.pos))
	for i, po := range s.nw.pos {
		out[i] = s.val[po]
	}
	for i, d := range c.FFD {
		s.next[i] = s.val[d]
	}
	for i, f := range c.FFs {
		s.val[f] = s.next[i]
	}
	return out, nil
}

// Settle evaluates the combinational logic under the current input and
// flip-flop values without clocking the flip-flops.
func (s *State) Settle() error {
	_, err := s.settle()
	return err
}

func (s *State) settle() (*Compiled, error) {
	c, err := s.nw.Compile()
	if err != nil {
		return nil, err
	}
	c.Settle(s.val)
	return c, nil
}

// EvalComb evaluates a purely combinational network for one input vector
// (indexed by PI position) and returns the PO values. It is a convenience
// wrapper over State for networks without flip-flops.
func (nw *Network) EvalComb(in []bool) ([]bool, error) {
	if len(nw.ffs) != 0 {
		return nil, fmt.Errorf("logic: EvalComb on sequential network %q", nw.Name)
	}
	s := NewState(nw)
	return s.Step(in)
}

// laneMasks[j] holds, in lane b, bit j of b: the value of source j < 6
// across the 64 rows one enumeration word covers.
var laneMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// RowWord returns word w of source j when every row of the sources is
// enumerated 64 per word: lane b of word w is row 64w+b, and source j
// takes bit j of the row. Sources j < 6 take a constant lane mask, and
// source j >= 6 is all ones or all zeros by bit j-6 of w.
func RowWord(j, w int) uint64 {
	if j < 6 {
		return laneMasks[j]
	}
	return -uint64(w >> uint(j-6) & 1)
}

// TruthTable enumerates all 2^n input vectors of a combinational network
// with n <= 20 primary inputs and returns, for each primary output, a
// bitset of minterms where the output is 1 (bit i corresponds to the input
// vector whose bit j is PI j's value, PI 0 least significant).
//
// It evaluates 64 rows per machine word with Compiled.EvalWord: word w
// covers minterms 64w..64w+63 (see RowWord), and when n < 6 the lanes at
// or past 2^n are masked off.
func (nw *Network) TruthTable() ([][]uint64, error) {
	n := len(nw.pis)
	if n > 20 {
		return nil, fmt.Errorf("logic: TruthTable on %d inputs (max 20)", n)
	}
	if len(nw.ffs) != 0 {
		return nil, fmt.Errorf("logic: TruthTable on sequential network %q", nw.Name)
	}
	c, err := nw.Compile()
	if err != nil {
		return nil, err
	}
	rows := 1 << n
	words := (rows + 63) / 64
	mask := ^uint64(0)
	if rows < 64 {
		mask = 1<<uint(rows) - 1
	}
	tt := make([][]uint64, len(nw.pos))
	for i := range tt {
		tt[i] = make([]uint64, words)
	}
	val := make([]uint64, len(nw.nodes))
	for w := 0; w < words; w++ {
		for j, pi := range nw.pis {
			val[pi] = RowWord(j, w)
		}
		for _, id := range c.Order {
			val[id] = c.EvalWord(id, val)
		}
		for i, po := range nw.pos {
			tt[i][w] = val[po] & mask
		}
	}
	return tt, nil
}

// Equivalent reports whether two combinational networks with the same
// number of inputs and outputs compute the same functions, by exhaustive
// simulation (inputs are matched by position). Both must have <= 20 inputs.
func Equivalent(a, b *Network) (bool, error) {
	if err := sameInterface(len(a.pis), len(a.pos), b); err != nil {
		return false, err
	}
	ref, err := NewReference(a)
	if err != nil {
		return false, err
	}
	return ref.Equivalent(b)
}

// Reference is a combinational network's function frozen as its truth
// table, so that many later versions of the network can be checked
// against it without evaluating the original again.
type Reference struct {
	pis int
	tt  [][]uint64
}

// NewReference tabulates nw (at most 20 inputs, no flip-flops).
func NewReference(nw *Network) (*Reference, error) {
	tt, err := nw.TruthTable()
	if err != nil {
		return nil, err
	}
	return &Reference{pis: len(nw.pis), tt: tt}, nil
}

// Equivalent reports whether nw computes the reference's functions,
// matching inputs and outputs by position, under the same rules and
// errors as the package-level Equivalent.
func (r *Reference) Equivalent(nw *Network) (bool, error) {
	if err := sameInterface(r.pis, len(r.tt), nw); err != nil {
		return false, err
	}
	tt, err := nw.TruthTable()
	if err != nil {
		return false, err
	}
	for i := range r.tt {
		for w := range r.tt[i] {
			if r.tt[i][w] != tt[i][w] {
				return false, nil
			}
		}
	}
	return true, nil
}

// sameInterface fails unless b has pis inputs and pos outputs.
func sameInterface(pis, pos int, b *Network) error {
	if pis != len(b.pis) || pos != len(b.pos) {
		return fmt.Errorf("logic: Equivalent on mismatched interfaces (%d/%d inputs, %d/%d outputs)",
			pis, len(b.pis), pos, len(b.pos))
	}
	return nil
}
