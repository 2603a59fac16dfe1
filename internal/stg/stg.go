// Package stg represents finite state machines as state transition graphs
// in the KISS2 tradition: symbolic states, cube-conditioned edges, and
// Mealy outputs. It provides reachability, steady-state (Markov) state
// probabilities under random inputs, and the expected state-transition
// weights that low-power state encoding (survey §III.C.1) minimizes.
package stg

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Edge is one symbolic transition: when the machine is in From and the
// inputs match In, it moves to To and emits Out.
type Edge struct {
	In   string // cube over inputs: '0','1','-'
	From string
	To   string
	Out  string // output values: '0','1' ('-' treated as 0)
}

// STG is a symbolic finite state machine.
type STG struct {
	Name      string
	NumInputs int
	NumOut    int
	States    []string
	Reset     string
	Edges     []Edge

	index map[string]int
}

// New creates an empty STG.
func New(name string, numInputs, numOut int) *STG {
	return &STG{Name: name, NumInputs: numInputs, NumOut: numOut, index: make(map[string]int)}
}

// AddState registers a state name (idempotent). The first state added
// becomes the reset state unless SetReset is called.
func (g *STG) AddState(s string) {
	if _, ok := g.index[s]; ok {
		return
	}
	g.index[s] = len(g.States)
	g.States = append(g.States, s)
	if g.Reset == "" {
		g.Reset = s
	}
}

// SetReset sets the reset state (which must exist or will be added).
func (g *STG) SetReset(s string) {
	g.AddState(s)
	g.Reset = s
}

// StateIndex returns the dense index of a state, or -1.
func (g *STG) StateIndex(s string) int {
	if i, ok := g.index[s]; ok {
		return i
	}
	return -1
}

// AddEdge appends a transition, registering any new states.
func (g *STG) AddEdge(in, from, to, out string) error {
	if len(in) != g.NumInputs {
		return fmt.Errorf("stg: edge input %q has %d bits, machine has %d", in, len(in), g.NumInputs)
	}
	if len(out) != g.NumOut {
		return fmt.Errorf("stg: edge output %q has %d bits, machine has %d", out, len(out), g.NumOut)
	}
	for _, c := range in {
		if c != '0' && c != '1' && c != '-' {
			return fmt.Errorf("stg: bad input literal %q", c)
		}
	}
	for _, c := range out {
		if c != '0' && c != '1' && c != '-' {
			return fmt.Errorf("stg: bad output literal %q", c)
		}
	}
	g.AddState(from)
	g.AddState(to)
	g.Edges = append(g.Edges, Edge{In: in, From: from, To: to, Out: out})
	return nil
}

// matches reports whether the input vector matches the edge cube.
func matches(cube string, in []bool) bool {
	for i, c := range cube {
		switch c {
		case '0':
			if in[i] {
				return false
			}
		case '1':
			if !in[i] {
				return false
			}
		}
	}
	return true
}

// Next returns the successor state and outputs for a state/input pair. ok
// is false if no edge matches (incompletely specified machine).
func (g *STG) Next(state string, in []bool) (next string, out []bool, ok bool) {
	if len(in) != g.NumInputs {
		return "", nil, false
	}
	for _, e := range g.Edges {
		if e.From != state || !matches(e.In, in) {
			continue
		}
		o := make([]bool, g.NumOut)
		for i, c := range e.Out {
			o[i] = c == '1'
		}
		return e.To, o, true
	}
	return "", nil, false
}

// Reachable returns the set of states reachable from reset (assuming any
// input can occur).
func (g *STG) Reachable() map[string]bool {
	seen := map[string]bool{g.Reset: true}
	stack := []string{g.Reset}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Edges {
			if e.From == s && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// cubeFraction is the fraction of input minterms a cube covers.
func cubeFraction(cube string) float64 {
	f := 1.0
	for _, c := range cube {
		if c != '-' {
			f /= 2
		}
	}
	return f
}

// TransitionMatrix returns P[i][j] = probability of moving from state i to
// state j in one cycle under uniformly random inputs. Unspecified input
// space is treated as a self-loop (the machine holds).
func (g *STG) TransitionMatrix() [][]float64 {
	n := len(g.States)
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
	}
	covered := make([]float64, n)
	for _, e := range g.Edges {
		i := g.index[e.From]
		j := g.index[e.To]
		f := cubeFraction(e.In)
		p[i][j] += f
		covered[i] += f
	}
	for i := range p {
		if covered[i] < 1.0-1e-12 {
			p[i][i] += 1.0 - covered[i]
		}
		// Normalize tiny overshoot from overlapping cubes.
		sum := 0.0
		for j := range p[i] {
			sum += p[i][j]
		}
		if sum > 0 {
			for j := range p[i] {
				p[i][j] /= sum
			}
		}
	}
	return p
}

// SteadyState returns the stationary distribution over states computed by
// power iteration from the reset state.
func (g *STG) SteadyState(iters int) []float64 {
	if iters <= 0 {
		iters = 1000
	}
	n := len(g.States)
	p := g.TransitionMatrix()
	pi := make([]float64, n)
	pi[g.index[g.Reset]] = 1
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			if pi[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				next[j] += pi[i] * p[i][j]
			}
		}
		// Damping avoids ping-ponging on periodic chains.
		for j := range next {
			next[j] = 0.5*next[j] + 0.5*pi[j]
		}
		delta := 0.0
		for j := range next {
			delta += math.Abs(next[j] - pi[j])
		}
		copy(pi, next)
		if delta < 1e-12 {
			break
		}
	}
	return pi
}

// TransitionWeights returns W[i][j] = expected transitions per cycle from
// state i to a different state j: steady-state probability of i times the
// conditional move probability. This is the weight matrix that
// activity-aware encoding minimizes (codes of heavy pairs should be close
// in Hamming distance).
func (g *STG) TransitionWeights() [][]float64 {
	pi := g.SteadyState(0)
	p := g.TransitionMatrix()
	n := len(g.States)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			if i != j {
				w[i][j] = pi[i] * p[i][j]
			}
		}
	}
	return w
}

// ParseError reports a malformed KISS2 input with its 1-based line
// number. Every content error from ReadKISS is a *ParseError, so callers
// can point users at the offending line.
type ParseError struct {
	Line int    // 1-based line number; 0 when no single line is at fault
	Msg  string // human-readable description of the defect
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("kiss: line %d: %s", e.Line, e.Msg)
	}
	return "kiss: " + e.Msg
}

// maxDeclaredWidth bounds .i/.o declarations: anything beyond it is
// rejected as malformed rather than accepted as an absurd machine shape.
const maxDeclaredWidth = 1 << 16

// headerCount parses the numeric argument of a .i/.o/.s/.p header line.
func headerCount(f []string, lineno int, positive bool) (int, error) {
	if len(f) != 2 {
		return 0, &ParseError{Line: lineno, Msg: fmt.Sprintf("%s needs exactly one numeric argument, got %d", f[0], len(f)-1)}
	}
	n, err := strconv.Atoi(f[1])
	if err != nil {
		return 0, &ParseError{Line: lineno, Msg: fmt.Sprintf("%s argument %q is not an integer", f[0], f[1])}
	}
	if positive && n <= 0 {
		return 0, &ParseError{Line: lineno, Msg: fmt.Sprintf("%s must be positive, got %d", f[0], n)}
	}
	if n < 0 || n > maxDeclaredWidth {
		return 0, &ParseError{Line: lineno, Msg: fmt.Sprintf("%s value %d out of range [0,%d]", f[0], n, maxDeclaredWidth)}
	}
	return n, nil
}

// ReadKISS parses the KISS2 FSM format:
//
//	.i N  .o M  .s S  .p P  .r RESET
//	<input-cube> <from> <to> <output-bits>
//
// Malformed input — bare or non-numeric headers, non-positive widths,
// edge cubes or output strings that disagree with the declared .i/.o
// widths, unknown directives — is reported as a *ParseError carrying the
// 1-based line number; ReadKISS never panics on any input.
func ReadKISS(r io.Reader) (*STG, error) {
	sc := bufio.NewScanner(r)
	g := &STG{index: make(map[string]int)}
	var reset string
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case ".i":
			if len(g.Edges) > 0 {
				return nil, &ParseError{Line: lineno, Msg: ".i declared after transitions"}
			}
			n, err := headerCount(f, lineno, true)
			if err != nil {
				return nil, err
			}
			g.NumInputs = n
		case ".o":
			if len(g.Edges) > 0 {
				return nil, &ParseError{Line: lineno, Msg: ".o declared after transitions"}
			}
			n, err := headerCount(f, lineno, true)
			if err != nil {
				return nil, err
			}
			g.NumOut = n
		case ".s", ".p":
			// Informational counts; still reject garbage arguments.
			if _, err := headerCount(f, lineno, false); err != nil {
				return nil, err
			}
		case ".r":
			if len(f) != 2 {
				return nil, &ParseError{Line: lineno, Msg: fmt.Sprintf(".r needs exactly one state name, got %d arguments", len(f)-1)}
			}
			reset = f[1]
		case ".e", ".end":
		default:
			if strings.HasPrefix(f[0], ".") {
				return nil, &ParseError{Line: lineno, Msg: fmt.Sprintf("unknown directive %q", f[0])}
			}
			if len(f) != 4 {
				return nil, &ParseError{Line: lineno, Msg: fmt.Sprintf("edge line needs 4 fields (cube from to outputs), got %d", len(f))}
			}
			if err := g.AddEdge(f[0], f[1], f[2], f[3]); err != nil {
				return nil, &ParseError{Line: lineno, Msg: strings.TrimPrefix(err.Error(), "stg: ")}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{Line: lineno + 1, Msg: err.Error()}
	}
	if len(g.States) == 0 {
		return nil, &ParseError{Msg: "no transitions"}
	}
	if reset != "" {
		if g.StateIndex(reset) < 0 {
			return nil, &ParseError{Msg: fmt.Sprintf("reset state %q has no transitions", reset)}
		}
		g.Reset = reset
	}
	return g, nil
}

// WriteKISS emits the machine in KISS2 format.
func (g *STG) WriteKISS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n.s %d\n.p %d\n.r %s\n",
		g.NumInputs, g.NumOut, len(g.States), len(g.Edges), g.Reset)
	for _, e := range g.Edges {
		fmt.Fprintf(bw, "%s %s %s %s\n", e.In, e.From, e.To, e.Out)
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

// SelfLoopFraction returns, per state, the probability (under uniform
// inputs) that the machine stays in that state — the quantity the
// gated-clock FSM optimization of Benini/De Micheli [4] exploits.
func (g *STG) SelfLoopFraction() map[string]float64 {
	p := g.TransitionMatrix()
	out := make(map[string]float64, len(g.States))
	for i, s := range g.States {
		out[s] = p[i][i]
	}
	return out
}
