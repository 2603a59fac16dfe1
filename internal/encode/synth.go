package encode

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/sop"
	"repro/internal/stg"
)

// Synthesize builds a gate-level implementation of the machine under the
// encoding: primary inputs x0..x{n-1}, state register bits q0..q{b-1}
// (DFFs initialized to the reset code), espresso-minimized two-level
// next-state and output logic, and primary outputs o0..o{m-1}. Unused
// state codes are don't-cares.
func Synthesize(g *stg.STG, e Encoding) (*logic.Network, error) {
	if err := e.Validate(g); err != nil {
		return nil, err
	}
	nVars := g.NumInputs + e.Bits
	nw := logic.New(g.Name + "_enc")
	vars := make([]logic.NodeID, nVars)
	for i := 0; i < g.NumInputs; i++ {
		id, err := nw.AddInput(fmt.Sprintf("x%d", i))
		if err != nil {
			return nil, err
		}
		vars[i] = id
	}
	// State registers with placeholder D inputs.
	resetCode := e.Code[g.Reset]
	type ffRec struct {
		q  logic.NodeID
		ph logic.NodeID
	}
	ffs := make([]ffRec, e.Bits)
	for b := 0; b < e.Bits; b++ {
		ph, err := nw.AddConst(fmt.Sprintf("__ph%d", b), false)
		if err != nil {
			return nil, err
		}
		q, err := nw.AddDFF(fmt.Sprintf("q%d", b), ph, resetCode&(1<<uint(b)) != 0)
		if err != nil {
			return nil, err
		}
		ffs[b] = ffRec{q: q, ph: ph}
		vars[g.NumInputs+b] = q
	}

	// Don't-care cover: unused state codes (any input).
	usedCover := sop.NewCover(e.Bits)
	for _, s := range g.States {
		usedCover.Cubes = append(usedCover.Cubes, codeCube(e.Code[s], e.Bits))
	}
	unused := usedCover.Complement()
	dc := sop.NewCover(nVars)
	for _, c := range unused.Cubes {
		cube := sop.NewCube(nVars)
		copy(cube[g.NumInputs:], c)
		dc.Cubes = append(dc.Cubes, cube)
	}

	// Next-state bit covers.
	for b := 0; b < e.Bits; b++ {
		on := sop.NewCover(nVars)
		for _, ed := range g.Edges {
			if e.Code[ed.To]&(1<<uint(b)) != 0 {
				on.Cubes = append(on.Cubes, EdgeCube(g, e, ed))
			}
		}
		min, err := sop.Minimize(on, sop.MinimizeOptions{DontCare: dc})
		if err != nil {
			return nil, err
		}
		d, err := sop.SynthesizeCover(nw, fmt.Sprintf("d%d", b), min, vars)
		if err != nil {
			return nil, err
		}
		if err := nw.ReplaceFanin(ffs[b].q, ffs[b].ph, d); err != nil {
			return nil, err
		}
		if err := nw.DeleteNode(ffs[b].ph); err != nil {
			return nil, err
		}
	}

	// Output covers.
	for m := 0; m < g.NumOut; m++ {
		on := sop.NewCover(nVars)
		for _, ed := range g.Edges {
			if ed.Out[m] == '1' {
				on.Cubes = append(on.Cubes, EdgeCube(g, e, ed))
			}
		}
		min, err := sop.Minimize(on, sop.MinimizeOptions{DontCare: dc})
		if err != nil {
			return nil, err
		}
		o, err := sop.SynthesizeCover(nw, fmt.Sprintf("o%d", m), min, vars)
		if err != nil {
			return nil, err
		}
		if err := nw.MarkOutput(o); err != nil {
			return nil, err
		}
	}
	nw.SweepDead()
	return nw, nil
}

// EdgeCube is edge ed's cube over the synthesized machine's variables:
// its input pattern over the inputs x0.., then its source state's code
// over the state bits q0...
func EdgeCube(g *stg.STG, e Encoding, ed stg.Edge) sop.Cube {
	cube := sop.NewCube(g.NumInputs + e.Bits)
	for i, ch := range ed.In {
		switch ch {
		case '0':
			cube[i] = sop.Zero
		case '1':
			cube[i] = sop.One
		}
	}
	copy(cube[g.NumInputs:], codeCube(e.Code[ed.From], e.Bits))
	return cube
}

func codeCube(code uint, bitsN int) sop.Cube {
	c := make(sop.Cube, bitsN)
	for b := 0; b < bitsN; b++ {
		if code&(1<<uint(b)) != 0 {
			c[b] = sop.One
		} else {
			c[b] = sop.Zero
		}
	}
	return c
}

// StateOf decodes the register contents of a synthesized network back to a
// state name, or "" if the code is unused.
func StateOf(g *stg.STG, e Encoding, nw *logic.Network, st *logic.State) string {
	var code uint
	for b, ff := range nw.FFs() {
		if st.Value(ff) {
			code |= 1 << uint(b)
		}
	}
	for _, s := range g.States {
		if e.Code[s] == code {
			return s
		}
	}
	return ""
}

// ReEncode implements the re-encoding of logic-level sequential circuits
// for low power (Hachtel et al. [18]): extract the machine's state
// transition graph from the gate-level network by reachability, choose a
// new state assignment with the given encoder, and re-synthesize. The
// returned network is behaviourally equivalent to the input from reset.
func ReEncode(nw *logic.Network, maxFFs, maxInputs int, encoder func(*stg.STG) Encoding) (*logic.Network, *stg.STG, error) {
	g, err := stg.FromNetwork(nw, maxFFs, maxInputs)
	if err != nil {
		return nil, nil, err
	}
	e := encoder(g)
	out, err := Synthesize(g, e)
	if err != nil {
		return nil, nil, err
	}
	return out, g, nil
}
