package logic_test

import (
	"bytes"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// FuzzEvalNetwork asserts that the path from untrusted netlist bytes to
// evaluated outputs is panic-free: ReadBLIF either rejects the input with
// an error or yields a network that cycle-steps (and, when small and
// combinational, truth-tables) without panicking. Malformed structure
// discovered after parse time — e.g. combinational cycles — must surface
// as returned errors from evaluation, never as crashes. For combinational
// networks with at most 10 inputs every row of the word-parallel truth
// table must also agree with EvalComb. Seeds come from
// the circuit generators serialized through WriteBLIF, so the fuzzer
// starts from realistic well-formed netlists and mutates from there.
func FuzzEvalNetwork(f *testing.F) {
	seeds := []func() (*logic.Network, error){
		func() (*logic.Network, error) { return circuits.RippleAdder(4) },
		func() (*logic.Network, error) { return circuits.CLAAdder(8) },
		func() (*logic.Network, error) { return circuits.ArrayMultiplier(4) },
		func() (*logic.Network, error) { return circuits.Comparator(4) },
		func() (*logic.Network, error) { return circuits.ParityTree(16) },
		func() (*logic.Network, error) { return circuits.Decoder(4) },
	}
	for _, gen := range seeds {
		nw, err := gen()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := logic.WriteBLIF(&buf, nw); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A sequential seed so .latch handling gets mutated too.
	f.Add([]byte(".model toggler\n.inputs en\n.outputs q\n.latch d q 0\n.names en q d\n01 1\n10 1\n.end\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		nw, err := logic.ReadBLIF(bytes.NewReader(data))
		if err != nil {
			return
		}
		if nw.NumNodes() > 20000 {
			return // keep fuzz iterations fast; size is input-proportional
		}
		// Cycle-step the machine with inputs derived from the data bytes.
		st := logic.NewState(nw)
		npi := len(nw.PIs())
		in := make([]bool, npi)
		for c := 0; c < 4; c++ {
			for i := range in {
				b := byte(0)
				if len(data) > 0 {
					b = data[(c*npi+i)%len(data)]
				}
				in[i] = (b>>(uint(c)&7))&1 == 1
			}
			if _, err := st.Step(in); err != nil {
				return // e.g. a combinational cycle: a typed error, not a panic
			}
		}
		if npi <= 10 && len(nw.FFs()) == 0 {
			tt, err := nw.TruthTable()
			if err != nil {
				return
			}
			// Every word-parallel row must equal the scalar oracle's.
			for m := 0; m < 1<<npi; m++ {
				for i := range in {
					in[i] = m>>i&1 == 1
				}
				out, err := nw.EvalComb(in)
				if err != nil {
					t.Fatalf("row %d: EvalComb failed after TruthTable succeeded: %v", m, err)
				}
				for i, v := range out {
					if got := tt[i][m/64]>>(m%64)&1 == 1; got != v {
						t.Fatalf("output %d row %d: truth table %v, EvalComb %v", i, m, got, v)
					}
				}
			}
		}
	})
}

// FuzzBLIFRoundTrip asserts that every netlist ReadBLIF accepts survives
// WriteBLIF and a second ReadBLIF: the write succeeds, the re-read
// succeeds with the same numbers of primary inputs and outputs, and a
// small combinational network (at most 16 inputs, no flip-flops) keeps
// every output's truth table. Seeds are small generator netlists, which
// keep the fuzzer's minimization of interesting inputs short, and the
// sequential toggler of FuzzEvalNetwork.
func FuzzBLIFRoundTrip(f *testing.F) {
	seeds := []func() (*logic.Network, error){
		func() (*logic.Network, error) { return circuits.RippleAdder(3) },
		func() (*logic.Network, error) { return circuits.CLAAdder(2) },
		func() (*logic.Network, error) { return circuits.ArrayMultiplier(2) },
		func() (*logic.Network, error) { return circuits.Comparator(2) },
		func() (*logic.Network, error) { return circuits.Decoder(2) },
		func() (*logic.Network, error) { return circuits.MuxTree(2) },
	}
	for _, gen := range seeds {
		nw, err := gen()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := logic.WriteBLIF(&buf, nw); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(".model toggler\n.inputs en\n.outputs q\n.latch d q 0\n.names en q d\n01 1\n10 1\n.end\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := logic.ReadBLIF(bytes.NewReader(data))
		if err != nil {
			return
		}
		if a.NumNodes() > 20000 {
			return // keep fuzz iterations fast; size is input-proportional
		}
		var buf bytes.Buffer
		if err := logic.WriteBLIF(&buf, a); err != nil {
			t.Fatalf("WriteBLIF of a parsed network: %v", err)
		}
		b, err := logic.ReadBLIF(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading WriteBLIF output: %v\n%s", err, buf.Bytes())
		}
		if len(a.PIs()) != len(b.PIs()) || len(a.POs()) != len(b.POs()) {
			t.Fatalf("round trip changed the interface: %d/%d inputs, %d/%d outputs",
				len(a.PIs()), len(b.PIs()), len(a.POs()), len(b.POs()))
		}
		if len(a.PIs()) > 16 || len(a.FFs()) != 0 {
			return
		}
		ta, err := a.TruthTable()
		if err != nil {
			return // e.g. a combinational cycle, which TruthTable reports
		}
		tb, err := b.TruthTable()
		if err != nil {
			t.Fatalf("truth table of the re-read network: %v", err)
		}
		for i := range ta {
			for w := range ta[i] {
				if ta[i][w] != tb[i][w] {
					t.Fatalf("output %d, word %d: %x before the round trip, %x after", i, w, ta[i][w], tb[i][w])
				}
			}
		}
	})
}
