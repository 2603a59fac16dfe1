package dontcare

import (
	"bytes"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// FuzzDontCarePowerNeverRaises decodes a small combinational network from
// netlist bytes, as FuzzEvalNetwork does, strashes it as the flows do, and
// asserts that the NetworkPower pass keeps its function and never raises
// its exact power. Seeds are random uploads, two of which the pass once
// made worse, and small generators.
func FuzzDontCarePowerNeverRaises(f *testing.F) {
	var nets []*logic.Network
	for _, seed := range []int64{10, 11, 3} {
		nets = append(nets, readUpload(f, "upload", seed, 24, false))
	}
	for _, name := range []string{"cmp8", "alu4"} {
		nw, err := circuits.Named(name)
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, nw)
	}
	for _, nw := range nets {
		var buf bytes.Buffer
		if err := logic.WriteBLIF(&buf, nw); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nw, err := logic.ReadBLIF(bytes.NewReader(data))
		if err != nil || len(nw.FFs()) != 0 || len(nw.PIs()) > 16 || nw.NumNodes() > 400 {
			return // keep iterations small; size is input-proportional
		}
		if _, err := nw.TopoOrder(); err != nil {
			return // a combinational cycle, which every pass reports
		}
		if _, err := logic.Strash(nw); err != nil {
			return
		}
		checkPowerNeverRaised(t, nw)
	})
}
