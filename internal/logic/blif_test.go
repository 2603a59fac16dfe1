package logic

import (
	"bufio"
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

const muxBLIF = `
# 2:1 mux
.model mux
.inputs s a b
.outputs o
.names s a b o
01- 1
1-1 1
.end
`

func TestReadBLIFMux(t *testing.T) {
	nw, err := ReadBLIF(strings.NewReader(muxBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if nw.Name != "mux" {
		t.Errorf("model name = %q", nw.Name)
	}
	for m := 0; m < 8; m++ {
		s, a, b := m&1 != 0, m&2 != 0, m&4 != 0
		want := a
		if s {
			want = b
		}
		out, err := nw.EvalComb([]bool{s, a, b})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != want {
			t.Errorf("mux(%v,%v,%v) = %v, want %v", s, a, b, out[0], want)
		}
	}
}

func TestReadBLIFLatch(t *testing.T) {
	src := `
.model counter1
.inputs en
.outputs q
.latch d q 1
.names en q d
01 1
10 1
.end
`
	nw, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if len(nw.FFs()) != 1 {
		t.Fatalf("want 1 latch, got %d", len(nw.FFs()))
	}
	if !nw.Node(nw.FFs()[0]).InitVal {
		t.Error("latch init value should be 1")
	}
	st := NewState(nw)
	// q starts 1; en=1 toggles.
	out, _ := st.Step([]bool{true})
	if out[0] != true {
		t.Error("cycle 0: q should be initial 1")
	}
	out, _ = st.Step([]bool{false})
	if out[0] != false {
		t.Error("cycle 1: q should have toggled to 0")
	}
	out, _ = st.Step([]bool{true})
	if out[0] != false {
		t.Error("cycle 2: q should hold 0 with en=0 in cycle 1")
	}
}

func TestReadBLIFOffsetCover(t *testing.T) {
	// NOR expressed via OFF-set rows.
	src := `
.model nor2
.inputs a b
.outputs y
.names a b y
1- 0
-1 0
.end
`
	nw, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		a, b := m&1 != 0, m&2 != 0
		out, err := nw.EvalComb([]bool{a, b})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != (!a && !b) {
			t.Errorf("nor(%v,%v) = %v", a, b, out[0])
		}
	}
}

func TestReadBLIFConstants(t *testing.T) {
	src := `
.model k
.inputs a
.outputs one zero
.names one
1
.names zero
.end
`
	nw, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out, err := nw.EvalComb([]bool{false})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] || out[1] {
		t.Errorf("constants wrong: one=%v zero=%v", out[0], out[1])
	}
}

func TestReadBLIFErrors(t *testing.T) {
	bad := []string{
		".model x\n.inputs a\n.outputs y\n.names a y\n2 1\n.end",      // bad literal
		".model x\n.inputs a\n.outputs y\n.names a y\n1 3\n.end",      // bad output value
		".model x\n.inputs a\n.outputs y\n.names a b y\n11 1\n.end",   // undefined b
		".model x\n.inputs a\n.outputs y\n.end",                       // undefined output
		".model x\n.inputs a\n.outputs y\n1 1\n.end",                  // row outside names
		".model x\n.inputs a\n.outputs y\n.names a y\n1-- 1\n.end",    // arity mismatch
		".model x\n.inputs a\n.outputs y\n.names a y\n0 0\n1 1\n.end", // mixed cover
	}
	for i, src := range bad {
		if _, err := ReadBLIF(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBLIFRoundTrip(t *testing.T) {
	orig := buildMux(t)
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBLIF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read failed: %v\n%s", err, buf.String())
	}
	eq, err := Equivalent(orig, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("round trip changed function:\n%s", buf.String())
	}
}

func TestBLIFRoundTripAllGateTypes(t *testing.T) {
	nw := New("allgates")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	c := nw.MustInput("c")
	outs := []NodeID{
		nw.MustGate("g_buf", Buf, a),
		nw.MustGate("g_not", Not, a),
		nw.MustGate("g_and", And, a, b, c),
		nw.MustGate("g_or", Or, a, b),
		nw.MustGate("g_nand", Nand, a, b),
		nw.MustGate("g_nor", Nor, a, b, c),
		nw.MustGate("g_xor", Xor, a, b, c),
		nw.MustGate("g_xnor", Xnor, a, b),
	}
	k0, _ := nw.AddConst("k0", false)
	k1, _ := nw.AddConst("k1", true)
	outs = append(outs, k0, k1, a) // PI as PO exercises alias covers
	for _, o := range outs {
		if err := nw.MarkOutput(o); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, nw); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBLIF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read failed: %v\n%s", err, buf.String())
	}
	eq, err := Equivalent(nw, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("round trip changed function:\n%s", buf.String())
	}
}

func TestBLIFSequentialRoundTrip(t *testing.T) {
	src := `
.model seq
.inputs x
.outputs q
.latch d q 0
.names x q d
10 1
01 1
.end
`
	nw, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, nw); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBLIF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read failed: %v\n%s", err, buf.String())
	}
	// Compare 20 cycles of behaviour.
	s1, s2 := NewState(nw), NewState(back)
	for i := 0; i < 20; i++ {
		in := []bool{i%3 == 0}
		o1, err1 := s1.Step(in)
		o2, err2 := s2.Step(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if o1[0] != o2[0] {
			t.Fatalf("cycle %d: behaviour diverged", i)
		}
	}
}

// TestReadBLIFLineLimit: a line of 1 MiB less one byte (newline
// included, 1 MiB) parses; a line one byte longer fails with
// bufio.ErrTooLong, wherever in the file it falls.
func TestReadBLIFLineLimit(t *testing.T) {
	const limit = 1 << 20
	for _, tc := range []struct {
		n       int
		tooLong bool
	}{{limit - 1, false}, {limit, true}} {
		comment := "#" + strings.Repeat("x", tc.n-1)
		for _, src := range []string{
			comment + "\n" + muxBLIF,
			muxBLIF[:len(muxBLIF)-len(".end\n")] + comment + "\n.end\n",
		} {
			_, err := ReadBLIF(strings.NewReader(src))
			if tc.tooLong != errors.Is(err, bufio.ErrTooLong) || !tc.tooLong && err != nil {
				t.Errorf("%d-byte line: err = %v, want too long %v", tc.n, err, tc.tooLong)
			}
		}
	}
}

// TestReadBLIFSmallAllocation: parsing a small netlist allocates what the
// netlist needs, not a 1 MiB line buffer up front.
func TestReadBLIFSmallAllocation(t *testing.T) {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadBLIF(strings.NewReader(muxBLIF)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("ReadBLIF allocates %d bytes per small netlist, want under 64 KiB", per)
	}
}
