package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/circuits"
	"repro/internal/encode"
	"repro/internal/gating"
	"repro/internal/logic"
	"repro/internal/precomp"
	"repro/internal/retime"
	"repro/internal/sim"
	"repro/internal/stg"
)

// oracle is what the map-counting State.Step loops measured: per-node
// toggles between consecutive post-edge snapshots, flip-flop one-counts
// after each edge, and each cycle's pre-edge values of the live nodes.
type oracle struct {
	trans  map[logic.NodeID]int64
	ffOnes map[logic.NodeID]int64
	seen   [][]bool
	cycles int
}

// runOracle steps a logic.State through vecs. fromReset counts the first
// cycle against the settled reset state (n cycles); otherwise counting
// starts from the first cycle's snapshot (n-1 cycles).
func runOracle(t testing.TB, nw *logic.Network, vecs [][]bool, fromReset bool) oracle {
	t.Helper()
	st := logic.NewState(nw)
	live := nw.Live()
	prev := make(map[logic.NodeID]bool)
	if fromReset {
		if err := st.Settle(); err != nil {
			t.Fatal(err)
		}
		for _, id := range live {
			prev[id] = st.Value(id)
		}
	}
	o := oracle{trans: make(map[logic.NodeID]int64), ffOnes: make(map[logic.NodeID]int64)}
	for c, in := range vecs {
		preFF := make(map[logic.NodeID]bool)
		for _, f := range nw.FFs() {
			preFF[f] = st.Value(f)
		}
		if _, err := st.Step(in); err != nil {
			t.Fatal(err)
		}
		counted := fromReset || c > 0
		row := make([]bool, len(live))
		for k, id := range live {
			v := st.Value(id)
			if counted && v != prev[id] {
				o.trans[id]++
			}
			prev[id] = v
			row[k] = v
			if nw.Node(id).Type == logic.DFF {
				row[k] = preFF[id]
			}
		}
		o.seen = append(o.seen, row)
		for _, f := range nw.FFs() {
			if counted && st.Value(f) {
				o.ffOnes[f]++
			}
		}
		if counted {
			o.cycles++
		}
	}
	return o
}

// checkStream compares the stream against the oracle under both counting
// conventions: every node slot's transitions (inputs and flip-flops
// included), the flip-flop one-counts, the cycle count and the values the
// observer sees. It also checks that a stream run in two calls equals one
// run.
func checkStream(t testing.TB, name string, nw *logic.Network, st sim.Stimulus) {
	t.Helper()
	ctx := context.Background()
	vecs := st.Unpack()
	live := nw.Live()
	for _, fromReset := range []bool{true, false} {
		want := runOracle(t, nw, vecs, fromReset)
		var seen [][]bool
		observe := func(val []bool) {
			row := make([]bool, len(live))
			for k, id := range live {
				row[k] = val[id]
			}
			seen = append(seen, row)
		}
		var s *sim.Stream
		var err error
		if fromReset {
			if s, err = sim.NewStream(nw); err == nil {
				err = s.Run(ctx, st, observe)
			}
		} else {
			s, err = sim.MeasureSequential(nw, st, observe)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Cycles() != want.cycles {
			t.Fatalf("%s (from reset %v): %d cycles, oracle %d", name, fromReset, s.Cycles(), want.cycles)
		}
		for id := 0; id < nw.NumNodes(); id++ {
			if got, w := s.Transitions(logic.NodeID(id)), want.trans[logic.NodeID(id)]; got != w {
				t.Fatalf("%s (from reset %v): node %d has %d transitions, oracle %d", name, fromReset, id, got, w)
			}
		}
		for i, f := range nw.FFs() {
			if got, w := s.FFOnes(i), want.ffOnes[f]; got != w {
				t.Fatalf("%s (from reset %v): flip-flop %d loaded 1 %d times, oracle %d", name, fromReset, i, got, w)
			}
		}
		if !reflect.DeepEqual(seen, want.seen) {
			t.Fatalf("%s (from reset %v): observed values differ from the oracle's pre-edge values", name, fromReset)
		}
	}
	whole, err := sim.NewStream(nw)
	if err != nil {
		t.Fatal(err)
	}
	split, err := sim.NewStream(nw)
	if err != nil {
		t.Fatal(err)
	}
	k := len(vecs) / 3
	if err := whole.Run(ctx, st, nil); err != nil {
		t.Fatal(err)
	}
	if err := split.Run(ctx, pack(t, vecs[:k]), nil); err != nil {
		t.Fatal(err)
	}
	if err := split.Run(ctx, pack(t, vecs[k:]), nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, split) {
		t.Fatalf("%s: a stream run in two calls differs from one run", name)
	}
}

// registered returns the n-bit array multiplier with a flip-flop on every
// output, the E11 circuit.
func registered(n int) (*logic.Network, error) {
	nw, err := circuits.ArrayMultiplier(n)
	if err != nil {
		return nil, err
	}
	for i, po := range append([]logic.NodeID(nil), nw.POs()...) {
		ff, err := nw.AddDFF(fmt.Sprintf("of%d", i), po, false)
		if err != nil {
			return nil, err
		}
		nw.POs()[i] = ff
	}
	return nw, nil
}

// guardedCone is the guarded-evaluation example: a deep mixing cone over
// three inputs, observable only when en is 1, with its guard latches.
func guardedCone() (*logic.Network, error) {
	nw := logic.New("guard")
	var xs []logic.NodeID
	for i := 0; i < 3; i++ {
		xs = append(xs, nw.MustInput(fmt.Sprintf("x%d", i)))
	}
	en := nw.MustInput("en")
	acc := nw.MustGate("p1", logic.Xor, xs[0], xs[1])
	for i := 2; i <= 10; i++ {
		mix := nw.MustGate(fmt.Sprintf("m%d", i), logic.And, acc, xs[i%3])
		acc = nw.MustGate(fmt.Sprintf("p%d", i), logic.Xor, mix, xs[(i+1)%3])
	}
	if err := nw.MarkOutput(nw.MustGate("out", logic.And, acc, en)); err != nil {
		return nil, err
	}
	gc, err := precomp.GuardEvaluation(nw, acc)
	if err != nil {
		return nil, err
	}
	return gc.Network, nil
}

// sequentialCorpus lists every network with flip-flops that the
// sequential techniques measure: the FSM corpus under two encodings and
// self-loop gating (E8, E12), the registered and retimed multipliers
// (E11), the register bank (E12), the precomputed comparators and the
// guarded cone (E13), the sequential BLIF corpus entries, and random
// sequential DAGs.
func sequentialCorpus(t *testing.T) ([]string, map[string]*logic.Network) {
	t.Helper()
	nets := make(map[string]*logic.Network)
	add := func(name string, nw *logic.Network, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nets[name] = nw
	}
	for name, g := range stg.Corpus() {
		for _, enc := range []struct {
			label string
			e     encode.Encoding
		}{{"binary", encode.MinimalBinary(g)}, {"onehot", encode.OneHot(g)}} {
			nw, err := encode.Synthesize(g, enc.e)
			add("fsm:"+name+"/"+enc.label, nw, err)
		}
		gated, err := gating.GateSelfLoops(g, encode.MinimalBinary(g))
		if err != nil {
			t.Fatalf("gate %s: %v", name, err)
		}
		nets["gated:"+name] = gated.Network
	}
	for _, n := range []int{4, 5} {
		nw, err := registered(n)
		add(fmt.Sprintf("mult%d+oreg", n), nw, err)
		g, err := retime.BuildGraph(nw)
		if err != nil {
			t.Fatal(err)
		}
		_, r, err := g.MinPeriod()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := g.Apply(r)
		add(fmt.Sprintf("mult%d+retimed", n), rt, err)
	}
	bank, err := gating.BuildRegisterBank(16)
	if err != nil {
		t.Fatal(err)
	}
	nets["regbank16"] = bank.Network
	for j := 0; j <= 4; j++ {
		pc, err := precomp.BuildComparator(8, j)
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("pcmp8_%d", j)] = pc.Network
	}
	nw, err := guardedCone()
	add("guarded", nw, err)
	corpus, err := circuits.BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for name, nw := range corpus {
		if len(nw.FFs()) > 0 {
			nets["blif:"+name] = nw
		}
	}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 24; i++ {
		nw, err := circuits.RandomDAG(r, 1+r.Intn(5), 1+r.Intn(6), 4+r.Intn(40))
		add(fmt.Sprintf("random%d", i), nw, err)
	}
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nets
}

// TestStreamMatchesStateOracle pins the stream to the State.Step loops it
// replaced, on every sequential network the techniques measure and on
// random sequential DAGs, under uniform and biased stimulus.
func TestStreamMatchesStateOracle(t *testing.T) {
	names, nets := sequentialCorpus(t)
	for i, name := range names {
		nw := nets[name]
		if len(nw.FFs()) == 0 {
			t.Fatalf("%s has no flip-flops", name)
		}
		r := rand.New(rand.NewSource(int64(i)))
		checkStream(t, name, nw, sim.RandomStimulus(r, 200, len(nw.PIs()), 0.5))
		probs := make([]float64, len(nw.PIs()))
		for j := range probs {
			probs[j] = r.Float64()
		}
		checkStream(t, name+"/biased", nw, sim.BiasedStimulus(r, 200, probs))
	}
}

// TestStreamShortRuns: zero and one vector leave no counted cycle under
// the first-cycle convention, so every activity is 0, not NaN.
func TestStreamShortRuns(t *testing.T) {
	bank, err := gating.BuildRegisterBank(4)
	if err != nil {
		t.Fatal(err)
	}
	nw := bank.Network
	vecs := sim.RandomVectors(rand.New(rand.NewSource(1)), 3, len(nw.PIs()), 0.5)
	// n vectors leave max(n-1, 0) counted cycles.
	for n, want := range []int{0, 0, 1, 2} {
		s, err := sim.MeasureSequential(nw, pack(t, vecs[:n]), nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Cycles() != want {
			t.Errorf("%d vectors: %d counted cycles, want %d", n, s.Cycles(), want)
		}
		for _, id := range nw.Live() {
			if a := s.Activity(id); math.IsNaN(a) || (want == 0 && a != 0) {
				t.Errorf("%d vectors: node %d activity %v", n, id, a)
			}
		}
	}
	if sim.Fraction(0, 0) != 0 || sim.Fraction(1, 4) != 0.25 {
		t.Error("Fraction: want 0 for zero cycles and k/n otherwise")
	}
}

// TestStreamMatchesRowsLoop: Run and MeasureSequential on a Stimulus leave
// the stream the [][]bool loop they replaced leaves (every node's
// transitions, the flip-flop one-counts, the cycle count and the present
// values) and show the observer the same values, on every sequential
// network the techniques measure, at lengths on both sides of a 64-vector
// word. A stimulus whose width is not the input count is an error.
func TestStreamMatchesRowsLoop(t *testing.T) {
	ctx := context.Background()
	names, nets := sequentialCorpus(t)
	for i, name := range names {
		nw := nets[name]
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			st := sim.RandomStimulus(rand.New(rand.NewSource(int64(i*1000+n))), n, len(nw.PIs()), 0.5)
			vecs := st.Unpack()
			for _, fromReset := range []bool{true, false} {
				var got, want []bool
				s, err := sim.NewStream(nw)
				if err != nil {
					t.Fatal(err)
				}
				if fromReset {
					err = s.Run(ctx, st, func(val []bool) { got = append(got, val...) })
				} else {
					s, err = sim.MeasureSequential(nw, st, func(val []bool) { got = append(got, val...) })
				}
				if err != nil {
					t.Fatalf("%s, %d vectors: %v", name, n, err)
				}
				o, err := sim.NewStream(nw)
				if err != nil {
					t.Fatal(err)
				}
				k := 0
				if !fromReset {
					k = min(1, n)
					if err := o.RunRows(vecs[:k], func(val []bool) { want = append(want, val...) }); err != nil {
						t.Fatal(err)
					}
					o.Clear()
				}
				if err := o.RunRows(vecs[k:], func(val []bool) { want = append(want, val...) }); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(s, o) {
					t.Fatalf("%s, %d vectors (from reset %v): stream differs from the [][]bool loop", name, n, fromReset)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %d vectors (from reset %v): observed values differ from the [][]bool loop", name, n, fromReset)
				}
			}
		}
		wide := sim.RandomStimulus(rand.New(rand.NewSource(int64(i))), 65, len(nw.PIs())+1, 0.5)
		s, err := sim.NewStream(nw)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(ctx, wide, nil); err == nil || s.Cycles() != 0 {
			t.Errorf("%s: Run of a %d-bit stimulus: err %v after %d cycles, want an error before any", name, wide.Width(), err, s.Cycles())
		}
		if _, err := sim.MeasureSequential(nw, wide, nil); err == nil {
			t.Errorf("%s: MeasureSequential accepted a %d-bit stimulus", name, wide.Width())
		}
	}
}

// pack packs a test's vector stream.
func pack(t testing.TB, vecs [][]bool) sim.Stimulus {
	t.Helper()
	st, err := sim.PackVectors(vecs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// FuzzSequentialStream parses fuzzed BLIF the way the server reads
// uploads and checks the stream against the State.Step oracle under both
// counting conventions.
func FuzzSequentialStream(f *testing.F) {
	add := func(nw *logic.Network, seed int64) {
		var buf bytes.Buffer
		if err := logic.WriteBLIF(&buf, nw); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), seed)
	}
	for i, name := range []string{"count8", "det1101", "idler"} {
		g := stg.Corpus()[name]
		nw, err := encode.Synthesize(g, encode.MinimalBinary(g))
		if err != nil {
			f.Fatal(err)
		}
		add(nw, int64(i))
	}
	pc, err := precomp.BuildComparator(3, 1)
	if err != nil {
		f.Fatal(err)
	}
	add(pc.Network, 3)
	bank, err := gating.BuildRegisterBank(3)
	if err != nil {
		f.Fatal(err)
	}
	add(bank.Network, 4)
	f.Add([]byte(".model toggler\n.inputs en\n.outputs q\n.latch d q 0\n.names en q d\n01 1\n10 1\n.end\n"), int64(5))
	f.Add([]byte(".model chain\n.inputs a\n.outputs c\n.latch a b 1\n.latch b c 0\n.end\n"), int64(6))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		nw, err := logic.ReadBLIF(bytes.NewReader(data))
		if err != nil || nw.NumNodes() > 2000 {
			return
		}
		if _, err := nw.Compile(); err != nil {
			return // e.g. a combinational cycle
		}
		checkStream(t, nw.Name, nw, sim.RandomStimulus(rand.New(rand.NewSource(seed)), 96, len(nw.PIs()), 0.5))
	})
}
