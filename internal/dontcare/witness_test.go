package dontcare

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// randomLevelized builds a seeded random netlist shaped like the
// benchmark's uploaded circuits: 20-160 two-input gates over 8-16 inputs
// on 6-12 levels, fanins mostly from the level below, every gate without
// fanout an output, and with sequential 4-8 flip-flops fed from the
// upper half of the gates.
func randomLevelized(t *testing.T, seed int64, sequential bool) *logic.Network {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	gates, pis, latches, levels := 20+r.Intn(141), 8+r.Intn(9), 0, 6+r.Intn(7)
	if sequential {
		latches = 4 + r.Intn(5)
	}
	nw := logic.New(fmt.Sprintf("rnd%d", seed))
	var sig []logic.NodeID
	for i := 0; i < pis; i++ {
		sig = append(sig, nw.MustInput(fmt.Sprintf("i%d", i)))
	}
	// Flip-flops start on input 0 and take their real D input below.
	for i := 0; i < latches; i++ {
		q, err := nw.AddDFF(fmt.Sprintf("q%d", i), sig[0], false)
		if err != nil {
			t.Fatal(err)
		}
		sig = append(sig, q)
	}
	types := []logic.GateType{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor}
	lo := []int{0, len(sig)}
	pick := func() int {
		l := len(lo) - 2
		if l > 0 && r.Intn(4) == 0 {
			l = r.Intn(l)
		}
		return lo[l] + r.Intn(lo[l+1]-lo[l])
	}
	first := len(sig)
	for g := 0; g < gates; g++ {
		if g > 0 && g%((gates+levels-1)/levels) == 0 {
			lo = append(lo, len(sig))
		}
		a, b := pick(), pick()
		for b == a {
			b = r.Intn(len(sig))
		}
		sig = append(sig, nw.MustGate(fmt.Sprintf("g%d", g), types[r.Intn(len(types))], sig[a], sig[b]))
	}
	for i := 0; i < latches; i++ {
		d := sig[first+gates/2+r.Intn(gates-gates/2)]
		if err := nw.ReplaceFanin(sig[pis+i], sig[0], d); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range sig[first:] {
		if len(nw.Node(id).Fanout()) == 0 {
			if err := nw.MarkOutput(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nw
}

// witnessNets returns every circuit generator, seeded random levelized
// netlists, and sequential ones with flip-flops.
func witnessNets(t *testing.T) map[string]*logic.Network {
	t.Helper()
	nets := map[string]*logic.Network{}
	for _, name := range circuits.GeneratorNames() {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = nw
	}
	for seed := int64(1); seed <= 8; seed++ {
		nets[fmt.Sprintf("rnd%d", seed)] = randomLevelized(t, seed, false)
	}
	for seed := int64(1); seed <= 3; seed++ {
		nets[fmt.Sprintf("seq%d", seed)] = randomLevelized(t, seed, true)
	}
	return nets
}

// TestWitnessSound holds the witness filter to its proof, with and
// without ODCs: a witnessed local pattern is never in the gate's exact
// don't-care set, so a gate with every pattern witnessed has an empty
// set, and the analysis told which patterns are witnessed returns the
// same don't-care environment as the one that is not. When the rows
// enumerate every source assignment the converse holds too: every pattern
// outside the set is witnessed.
func TestWitnessSound(t *testing.T) {
	nets := witnessNets(t)
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nw := nets[name]
		for _, useODC := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/odc=%v", name, useODC), func(t *testing.T) {
				a, err := newAnalyzer(nw, nil)
				if err != nil {
					t.Fatal(err)
				}
				wit, err := newWitness(nw, a.nb.Vars)
				if err != nil {
					t.Fatal(err)
				}
				exhaustive := len(a.nb.Vars) <= witnessBits
				covered := 0
				for _, id := range nw.Gates() {
					n := nw.Node(id)
					k := len(n.Fanin)
					if k > 8 {
						continue
					}
					marks, all := wit.witnessed(id, useODC)
					want, err := a.analyze(id, useODC, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := a.analyze(id, useODC, marks)
					if err != nil {
						t.Fatal(err)
					}
					if got.DC.String() != want.DC.String() || fmt.Sprint(got.PatternProb) != fmt.Sprint(want.PatternProb) {
						t.Fatalf("gate %s: analysis with witness marks gives DC %s, without %s", n.Name, got.DC, want.DC)
					}
					if all {
						covered++
					}
					if all && !want.DC.IsEmpty() {
						t.Fatalf("gate %s witnessed, but its don't-care set is %s", n.Name, want.DC)
					}
					if marks == nil {
						continue // more fanins than the rows have bits
					}
					for pat, seen := range marks {
						inDC := want.DC.Eval(patternBits(pat, k))
						if seen && inDC {
							t.Fatalf("gate %s: pattern %d witnessed, but it is a don't-care", n.Name, pat)
						}
						if exhaustive && !seen && !inDC {
							t.Fatalf("gate %s: pattern %d is no don't-care over %d enumerated sources, but has no witness",
								n.Name, pat, len(a.nb.Vars))
						}
					}
					a.maybeCollect()
				}
				t.Logf("%d sources, %d gates, %d witnessed", len(a.nb.Vars), len(nw.Gates()), covered)
			})
		}
	}
}

// TestWitnessRefreshMatchesFresh rewrites gates through the analyzer as
// the pass does and checks that each refresh leaves the same signature
// as a witness built from scratch on the rewritten network.
func TestWitnessRefreshMatchesFresh(t *testing.T) {
	for _, name := range []string{"mult4", "cla8", "alu4"} {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := newAnalyzer(nw, nil)
		if err != nil {
			t.Fatal(err)
		}
		wit, err := newWitness(nw, a.nb.Vars)
		if err != nil {
			t.Fatal(err)
		}
		rewrites := 0
		for _, id := range nw.Gates() {
			if nw.Node(id) == nil || len(nw.Node(id).Fanin) < 2 {
				continue
			}
			changed, err := a.optimizeNode(id, Options{Objective: Area, UseODC: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !changed {
				continue
			}
			rewrites++
			if err := wit.refresh(); err != nil {
				t.Fatal(err)
			}
			fresh, err := newWitness(nw, a.nb.Vars)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < wit.words; w++ {
				got, want := wit.word(w), fresh.word(w)
				for _, live := range nw.Live() {
					if got[live] != want[live] {
						t.Fatalf("%s: after %d rewrites, word %d of %s is %x, fresh %x",
							name, rewrites, w, nw.Node(live).Name, got[live], want[live])
					}
				}
			}
		}
		if rewrites == 0 {
			t.Fatalf("%s: no rewrite exercised the refresh", name)
		}
	}
}

// TestPassCounters checks the pass's two counters: every visited gate is
// counted once, and on mult5 most of them are witnessed.
func TestPassCounters(t *testing.T) {
	reg := obsv.Enable()
	defer obsv.Disable()
	nw, err := circuits.Named("mult5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeNetwork(nw, Options{Objective: Area, UseODC: true})
	if err != nil {
		t.Fatal(err)
	}
	visited := reg.Counter("dontcare.gates.visited").Value()
	witnessed := reg.Counter("dontcare.gates.witnessed").Value()
	if visited != int64(res.NodesVisited) {
		t.Errorf("dontcare.gates.visited = %d, pass visited %d", visited, res.NodesVisited)
	}
	if witnessed == 0 || witnessed+int64(res.NodesRewritten) > visited {
		t.Errorf("dontcare.gates.witnessed = %d of %d visited, %d rewritten", witnessed, visited, res.NodesRewritten)
	}
}
