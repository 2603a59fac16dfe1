package dontcare

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

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
		nets[fmt.Sprintf("rnd%d", seed)] = readUpload(t, "rnd", seed, 16, false)
	}
	for seed := int64(1); seed <= 3; seed++ {
		nets[fmt.Sprintf("seq%d", seed)] = readUpload(t, "seq", seed, 16, true)
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
