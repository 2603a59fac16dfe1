package bdd

import (
	"math/rand"
	"testing"

	"repro/internal/circuits"
)

// TestGCPreservesRoots builds a network's global BDDs, drops half of the
// node functions as garbage, and checks that the kept roots denote the
// same functions after a collection: Probability, Eval and SatCount agree
// bit for bit.
func TestGCPreservesRoots(t *testing.T) {
	for _, name := range []string{"cmp8", "alu4", "mult4", "par16"} {
		t.Run(name, func(t *testing.T) {
			nw, err := circuits.Named(name)
			if err != nil {
				t.Fatal(err)
			}
			nb, err := FromNetwork(nw)
			if err != nil {
				t.Fatal(err)
			}
			m := nb.M
			nv := m.NumVars()
			p := make([]float64, nv)
			for i := range p {
				p[i] = 0.1 + 0.8*float64(i)/float64(nv)
			}
			var roots []Ref
			for i, f := range nb.roots {
				if i%2 == 0 {
					roots = append(roots, f)
				}
			}
			// Garbage the kept roots do not reach.
			extra := m.Xor(nb.roots[len(nb.roots)-1], m.Var(0))
			_ = m.And(extra, m.NVar(nv-1))

			r := rand.New(rand.NewSource(7))
			assigns := make([][]bool, 64)
			for i := range assigns {
				a := make([]bool, nv)
				for j := range a {
					a[j] = r.Intn(2) == 1
				}
				assigns[i] = a
			}
			type snap struct {
				prob, sat float64
				eval      []bool
			}
			take := func() []snap {
				out := make([]snap, len(roots))
				for i, f := range roots {
					s := snap{prob: m.Probability(f, p), sat: m.SatCount(f)}
					for _, a := range assigns {
						s.eval = append(s.eval, m.Eval(f, a))
					}
					out[i] = s
				}
				return out
			}
			before := take()
			liveBefore := m.Size()
			freed := m.GC(roots)
			if freed <= 0 {
				t.Fatalf("GC freed %d nodes; dropped roots and garbage should be reclaimed", freed)
			}
			if got := m.Size(); got != liveBefore-freed {
				t.Fatalf("Size %d after freeing %d of %d", got, freed, liveBefore)
			}
			after := take()
			for i := range roots {
				b, a := before[i], after[i]
				if b.prob != a.prob || b.sat != a.sat {
					t.Fatalf("root %d: prob/sat %v/%v -> %v/%v", i, b.prob, b.sat, a.prob, a.sat)
				}
				for j := range b.eval {
					if b.eval[j] != a.eval[j] {
						t.Fatalf("root %d: Eval changed on assignment %d", i, j)
					}
				}
			}
		})
	}
}

// TestGCReusesSlotsAndClearsCache checks that a collection empties the
// ITE cache and that new nodes land in freed slots instead of growing
// the arena.
func TestGCReusesSlotsAndClearsCache(t *testing.T) {
	m := New(8)
	keep := m.And(m.Var(0), m.Var(1))
	for i := 2; i < 8; i++ {
		_ = m.Xor(m.Var(i), m.Var(i-1), keep)
	}
	if m.iteC.n == 0 {
		t.Fatal("setup built no cached ITE results")
	}
	arena := len(m.nodes)
	freed := m.GC([]Ref{keep})
	if freed == 0 {
		t.Fatal("nothing freed")
	}
	if m.iteC.n != 0 {
		t.Fatalf("ITE cache holds %d entries after GC", m.iteC.n)
	}
	if n := freeLen(m); n != freed {
		t.Fatalf("free list has %d slots, freed %d", n, freed)
	}
	for i := 2; i < 8; i++ {
		_ = m.Or(m.Var(i), keep)
	}
	if len(m.nodes) != arena {
		t.Fatalf("arena grew from %d to %d despite %d free slots", arena, len(m.nodes), freed)
	}
	if m.Probability(keep, nil) != 0.25 {
		t.Fatalf("kept root changed: P=%v", m.Probability(keep, nil))
	}
	// Live nodes are always the arena minus the free list.
	if d := m.Size() - (len(m.nodes) - freeLen(m)); d != 0 {
		t.Fatalf("Size disagrees with arena minus free list by %d", d)
	}
}

// freeLen walks the free list.
func freeLen(m *Manager) int {
	n := 0
	for r := m.free; r != 0; r = m.nodes[r].next {
		n++
	}
	return n
}

// TestGCPoisonedManagerIsNoop checks that a tripped manager is left alone.
func TestGCPoisonedManagerIsNoop(t *testing.T) {
	m := New(4)
	m.SetBudget(Budget{MaxNodes: 3})
	_ = m.And(m.Var(0), m.Var(1), m.Var(2), m.Var(3))
	if m.Err() == nil {
		t.Fatal("budget did not trip")
	}
	if got := m.GC(nil); got != 0 {
		t.Fatalf("GC on a poisoned manager freed %d nodes", got)
	}
}
