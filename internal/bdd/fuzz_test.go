package bdd

import (
	"math"
	"testing"
)

// tt is a truth table over at most 8 variables: bit a is the value under
// the assignment whose bit i is variable i.
type tt [4]uint64

func (t tt) bit(a int) bool { return t[a>>6]>>(a&63)&1 == 1 }

func (t *tt) set(a int) { t[a>>6] |= 1 << (a & 63) }

// ttFrom tabulates fn over the 2^nv assignments.
func ttFrom(nv int, fn func(a int) bool) tt {
	var out tt
	for a := 0; a < 1<<nv; a++ {
		if fn(a) {
			out.set(a)
		}
	}
	return out
}

// fuzzRoot is a held function and the truth table it must denote.
type fuzzRoot struct {
	f  Ref
	tt tt
}

// FuzzBDDOps decodes the input into a program of Var, ITE, Restrict,
// Exists, Compose and Leq operations over at most 8 variables, mixed with
// GC on a subset of the held roots and Reorder, and checks after every
// step that each held root still denotes its brute-force truth table,
// that Probability and Probabilities match enumeration, and that the
// arena and unique tables are consistent.
func FuzzBDDOps(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 2, 2, 0, 1, 2, 3, 1, 1, 4, 0, 2, 7, 5, 8, 2, 0, 1, 2})
	f.Add([]byte{7, 0, 0, 0, 3, 0, 5, 2, 0, 1, 2, 2, 2, 1, 0, 8, 5, 3, 1, 2, 6, 0, 3, 7, 9, 2, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nv := 1 + int(data[0])%8
		data = data[1:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m := New(nv)
		p := make([]float64, nv)
		for i := range p {
			p[i] = float64(i+1) / float64(nv+2)
		}
		var held []fuzzRoot
		push := func(r fuzzRoot) {
			if len(held) < 12 {
				held = append(held, r)
			} else {
				held[next()%len(held)] = r
			}
		}
		pick := func() fuzzRoot { return held[next()%len(held)] }
		for steps := 0; len(data) > 0 && steps < 64; steps++ {
			op := next() % 9
			if len(held) == 0 {
				op %= 2 // only Var and NVar have no operands
			}
			switch op {
			case 0, 1:
				v := next() % nv
				neg := op == 1
				r := m.Var(v)
				if neg {
					r = m.NVar(v)
				}
				push(fuzzRoot{r, ttFrom(nv, func(a int) bool { return (a>>v&1 == 1) != neg })})
			case 2:
				a, b, c := pick(), pick(), pick()
				push(fuzzRoot{m.ITE(a.f, b.f, c.f), ttFrom(nv, func(x int) bool {
					if a.tt.bit(x) {
						return b.tt.bit(x)
					}
					return c.tt.bit(x)
				})})
			case 3:
				a, v, val := pick(), next()%nv, next()%2 == 1
				push(fuzzRoot{m.Restrict(a.f, v, val), ttFrom(nv, func(x int) bool {
					return a.tt.bit(x&^(1<<v) | b2i(val)<<v)
				})})
			case 4:
				a, v := pick(), next()%nv
				push(fuzzRoot{m.Exists(a.f, v), ttFrom(nv, func(x int) bool {
					return a.tt.bit(x&^(1<<v)) || a.tt.bit(x|1<<v)
				})})
			case 5:
				a, v, g := pick(), next()%nv, pick()
				push(fuzzRoot{m.Compose(a.f, v, g.f), ttFrom(nv, func(x int) bool {
					return a.tt.bit(x&^(1<<v) | b2i(g.tt.bit(x))<<v)
				})})
			case 6:
				a, b := pick(), pick()
				want := true
				for x := 0; x < 1<<nv; x++ {
					if a.tt.bit(x) && !b.tt.bit(x) {
						want = false
					}
				}
				if got := m.Leq(a.f, b.f); got != want {
					t.Fatalf("Leq = %v, want %v", got, want)
				}
			case 7:
				mask := next()
				var kept []fuzzRoot
				var roots []Ref
				for i, r := range held {
					if mask>>(i%8)&1 == 1 {
						kept = append(kept, r)
						roots = append(roots, r.f)
					}
				}
				m.GC(roots)
				held = kept
			case 8:
				roots := make([]Ref, len(held))
				for i, r := range held {
					roots[i] = r.f
				}
				if _, err := m.Reorder(roots); err != nil {
					t.Fatal(err)
				}
			}
			checkFuzzState(t, m, nv, p, held)
		}
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkFuzzState checks the tables first, with every chain walk bounded
// by the arena size, so a broken unlink fails here rather than sending a
// later lookup round a cycle; then every held root against its truth
// table and Probability against enumeration.
func checkFuzzState(t *testing.T, m *Manager, nv int, p []float64, held []fuzzRoot) {
	t.Helper()
	chained := 0
	for l := range m.unique {
		tab := &m.unique[l]
		n := 0
		for _, r := range tab.heads {
			for ; r != 0; r = m.nodes[r].next {
				if m.nodes[r].level != int32(l) {
					t.Fatalf("level %d chains node %d of level %d", l, r, m.nodes[r].level)
				}
				if n++; n > len(m.nodes) {
					t.Fatalf("level %d chains more nodes than the arena holds", l)
				}
			}
		}
		if n != tab.n {
			t.Fatalf("level %d chains %d nodes, counts %d", l, n, tab.n)
		}
		chained += n
	}
	type key struct {
		level  int32
		lo, hi Ref
	}
	seen := make(map[key]Ref)
	live := 2
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		n := m.nodes[r]
		if n.level == freeLevel {
			continue
		}
		live++
		k := key{n.level, n.lo, n.hi}
		if o, dup := seen[k]; dup {
			t.Fatalf("nodes %d and %d are both %+v", o, r, k)
		}
		seen[k] = r
		if got := m.lookup(&m.unique[n.level], n.lo, n.hi); got != r {
			t.Fatalf("unique table of level %d finds %d for node %d", n.level, got, r)
		}
	}
	if m.Size() != live {
		t.Fatalf("Size() = %d, %d live arena slots", m.Size(), live)
	}
	if chained != live-2 {
		t.Fatalf("unique tables chain %d nodes, %d live internal nodes", chained, live-2)
	}

	assign := make([]bool, nv)
	roots := make([]Ref, len(held))
	for i, r := range held {
		roots[i] = r.f
		want := 0.0
		for x := 0; x < 1<<nv; x++ {
			w := 1.0
			for v := range assign {
				assign[v] = x>>v&1 == 1
				if assign[v] {
					w *= p[v]
				} else {
					w *= 1 - p[v]
				}
			}
			if got := m.Eval(r.f, assign); got != r.tt.bit(x) {
				t.Fatalf("root %d under %v: got %v, want %v", i, assign, got, r.tt.bit(x))
			}
			if r.tt.bit(x) {
				want += w
			}
		}
		if got := m.Probability(r.f, p); math.Abs(got-want) > 1e-12 {
			t.Fatalf("root %d: Probability %v, enumeration %v", i, got, want)
		}
	}
	for i, v := range m.Probabilities(roots, p) {
		if w := m.Probability(roots[i], p); math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("root %d: Probabilities %v, Probability %v", i, v, w)
		}
	}
}
