package bdd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// propertyNetworks lists every named benchmark circuit plus seeded random
// DAGs, the corpus the sifting property test runs over.
func propertyNetworks(t *testing.T) map[string]*logic.Network {
	t.Helper()
	out := make(map[string]*logic.Network)
	for _, name := range circuits.GeneratorNames() {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		out[name] = nw
	}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		nw, err := circuits.RandomDAG(r, 3+r.Intn(4), 0, 25+r.Intn(25))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("dag%d", seed)] = nw
	}
	return out
}

// TestReorderPreservesSemantics checks that sifting changes only the
// variable order, never the functions: Probability, Eval on random
// assignments, and exhaustively enumerated truth tables (for narrow
// circuits) must agree before and after Reorder for every node function.
func TestReorderPreservesSemantics(t *testing.T) {
	for name, nw := range propertyNetworks(t) {
		nw := nw
		t.Run(name, func(t *testing.T) {
			nb, err := FromNetwork(nw)
			if err != nil {
				t.Fatal(err)
			}
			m := nb.M
			nv := m.NumVars()
			// Deterministic non-uniform probabilities exercise the
			// permutation-sensitive p indexing.
			pv := make([]float64, nv)
			for i := range pv {
				pv[i] = 0.1 + 0.8*float64(i)/float64(nv)
			}
			ids := make([]logic.NodeID, 0, len(nb.Fn))
			for id := range nb.Fn {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

			probBefore := make(map[logic.NodeID]float64, len(ids))
			countBefore := make(map[logic.NodeID]int, len(ids))
			for _, id := range ids {
				probBefore[id] = m.Probability(nb.Fn[id], pv)
				countBefore[id] = m.NodeCount(nb.Fn[id])
			}
			r := rand.New(rand.NewSource(7))
			assigns := make([][]bool, 64)
			for i := range assigns {
				a := make([]bool, nv)
				for j := range a {
					a[j] = r.Intn(2) == 1
				}
				assigns[i] = a
			}
			evalBefore := make(map[logic.NodeID][]bool, len(ids))
			for _, id := range ids {
				vals := make([]bool, len(assigns))
				for i, a := range assigns {
					vals[i] = m.Eval(nb.Fn[id], a)
				}
				evalBefore[id] = vals
			}
			exhaustive := nv <= 12
			var truthBefore map[logic.NodeID][]bool
			if exhaustive {
				truthBefore = make(map[logic.NodeID][]bool, len(ids))
				for _, id := range ids {
					truthBefore[id] = truthTable(m, nb.Fn[id], nv)
				}
			}

			st, err := nb.M.Reorder(nb.roots)
			if err != nil {
				t.Fatalf("Reorder: %v", err)
			}
			if st.Vars == 0 && st.Before > 0 {
				t.Fatalf("Reorder sifted no variables over %d nodes", st.Before)
			}

			for _, id := range ids {
				f := nb.Fn[id]
				if got := m.Probability(f, pv); math.Abs(got-probBefore[id]) > 1e-12 {
					t.Fatalf("node %d: Probability %.17g -> %.17g after reorder", id, probBefore[id], got)
				}
				if got := m.NodeCount(f); got == 0 && countBefore[id] != 0 {
					t.Fatalf("node %d: NodeCount collapsed to 0 after reorder", id)
				}
				for i, a := range assigns {
					if got := m.Eval(f, a); got != evalBefore[id][i] {
						t.Fatalf("node %d: Eval(assign %d) flipped after reorder", id, i)
					}
				}
				if exhaustive {
					if got := truthTable(m, f, nv); !equalBools(got, truthBefore[id]) {
						t.Fatalf("node %d: truth table changed after reorder", id)
					}
				}
			}
			// The permutation must stay a bijection.
			seen := make([]bool, nv)
			for _, v := range m.Order() {
				if v < 0 || v >= nv || seen[v] {
					t.Fatalf("Order() is not a permutation: %v", m.Order())
				}
				seen[v] = true
			}
		})
	}
}

func truthTable(m *Manager, f Ref, nv int) []bool {
	out := make([]bool, 1<<nv)
	a := make([]bool, nv)
	for x := range out {
		for j := 0; j < nv; j++ {
			a[j] = x&(1<<j) != 0
		}
		out[x] = m.Eval(f, a)
	}
	return out
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReorderShrinksComparator checks sifting pays off where the fixed
// order is pathological: the magnitude comparator declares all c bits
// before all d bits, which is exponential, while the interleaved order
// sifting finds is linear. The build keeps the declaration order, since
// the default depth-first order already interleaves the bits.
func TestReorderShrinksComparator(t *testing.T) {
	nw, err := circuits.Comparator(12)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := FromNetworkOpts(context.Background(), nw, BuildOptions{DeclarationOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	var out Ref
	for _, po := range nw.POs() {
		out = nb.Fn[po]
	}
	before := nb.M.NodeCount(out)
	st, err := nb.M.Reorder(nb.roots)
	if err != nil {
		t.Fatal(err)
	}
	after := nb.M.NodeCount(out)
	if after*4 > before {
		t.Fatalf("sifting left the comparator at %d nodes (was %d); expected at least 4x reduction", after, before)
	}
	if st.After >= st.Before {
		t.Fatalf("ReorderStats did not improve: %+v", st)
	}
	if nb.M.Size() > st.After+2 {
		t.Fatalf("Size()=%d does not reflect reclaimed nodes (live internal %d)", nb.M.Size(), st.After)
	}
}

// TestReorderDeterministic checks two identical builds sift to the same
// order and the same arena, byte for byte — required for the server's
// response-cacheability guarantees.
func TestReorderDeterministic(t *testing.T) {
	build := func() (*Manager, []int) {
		nw, err := circuits.Comparator(10)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := FromNetwork(nw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nb.M.Reorder(nb.roots); err != nil {
			t.Fatal(err)
		}
		return nb.M, nb.M.Order()
	}
	m1, o1 := build()
	m2, o2 := build()
	if len(o1) != len(o2) {
		t.Fatal("order length mismatch")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("orders diverge at level %d: %v vs %v", i, o1, o2)
		}
	}
	if len(m1.nodes) != len(m2.nodes) {
		t.Fatalf("arena sizes diverge: %d vs %d", len(m1.nodes), len(m2.nodes))
	}
	for i := range m1.nodes {
		if m1.nodes[i] != m2.nodes[i] {
			t.Fatalf("arena diverges at ref %d: %+v vs %+v", i, m1.nodes[i], m2.nodes[i])
		}
	}
}

// TestReorderBudgetAware checks sifting itself respects the manager's
// budget: a MaxSteps ceiling just above the build cost trips during
// Reorder and poisons the manager.
func TestReorderBudgetAware(t *testing.T) {
	nw, err := circuits.Comparator(10)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	m := nb.M
	m.SetBudget(Budget{MaxSteps: m.Steps() + 8})
	_, rerr := nb.M.Reorder(nb.roots)
	if rerr == nil || !errors.Is(rerr, ErrBudgetExceeded) {
		t.Fatalf("budgeted Reorder returned %v, want ErrBudgetExceeded", rerr)
	}
	if m.Err() == nil {
		t.Fatal("manager not poisoned after Reorder budget trip")
	}
}

// TestRestrictBudgetTrips is the regression test for the budget bypass:
// Restrict (and the quantification stack above it) must charge recursion
// steps, so a tiny MaxSteps budget trips inside ExistsSet on a wide
// circuit where previously only ITE was metered.
func TestRestrictBudgetTrips(t *testing.T) {
	nw, err := circuits.CLAAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	m := nb.M
	var widest Ref
	best := -1
	for _, f := range nb.Fn {
		if f == True || f == False {
			continue
		}
		if c := m.NodeCount(f); c > best {
			best, widest = c, f
		}
	}
	if best < 8 {
		t.Fatalf("no wide function to quantify (best %d nodes)", best)
	}

	// A bare Restrict alone must trip: before the fix its walk did zero
	// budget accounting.
	steps := m.Steps()
	m.SetBudget(Budget{MaxSteps: steps + 2})
	sup0 := m.Support(widest)
	if got := m.Restrict(widest, sup0[len(sup0)-1], true); got != False {
		t.Fatalf("Restrict on tripped budget returned %v, want False", got)
	}
	var be *BudgetError
	if err := m.Err(); err == nil || !errors.As(err, &be) || be.Reason != "steps" {
		t.Fatalf("Restrict did not trip the steps budget: %v", err)
	}
	if m.Steps() <= steps {
		t.Fatal("Restrict charged no steps")
	}

	// And the full quantification path: a fresh manager, a budget with
	// room for the build but not for ExistsSet.
	nb2, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	m2 := nb2.M
	m2.SetBudget(Budget{MaxSteps: m2.Steps() + 16})
	sup := m2.Support(widest)
	if got := m2.ExistsSet(widest, sup); got != False {
		t.Fatalf("ExistsSet on tripped budget returned %v, want False", got)
	}
	if err := m2.Err(); err == nil || !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("ExistsSet did not trip the budget: %v", err)
	}
}

// TestRestrictUnhitBudgetBitIdentical checks the incremental-enforcement
// guarantee still holds now that Restrict is metered: a budget that never
// trips must leave the node graph bit-identical to an unbudgeted run.
func TestRestrictUnhitBudgetBitIdentical(t *testing.T) {
	run := func(b Budget, withCtx bool) *Manager {
		nw, err := circuits.CLAAdder(6)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if withCtx {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			defer cancel()
		}
		nb, err := FromNetworkCtx(ctx, nw, b)
		if err != nil {
			t.Fatal(err)
		}
		m := nb.M
		for _, po := range nw.POs() {
			f := nb.Fn[po]
			sup := m.Support(f)
			m.ExistsSet(f, sup[:len(sup)/2])
			m.ForallSet(f, sup[len(sup)/2:])
			m.Compose(f, sup[0], m.Var(sup[len(sup)-1]))
		}
		if m.Err() != nil {
			t.Fatalf("generous budget tripped: %v", m.Err())
		}
		return m
	}
	plain := run(Budget{}, false)
	budgeted := run(Budget{MaxNodes: 1 << 22, MaxSteps: 1 << 40}, true)
	if len(plain.nodes) != len(budgeted.nodes) {
		t.Fatalf("arena sizes diverge: %d vs %d", len(plain.nodes), len(budgeted.nodes))
	}
	for i := range plain.nodes {
		if plain.nodes[i] != budgeted.nodes[i] {
			t.Fatalf("arena diverges at ref %d: %+v vs %+v", i, plain.nodes[i], budgeted.nodes[i])
		}
	}
}

// TestPoisonedManagerEarlyOuts checks every non-ITE read operation
// short-circuits on a tripped manager instead of silently computing over
// placeholder False refs, and that none of them grow the arena.
func TestPoisonedManagerEarlyOuts(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	m := New(10)
	m.SetBudget(Budget{MaxNodes: 16})
	nb := &NetworkBDDs{M: m}
	_ = nb
	// Drive the manager into the budget wall.
	f := True
	for i := 0; i < 10; i++ {
		f = m.Xor(f, m.Var(i))
	}
	_ = nw
	if m.Err() == nil {
		t.Fatal("manager did not trip under MaxNodes=16")
	}
	nodesBefore := len(m.nodes)
	stepsBefore := m.Steps()

	if got := m.Restrict(f, 3, true); got != False {
		t.Fatalf("poisoned Restrict = %v, want False", got)
	}
	if got := m.Probability(f, nil); got != 0 {
		t.Fatalf("poisoned Probability = %v, want 0", got)
	}
	if got := m.Support(f); got != nil {
		t.Fatalf("poisoned Support = %v, want nil", got)
	}
	if got := m.NodeCount(f); got != 0 {
		t.Fatalf("poisoned NodeCount = %d, want 0", got)
	}
	if got := m.AnySat(m.Var(0)); got != nil {
		t.Fatalf("poisoned AnySat = %v, want nil", got)
	}
	if got := m.Eval(m.Var(0), make([]bool, 10)); got {
		t.Fatal("poisoned Eval = true, want false")
	}
	if got := m.SatCount(f); got != 0 {
		t.Fatalf("poisoned SatCount = %v, want 0", got)
	}
	if _, err := m.Reorder([]Ref{f}); err == nil {
		t.Fatal("poisoned Reorder did not return the sticky error")
	}
	if len(m.nodes) != nodesBefore {
		t.Fatalf("poisoned reads grew the arena: %d -> %d", nodesBefore, len(m.nodes))
	}
	if m.Steps() != stepsBefore {
		t.Fatalf("poisoned reads charged steps: %d -> %d", stepsBefore, m.Steps())
	}
}

// TestSatCountWideManagers pins the log-space SatCount behavior at the
// float64 overflow boundary: 2^1024 is the first width where math.Pow
// returned +Inf for every satisfiable function (and NaN for False).
func TestSatCountWideManagers(t *testing.T) {
	m := New(1024)
	if got := m.SatCount(False); got != 0 {
		t.Fatalf("SatCount(False) over 1024 vars = %v, want 0", got)
	}
	if got, want := m.SatCount(m.Var(0)), math.Ldexp(1, 1023); got != want {
		t.Fatalf("SatCount(Var(0)) over 1024 vars = %g, want %g", got, want)
	}
	// The all-ones count genuinely exceeds float64 range: documented
	// saturation, not NaN.
	if got := m.SatCount(True); !math.IsInf(got, 1) {
		t.Fatalf("SatCount(True) over 1024 vars = %v, want +Inf saturation", got)
	}
	m2 := New(1023)
	if got, want := m2.SatCount(True), math.Ldexp(1, 1023); got != want {
		t.Fatalf("SatCount(True) over 1023 vars = %g, want %g", got, want)
	}
	// Narrow managers stay exact.
	m3 := New(3)
	f := m3.Or(m3.Var(0), m3.And(m3.Var(1), m3.Var(2)))
	if got := m3.SatCount(f); got != 5 {
		t.Fatalf("SatCount = %v, want 5", got)
	}
}

// TestReorderGaugeSeesSwapPeak checks that the bdd.nodes high-water mark
// covers the peaks reached inside sifting. A slot is appended to the
// arena only when the free list is empty, so every slot was live at once
// when the last one was appended: the gauge must reach the arena length,
// even though sifting ends far smaller.
func TestReorderGaugeSeesSwapPeak(t *testing.T) {
	obsv.Disable()
	reg := obsv.Enable()
	defer obsv.Disable()
	nw, err := circuits.Comparator(12)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	m := nb.M
	built := len(m.nodes)
	if _, err := nb.M.Reorder(nb.roots); err != nil {
		t.Fatal(err)
	}
	if len(m.nodes) <= built {
		t.Fatalf("sifting never grew the arena past its %d built slots", built)
	}
	if g := reg.Gauge("bdd.nodes").Value(); g < float64(len(m.nodes)) {
		t.Fatalf("bdd.nodes = %v, below the %d slots live at the swap peak (final size %d)", g, len(m.nodes), m.Size())
	}
}

// TestSiftOutputs pins the output-only sift: mult6's depth-first build
// (13,795 nodes) reaches the 4,096-node trigger of a 1M-node budget, so
// the sift runs once, keeps every output's truth table, frees every
// other function and leaves Fn holding the outputs alone. A second call
// on the sifted build is below the trigger and does nothing; so is the
// first call on mult4's 693-node build.
func TestSiftOutputs(t *testing.T) {
	runs := obsv.Enable().Counter("bdd.reorder.runs")
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := FromNetworkCtx(context.Background(), nw, Budget{MaxNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	nv := nb.M.NumVars()
	want := make(map[logic.NodeID][]bool)
	for _, po := range nw.POs() {
		want[po] = truthTable(nb.M, nb.Fn[po], nv)
	}
	built := nb.M.Size()
	start := runs.Value()
	sifted, err := nb.SiftOutputs(nw.POs())
	if err != nil || !sifted {
		t.Fatalf("SiftOutputs = %v, %v; want a sift above the trigger", sifted, err)
	}
	if got := runs.Value() - start; got != 1 {
		t.Fatalf("SiftOutputs ran %d reorders, want 1", got)
	}
	if nb.M.Size() >= built/2 {
		t.Fatalf("output sift kept %d of %d nodes", nb.M.Size(), built)
	}
	if len(nb.Fn) != len(want) {
		t.Fatalf("Fn holds %d entries after the sift, want the %d outputs", len(nb.Fn), len(want))
	}
	for po, tt := range want {
		f, ok := nb.Fn[po]
		if !ok {
			t.Fatalf("output %d lost its Fn entry", po)
		}
		if !equalBools(truthTable(nb.M, f, nv), tt) {
			t.Fatalf("output %d: truth table changed by the sift", po)
		}
	}
	if sifted, err := nb.SiftOutputs(nw.POs()); sifted || err != nil {
		t.Fatalf("second SiftOutputs = %v, %v; want a no-op below the trigger", sifted, err)
	}

	small, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := FromNetworkCtx(context.Background(), small, Budget{MaxNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	entries, order := len(sb.Fn), sb.M.Order()
	if sifted, err := sb.SiftOutputs(small.POs()); sifted || err != nil {
		t.Fatalf("mult4 SiftOutputs = %v, %v; want a no-op below the trigger", sifted, err)
	}
	if len(sb.Fn) != entries || !slices.Equal(sb.M.Order(), order) {
		t.Fatal("SiftOutputs below the trigger changed the build")
	}
	for _, g := range nw.Gates() {
		if _, ok := want[g]; !ok {
			if _, err := nb.SiftOutputs([]logic.NodeID{g}); err == nil {
				t.Fatal("SiftOutputs accepted a node without an Fn entry")
			}
			break
		}
	}
}
