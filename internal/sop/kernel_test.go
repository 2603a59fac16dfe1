package sop

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

func TestWeakDivision(t *testing.T) {
	// f = ac + ad + bc + bd + e, g = a + b → q = c + d, r = e.
	f := NewExpr([]int{0, 2}, []int{0, 3}, []int{1, 2}, []int{1, 3}, []int{4})
	g := NewExpr([]int{0}, []int{1})
	q, r := f.Divide(g)
	wantQ := NewExpr([]int{2}, []int{3})
	if exprKey(q) != exprKey(wantQ) {
		t.Errorf("quotient = %s, want %s", q, wantQ)
	}
	if len(r.Products) != 1 || r.Products[0].key() != "4" {
		t.Errorf("remainder = %s", r)
	}
}

func TestDivideByProduct(t *testing.T) {
	f := NewExpr([]int{0, 1, 2}, []int{0, 3}, []int{1, 3})
	q, r := f.DivideByProduct(Product{0})
	if exprKey(q) != exprKey(NewExpr([]int{1, 2}, []int{3})) {
		t.Errorf("quotient = %s", q)
	}
	if exprKey(r) != exprKey(NewExpr([]int{1, 3})) {
		t.Errorf("remainder = %s", r)
	}
}

func TestDivideNoQuotient(t *testing.T) {
	f := NewExpr([]int{0, 1})
	g := NewExpr([]int{5})
	q, r := f.Divide(g)
	if len(q.Products) != 0 {
		t.Error("quotient should be empty")
	}
	if exprKey(r) != exprKey(f) {
		t.Error("remainder should be f")
	}
}

func TestMakeCubeFree(t *testing.T) {
	// f = abc + abd: common cube ab; cube-free form c + d.
	f := NewExpr([]int{0, 1, 2}, []int{0, 1, 3})
	if f.IsCubeFree() {
		t.Error("f should not be cube-free")
	}
	cf := f.MakeCubeFree()
	if exprKey(cf) != exprKey(NewExpr([]int{2}, []int{3})) {
		t.Errorf("cube-free form = %s", cf)
	}
	if !cf.IsCubeFree() {
		t.Error("result should be cube-free")
	}
}

func TestKernelsTextbook(t *testing.T) {
	// The MIS textbook example: f = adf + aef + bdf + bef + cdf + cef + g
	// Literals: a=0 b=1 c=2 d=3 e=4 f=5 g=6.
	f := NewExpr(
		[]int{0, 3, 5}, []int{0, 4, 5},
		[]int{1, 3, 5}, []int{1, 4, 5},
		[]int{2, 3, 5}, []int{2, 4, 5},
		[]int{6},
	)
	kernels := f.Kernels()
	keys := make(map[string]bool)
	for _, k := range kernels {
		keys[exprKey(k.K)] = true
	}
	// Expected kernels include (a+b+c), (d+e), and the whole f (cube-free).
	if !keys[exprKey(NewExpr([]int{0}, []int{1}, []int{2}))] {
		t.Error("missing kernel a+b+c")
	}
	if !keys[exprKey(NewExpr([]int{3}, []int{4}))] {
		t.Error("missing kernel d+e")
	}
	if !keys[exprKey(f)] {
		t.Error("missing trivial kernel (f itself is cube-free)")
	}
}

func TestKernelsNone(t *testing.T) {
	// A single product has no kernels with >= 2 terms.
	f := NewExpr([]int{0, 1, 2})
	if ks := f.Kernels(); len(ks) != 0 {
		t.Errorf("single-cube expression has %d kernels", len(ks))
	}
}

func TestExtractSharedKernel(t *testing.T) {
	// f1 = ae + be, f2 = ag + bg share kernel (a+b).
	f1 := NewExpr([]int{0, 4}, []int{1, 4})
	f2 := NewExpr([]int{0, 6}, []int{1, 6})
	out, exts := Extract([]*Expr{f1, f2}, 10, ExtractOptions{})
	if len(exts) != 1 {
		t.Fatalf("extractions = %d, want 1", len(exts))
	}
	if exprKey(exts[0].Expr) != exprKey(NewExpr([]int{0}, []int{1})) {
		t.Errorf("extracted %s, want a+b", exts[0].Expr)
	}
	// Rewritten functions are single products with the new literal.
	for i, f := range out {
		if len(f.Products) != 1 || len(f.Products[0]) != 2 {
			t.Errorf("f%d rewritten to %s", i+1, f)
		}
	}
	// Verify functional equivalence through the extraction definitions.
	r := rand.New(rand.NewSource(8))
	for k := 0; k < 100; k++ {
		val := make(map[int]bool)
		for l := 0; l < 10; l++ {
			val[l] = r.Intn(2) == 1
		}
		for _, ex := range exts {
			val[ex.Lit] = EvalExpr(ex.Expr, val)
		}
		if EvalExpr(out[0], val) != EvalExpr(f1, val) || EvalExpr(out[1], val) != EvalExpr(f2, val) {
			t.Fatal("extraction changed function")
		}
	}
}

func TestExtractWeighted(t *testing.T) {
	// Two candidate kernels with equal literal savings; weights steer the
	// choice. f1 = ab + ac (kernel b+c via /a), f2 = db + dc (same kernel),
	// g1 = xe + xf, g2 = ye + yf (kernel e+f).
	// With unit weights both kernels tie; with heavy weights on e,f the
	// power-aware pass must pick e+f first.
	lits := func(ls ...int) []int { return ls }
	f1 := NewExpr(lits(0, 1), lits(0, 2))
	f2 := NewExpr(lits(3, 1), lits(3, 2))
	g1 := NewExpr(lits(4, 6), lits(4, 7))
	g2 := NewExpr(lits(5, 6), lits(5, 7))
	w := func(l int) float64 {
		if l == 6 || l == 7 {
			return 5.0
		}
		return 1.0
	}
	_, exts := Extract([]*Expr{f1, f2, g1, g2}, 20, ExtractOptions{LitWeight: w})
	if len(exts) == 0 {
		t.Fatal("no extractions")
	}
	if exprKey(exts[0].Expr) != exprKey(NewExpr(lits(6), lits(7))) {
		t.Errorf("weighted extraction picked %s, want e+f", exts[0].Expr)
	}
}

func TestSynthesizeCoverAndExpr(t *testing.T) {
	nw := logic.New("s")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	c := nw.MustInput("c")
	cv := mustCover(t, 3, "1-0", "01-")
	id, err := SynthesizeCover(nw, "f", cv, []logic.NodeID{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(id); err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	m := make([]bool, 3)
	for idx := 0; idx < 8; idx++ {
		for i := range m {
			m[i] = idx&(1<<i) != 0
		}
		out, err := nw.EvalComb(m)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != cv.Eval(m) {
			t.Errorf("minterm %d: network %v cover %v", idx, out[0], cv.Eval(m))
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	nw := logic.New("e")
	a := nw.MustInput("a")
	cv := mustCover(t, 2, "11")
	if _, err := SynthesizeCover(nw, "f", cv, []logic.NodeID{a}); err == nil {
		t.Error("var count mismatch should fail")
	}
}

func TestSynthesizeConstants(t *testing.T) {
	nw := logic.New("k")
	nw.MustInput("a")
	id, err := SynthesizeCover(nw, "zero", NewCover(1), []logic.NodeID{nw.ByName("a")})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Node(id).Type != logic.Const0 {
		t.Error("empty cover should synthesize constant 0")
	}
}

func TestExprStringAndWeights(t *testing.T) {
	e := NewExpr([]int{0, 1}, []int{2})
	if e.String() != "L0·L1 + L2" {
		t.Errorf("string = %q", e.String())
	}
	if (&Expr{}).String() != "0" {
		t.Error("empty expr should print 0")
	}
	if e.WeightedLiterals(nil) != 3 {
		t.Error("unit weights should count literals")
	}
	w := func(l int) float64 { return float64(l + 1) }
	if got := e.WeightedLiterals(w); got != 1+2+3 {
		t.Errorf("weighted = %v", got)
	}
}
