package sop

import "sort"

// ExtractOptions configures multi-function kernel extraction.
type ExtractOptions struct {
	// LitWeight gives the cost of one occurrence of a literal. nil means
	// unit weight (classic literal-count / area extraction). The
	// power-targeted variant [35] passes the switching activity of each
	// literal's signal so that extraction preferentially collapses
	// high-activity wiring.
	LitWeight func(lit int) float64
	// NewLitWeight gives the cost of one occurrence of a literal that
	// refers to a newly extracted node, given the kernel expression it
	// computes. nil means unit weight. The power variant derives the new
	// node's activity from its input activities.
	NewLitWeight func(k *Expr) float64
}

// maxExtractions bounds Extract's greedy loop.
const maxExtractions = 64

// Extraction describes one extracted kernel.
type Extraction struct {
	Lit  int   // literal ID assigned to the new node
	Expr *Expr // the kernel expression it computes
}

// Extract greedily factors shared kernels out of a set of expressions,
// MIS-style [5]: repeatedly pick the kernel with the best weighted literal
// saving across all functions, introduce a new literal for it, and divide
// it out everywhere. It mutates a copy and returns the rewritten
// expressions plus the list of extractions (in order; later extractions
// may reference earlier ones). nextLit is the first free literal ID.
func Extract(fns []*Expr, nextLit int, opts ExtractOptions) ([]*Expr, []Extraction) {
	w := opts.LitWeight
	litW := func(l int) float64 {
		if w == nil {
			return 1
		}
		return w(l)
	}
	newW := func(k *Expr) float64 {
		if opts.NewLitWeight == nil {
			return 1
		}
		return opts.NewLitWeight(k)
	}
	cur := make([]*Expr, len(fns))
	for i, f := range fns {
		cur[i] = f.Clone()
	}
	weights := make(map[int]float64) // weights for extracted literals
	weightOf := func(l int) float64 {
		if wl, ok := weights[l]; ok {
			return wl
		}
		return litW(l)
	}
	exprCost := func(e *Expr) float64 {
		s := 0.0
		for _, p := range e.Products {
			for _, l := range p {
				s += weightOf(l)
			}
		}
		return s
	}

	var extractions []Extraction
	for round := 0; round < maxExtractions; round++ {
		// Collect candidate kernels from all functions.
		type cand struct {
			key  string
			k    *Expr
			gain float64
		}
		cands := make(map[string]*cand)
		for _, f := range cur {
			for _, kr := range f.Kernels() {
				key := exprKey(kr.K)
				if _, ok := cands[key]; !ok {
					cands[key] = &cand{key: key, k: kr.K}
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		// Evaluate gain of each kernel: total cost before vs after
		// substituting it in every function where division succeeds.
		var best *cand
		for _, c := range cands {
			kCost := exprCost(c.k)
			nlw := newW(c.k)
			gain := -kCost // cost of implementing the kernel node once
			uses := 0
			for _, f := range cur {
				q, r := f.Divide(c.k)
				if len(q.Products) == 0 {
					continue
				}
				before := exprCost(f)
				// after = cost(q with new literal per product) + cost(r)
				after := exprCost(q) + float64(len(q.Products))*nlw + exprCost(r)
				if before > after {
					gain += before - after
					uses++
				}
			}
			if uses == 0 {
				continue
			}
			c.gain = gain
			if best == nil || c.gain > best.gain ||
				(c.gain == best.gain && c.key < best.key) {
				best = c
			}
		}
		if best == nil || best.gain <= 1e-12 {
			break
		}
		// Commit: new literal computes the kernel.
		lit := nextLit
		nextLit++
		weights[lit] = newW(best.k)
		extractions = append(extractions, Extraction{Lit: lit, Expr: best.k.Clone()})
		for i, f := range cur {
			q, r := f.Divide(best.k)
			if len(q.Products) == 0 {
				continue
			}
			before := exprCost(f)
			after := exprCost(q) + float64(len(q.Products))*weights[lit] + exprCost(r)
			if before <= after {
				continue
			}
			nf := &Expr{}
			for _, p := range q.Products {
				np := append(p.clone(), lit)
				sort.Ints(np)
				nf.Products = append(nf.Products, np)
			}
			nf.Products = append(nf.Products, r.Products...)
			cur[i] = nf.dedup()
		}
	}
	return cur, extractions
}

// EvalExpr evaluates an algebraic expression given literal truth values.
func EvalExpr(e *Expr, val map[int]bool) bool {
	for _, p := range e.Products {
		all := true
		for _, l := range p {
			if !val[l] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}
