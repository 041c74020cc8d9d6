package ilp

import (
	"fmt"
	"math"
	"sort"

	"coradd/internal/lp"
)

// RelaxResult reports the §5.4 ablation: the LP-relaxation lower bound of
// the paper's formulation, and the feasible design obtained by rounding the
// fractional solution — the strategy of relaxation-based designers, whose
// rounding loss the paper criticizes.
type RelaxResult struct {
	// LPObjective is the relaxation's optimal value (a lower bound on the
	// true optimum).
	LPObjective float64
	// Rounded is the integer design recovered by rounding y descending.
	Rounded *Solution
	// FractionalY holds the relaxation's y values per candidate.
	FractionalY []float64
	// Pivots counts simplex pivots.
	Pivots int
}

// SolveRelaxed builds the paper's Table 3 formulation with y and x relaxed
// to [0,1], solves it with the simplex in package lp, and rounds.
func SolveRelaxed(p *Problem) (*RelaxResult, error) {
	nM := len(p.Cands)
	nQ := p.numQueries()
	perQ := sortedPerQuery(p)

	// Truncate each query's ordering at the base runtime: candidates slower
	// than base never carry penalty mass (the base design is always
	// available), so they drop out of the formulation.
	orders := make([][]int, nQ)
	for q := 0; q < nQ; q++ {
		var ord []int
		for _, m := range perQ[q] {
			if p.Cands[m].Times[q] >= p.Base[q] {
				break
			}
			ord = append(ord, m)
		}
		orders[q] = ord
	}

	// Variable layout: y_0..y_{nM-1}, then x variables per (q, r≥2) plus a
	// final penalty step from the slowest listed candidate up to base.
	type xVar struct {
		q, r int // r indexes into orders[q]; r == len(orders[q]) is the
		// base step
	}
	var xs []xVar
	xIndex := make(map[[2]int]int)
	for q := 0; q < nQ; q++ {
		for r := 1; r <= len(orders[q]); r++ {
			xIndex[[2]int{q, r}] = nM + len(xs)
			xs = append(xs, xVar{q, r})
		}
	}
	nVars := nM + len(xs)
	c := make([]float64, nVars)
	constant := 0.0
	for q := 0; q < nQ; q++ {
		w := p.weight(q)
		ord := orders[q]
		if len(ord) == 0 {
			constant += w * p.Base[q]
			continue
		}
		constant += w * p.Cands[ord[0]].Times[q]
		for r := 1; r <= len(ord); r++ {
			var delta float64
			if r < len(ord) {
				delta = p.Cands[ord[r]].Times[q] - p.Cands[ord[r-1]].Times[q]
			} else {
				delta = p.Base[q] - p.Cands[ord[len(ord)-1]].Times[q]
			}
			c[xIndex[[2]int{q, r}]] = w * delta
		}
	}

	var a [][]float64
	var b []float64
	// Penalty constraints: x_{q,r} ≥ 1 − Σ_{k<r} y  ⇔  −x − Σy ≤ −1.
	for q := 0; q < nQ; q++ {
		ord := orders[q]
		for r := 1; r <= len(ord); r++ {
			row := make([]float64, nVars)
			row[xIndex[[2]int{q, r}]] = -1
			for k := 0; k < r; k++ {
				row[ord[k]] = -1
			}
			a = append(a, row)
			b = append(b, -1)
		}
	}
	// Budget.
	row := make([]float64, nVars)
	for m := 0; m < nM; m++ {
		row[m] = float64(p.Cands[m].Size)
	}
	a = append(a, row)
	b = append(b, float64(p.Budget))
	// Fact groups.
	groups := map[int][]int{}
	for m := 0; m < nM; m++ {
		if g := p.Cands[m].FactGroup; g > 0 {
			groups[g] = append(groups[g], m)
		}
	}
	for _, ms := range groups {
		row := make([]float64, nVars)
		for _, m := range ms {
			row[m] = 1
		}
		a = append(a, row)
		b = append(b, 1)
	}
	// Bounds: everything in [0,1].
	u := make([]float64, nVars)
	for i := range u {
		u[i] = 1
	}

	sol, err := lp.Solve(&lp.Problem{C: c, A: a, B: b, U: u})
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("ilp: relaxation not solved: %s", sol.Status)
	}

	res := &RelaxResult{
		LPObjective: sol.Objective + constant,
		FractionalY: append([]float64(nil), sol.X[:nM]...),
		Pivots:      sol.Pivots,
	}
	res.Rounded = roundFractional(p, res.FractionalY)
	return res, nil
}

// roundFractional converts a fractional y into a feasible design: take
// candidates by descending y (breaking ties by benefit density), skipping
// any that would break the budget or fact-group rules — the conversion
// step whose benefit loss §5.4 quantifies.
func roundFractional(p *Problem, y []float64) *Solution {
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	dens := densities(p)
	sort.SliceStable(idx, func(a, b int) bool {
		if math.Abs(y[idx[a]]-y[idx[b]]) > 1e-9 {
			return y[idx[a]] > y[idx[b]]
		}
		return dens[idx[a]] > dens[idx[b]]
	})
	var chosen []int
	var size int64
	factUsed := map[int]bool{}
	for _, m := range idx {
		if y[m] <= 1e-6 {
			break
		}
		cand := &p.Cands[m]
		if size+cand.Size > p.Budget {
			continue
		}
		if cand.FactGroup > 0 && factUsed[cand.FactGroup] {
			continue
		}
		chosen = append(chosen, m)
		size += cand.Size
		if cand.FactGroup > 0 {
			factUsed[cand.FactGroup] = true
		}
	}
	sol := &Solution{Chosen: chosen, Objective: p.Objective(chosen), Size: size}
	sol.PerQuery = perQueryRouting(p, chosen)
	return sol
}
