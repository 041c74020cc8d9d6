// Lagrangian decomposition of the multi-tenant selection problem: N
// per-tenant instances share one global space budget. Dualizing the
// coupling constraint Σ_t size(S_t) ≤ B with one multiplier λ ≥ 0 yields
//
//	L(λ) = Σ_t min_{S_t} [ obj_t(S_t) + λ·size(S_t) ] − λ·B
//
// whose inner minimizations are independent per-tenant subproblems
// (SolvePenalized). L is concave piecewise-linear in λ with supergradient
// Σ_t size(S_t(λ)) − B, non-increasing in λ, so the ascent is the same
// bracket-by-doubling + bisection used for the root multiplier in
// lagrange.go. By weak duality every L(λ) evaluated with proven
// subproblem solves is a valid lower bound on the global optimum; the
// best feasible probe, improved by a deterministic cross-tenant greedy
// fill of the slack, is the primal answer. The reported Gap is the
// certificate: Objective − LowerBound ≥ Objective − OPT.
package ilp

import (
	"fmt"
	"math"
	"sort"

	"coradd/internal/par"
)

// SolvePenalized solves the per-tenant Lagrangian subproblem of the
// decomposition: minimize
//
//	obj(S) + lambda · size(S)
//
// subject to size(S) ≤ p.Budget and the fact-group exclusion rule. The
// returned Solution reports the *unpenalized* objective obj(S) — the same
// semantics as Solve — with Chosen ascending, so callers recover the
// Lagrangian value as Objective + lambda·Size; with lambda = 0 the call
// is Solve.
//
// For lambda > 0 it is Solve's branch-and-bound with the penalty folded
// in: each include adds lambda·size, the bound is the per-query
// Lagrangian relaxation held at lambda (newPenaltyLagrangian), the
// incumbent is a penalized greedy or the clipped warm start
// (penalizedSeed), and the only reduction is the solo-benefit pre-prune
// (reducePenalized) — the lever that keeps high-λ probes near-free. The
// search is sequential and unobserved: opts.Workers and opts.Progress are
// ignored (the decomposition parallelizes across tenants instead), as are
// the preprocessing, Lagrangian and polish switches.
func SolvePenalized(p *Problem, lambda float64, opts SolveOptions) *Solution {
	if lambda <= 0 {
		return Solve(p, opts)
	}
	opts.Workers, opts.Progress = 0, nil
	red, s := search(p, lambda, opts)
	sol := red.lift(p, s)
	sort.Ints(sol.Chosen)
	sol.Objective = p.Objective(sol.Chosen)
	sol.PerQuery = perQueryRouting(p, sol.Chosen)
	return sol
}

// DualOptions tunes DualDecompose.
type DualOptions struct {
	// Solve configures each per-tenant subproblem solve. WarmStart is
	// ignored here — use WarmStarts, which is per tenant.
	Solve SolveOptions
	// Workers is the par.ForEach worker count for the per-probe fan-out
	// across tenants; ≤ 0 means one per CPU. Results are identical at any
	// worker count.
	Workers int
	// MaxIters caps the number of λ probes (bracketing + bisection);
	// 0 means 24.
	MaxIters int
	// WarmStarts[i] seeds tenant i's first subproblem solve (indexes into
	// problems[i].Cands); later probes warm-chain from the previous
	// probe's chosen set automatically.
	WarmStarts [][]int
	// Progress, when non-nil, receives one "dual" ProgressSample per
	// completed λ probe (Subtree = probe ordinal, Bound = the probe's
	// dual value, Nodes/Incumbents = running totals) and one "final"
	// sample. Samples are emitted from the deterministic index-order
	// reduction after each probe's fan-out — never from subproblem
	// workers — so the sequence is bit-identical run to run at any
	// Workers count, and a nil sink changes nothing. Solve.Progress is
	// ignored here (per-tenant solves run concurrently; a shared
	// node-level sink would race).
	Progress func(ProgressSample)
}

// DualSolution is the outcome of DualDecompose.
type DualSolution struct {
	// Chosen[i] are the selected candidate indexes of problems[i],
	// ascending.
	Chosen [][]int
	// Objectives[i] / Sizes[i] are tenant i's unpenalized objective and
	// chosen size; Objective / TotalSize are their sums.
	Objectives []float64
	Sizes      []int64
	Objective  float64
	TotalSize  int64
	// LowerBound is the best L(λ) over probes whose subproblem solves
	// were all proven — a valid lower bound on the global optimum when
	// Proven is true. Gap = Objective − LowerBound (clipped at 0).
	LowerBound float64
	Gap        float64
	// Lambda is the multiplier of the probe the primal solution came
	// from; Iters counts λ probes; SubSolves counts per-tenant solves;
	// Nodes sums branch-and-bound nodes across all of them.
	Lambda    float64
	Iters     int
	SubSolves int
	Nodes     int
	// Proven reports that every subproblem solve at every probe was
	// proven, making LowerBound (and so Gap) a certificate.
	Proven bool
}

// DualDecompose solves N selection problems under one shared budget by
// Lagrangian dual ascent on the coupling constraint. problems are not
// mutated; each problem's own Budget should be ≤ budget (callers
// typically set it to budget, letting one tenant take everything when
// the dual prices it that way).
func DualDecompose(problems []*Problem, budget int64, opts DualOptions) *DualSolution {
	n := len(problems)
	ds := &DualSolution{
		Chosen:     make([][]int, n),
		Objectives: make([]float64, n),
		Sizes:      make([]int64, n),
		Proven:     true,
		LowerBound: math.Inf(-1),
	}
	if n == 0 {
		ds.LowerBound, ds.Gap = 0, 0
		return ds
	}
	maxIters := opts.MaxIters
	if maxIters == 0 {
		maxIters = 24
	}

	warm := make([][]int, n)
	for i := range warm {
		if i < len(opts.WarmStarts) {
			warm[i] = opts.WarmStarts[i]
		}
	}

	type probe struct {
		lambda float64
		sols   []*Solution
		obj    float64
		size   int64
		proven bool
	}
	eval := func(lambda float64) *probe {
		pr := &probe{lambda: lambda, sols: make([]*Solution, n), proven: true}
		par.ForEach(n, opts.Workers, func(i int) {
			so := opts.Solve
			so.WarmStart = warm[i]
			so.Progress = nil // node-level sinks would race across tenants
			pr.sols[i] = SolvePenalized(problems[i], lambda, so)
		})
		// Reductions and warm-chain updates in index order: deterministic
		// at any worker count.
		for i, s := range pr.sols {
			pr.obj += s.Objective
			pr.size += s.Size
			pr.proven = pr.proven && s.Proven
			ds.Nodes += s.Nodes
			warm[i] = s.Chosen
		}
		ds.SubSolves += n
		ds.Iters++
		if pr.proven {
			if L := pr.obj + lambda*float64(pr.size-budget); L > ds.LowerBound {
				ds.LowerBound = L
			}
		} else {
			ds.Proven = false
		}
		if opts.Progress != nil {
			bound := ds.LowerBound
			if math.IsInf(bound, -1) {
				bound = 0
			}
			opts.Progress(ProgressSample{
				Phase: "dual", Nodes: ds.Nodes, Subtree: ds.Iters - 1, Bound: bound,
			})
		}
		return pr
	}

	var bestFeasible *probe
	feasible := func(pr *probe) {
		if pr.size <= budget && (bestFeasible == nil || pr.obj < bestFeasible.obj-1e-12) {
			bestFeasible = pr
		}
	}

	// Cheap λ=0 screen: the union of every beneficial candidate (best per
	// fact group) is subproblem-feasible and attains an objective ≤ any
	// λ=0 exact solve would beat only marginally — so its pooled size
	// bounds the unpenalized selection's appetite from above. When even
	// that fits the shared budget, one exact λ=0 probe settles the whole
	// instance (gap 0). When it does not, the budget is contended and the
	// exact λ=0 solve — the one *slack*-knapsack solve of the ascent, and
	// empirically its single most expensive probe — is skipped entirely:
	// the take-all line obj + λ·(size − B) is still a valid upper line on
	// L (it is one admissible choice of the inner minimization), which is
	// all the secant and its termination test need from the lo end.
	takeAll := &probe{}
	for _, p := range problems {
		chosen := takeAllBeneficial(p)
		takeAll.obj += p.Objective(chosen)
		takeAll.size += p.SizeOf(chosen)
	}
	if takeAll.size <= budget {
		p0 := eval(0)
		feasible(p0)
		takeAll = p0
	}
	if takeAll.size > budget {
		// Bracket: double λ from an average-benefit-density seed until the
		// pooled selection shrinks under budget. The λ sequence depends
		// only on prior probe results, so the whole ascent is
		// deterministic.
		baseTotal := 0.0
		for _, p := range problems {
			for q := 0; q < p.numQueries(); q++ {
				baseTotal += p.weight(q) * p.Base[q]
			}
		}
		hi := (baseTotal - takeAll.obj) / float64(budget)
		if !(hi > 0) {
			hi = 1 / float64(budget)
		}
		lo := 0.0
		prLo, prHi := takeAll, (*probe)(nil)
		for ds.Iters < maxIters {
			pr := eval(hi)
			feasible(pr)
			if pr.size <= budget {
				prHi = pr
				break
			}
			lo, prLo = hi, pr
			hi *= 2
		}
		// Close the bracket by secant steps on the dual's piecewise-linear
		// structure: each probed set S contributes the line
		// obj(S) + λ·(size(S) − B), and L is the lower envelope of those
		// lines. The next λ is the intersection of the lo and hi lines —
		// the maximizer of their two-line envelope — falling back to plain
		// bisection when the intersection degenerates. When a probe at λ*
		// discovers no line below that envelope, the envelope is exact at
		// λ*, the dual is maximized, and the ascent stops instead of
		// spending its full iteration budget (Kelley's cutting-plane
		// argument; bisection alone would burn maxIters probes for the
		// same answer).
		for prHi != nil && ds.Iters < maxIters {
			mid := 0.0
			if d := float64(prLo.size - prHi.size); d > 0 {
				mid = (prHi.obj - prLo.obj) / d
			}
			if !(mid > lo && mid < hi) {
				mid = (lo + hi) / 2
			}
			pr := eval(mid)
			feasible(pr)
			envLo := prLo.obj + mid*float64(prLo.size-budget)
			envHi := prHi.obj + mid*float64(prHi.size-budget)
			env := math.Min(envLo, envHi)
			Lmid := pr.obj + mid*float64(pr.size-budget)
			if pr.size > budget {
				lo, prLo = mid, pr
			} else {
				hi, prHi = mid, pr
			}
			if pr.proven && Lmid >= env-1e-9*math.Max(1, math.Abs(env)) {
				break
			}
		}
	}

	if bestFeasible == nil {
		// Defensive: unreachable bracketing failure (at large λ every
		// subproblem selects ∅, which fits). Fall back to empty designs.
		bestFeasible = &probe{sols: make([]*Solution, n)}
		for i := range bestFeasible.sols {
			bestFeasible.sols[i] = &Solution{PerQuery: make([]int, problems[i].numQueries())}
		}
	}
	ds.Lambda = bestFeasible.lambda
	for i, s := range bestFeasible.sols {
		ds.Chosen[i] = append([]int(nil), s.Chosen...)
	}
	dualRepair(problems, budget, ds)

	ds.Objective, ds.TotalSize = 0, 0
	for i, p := range problems {
		ds.Objectives[i] = p.Objective(ds.Chosen[i])
		ds.Sizes[i] = p.SizeOf(ds.Chosen[i])
		ds.Objective += ds.Objectives[i]
		ds.TotalSize += ds.Sizes[i]
	}
	if ds.Gap = ds.Objective - ds.LowerBound; ds.Gap < 0 || math.IsInf(ds.LowerBound, -1) {
		ds.Gap = 0
	}
	if opts.Progress != nil {
		bound := ds.LowerBound
		if math.IsInf(bound, -1) {
			bound = 0
		}
		opts.Progress(ProgressSample{
			Phase: "final", Nodes: ds.Nodes, Subtree: -1,
			Incumbent: ds.Objective, Bound: bound,
		})
	}
	return ds
}

// dualRepair greedily fills the global slack left by the dual's feasible
// probe: repeatedly add the cross-tenant candidate with the best
// marginal-gain density that fits the remaining global (and per-tenant)
// budget and the fact-group rule. Ties break on higher gain, then lower
// tenant index, then lower candidate index — fully deterministic. Only
// improving moves are taken, so the primal objective only decreases.
func dualRepair(problems []*Problem, budget int64, ds *DualSolution) {
	n := len(problems)
	var total int64
	times := make([][]float64, n)
	inSet := make([][]bool, n)
	factUsed := make([]map[int]bool, n)
	for i, p := range problems {
		times[i] = append([]float64(nil), p.Base...)
		inSet[i] = make([]bool, len(p.Cands))
		factUsed[i] = map[int]bool{}
		for _, m := range ds.Chosen[i] {
			inSet[i][m] = true
			total += p.Cands[m].Size
			if g := p.Cands[m].FactGroup; g > 0 {
				factUsed[i][g] = true
			}
			for q := range times[i] {
				if t := p.Cands[m].Times[q]; t < times[i][q] {
					times[i][q] = t
				}
			}
		}
	}
	for {
		bi, bm, bGain, bDens := -1, -1, 0.0, 0.0
		for i, p := range problems {
			used := p.SizeOf(ds.Chosen[i])
			for m := range p.Cands {
				if inSet[i][m] {
					continue
				}
				sz := p.Cands[m].Size
				if total+sz > budget || used+sz > p.Budget {
					continue
				}
				if g := p.Cands[m].FactGroup; g > 0 && factUsed[i][g] {
					continue
				}
				gain := 0.0
				for q, cur := range times[i] {
					if t := p.Cands[m].Times[q]; t < cur {
						gain += p.weight(q) * (cur - t)
					}
				}
				if gain <= 1e-12 {
					continue
				}
				dens := gain / float64(max64(sz, 1))
				if dens > bDens+1e-12 || (dens > bDens-1e-12 && gain > bGain+1e-12) {
					bi, bm, bGain, bDens = i, m, gain, dens
				}
			}
		}
		if bi < 0 {
			return
		}
		inSet[bi][bm] = true
		ds.Chosen[bi] = insertSorted(ds.Chosen[bi], bm)
		total += problems[bi].Cands[bm].Size
		if g := problems[bi].Cands[bm].FactGroup; g > 0 {
			factUsed[bi][g] = true
		}
		for q := range times[bi] {
			if t := problems[bi].Cands[bm].Times[q]; t < times[bi][q] {
				times[bi][q] = t
			}
		}
	}
}

// takeAllBeneficial greedily selects, in solo-benefit-density order
// (ties: lower index), every candidate that improves at least one query
// and still fits the problem's own budget and fact-group rule. The
// result is subproblem-feasible — so obj + λ·size over it is a valid
// upper line on the inner minimization — and, when the problem's own
// budget is slack, it is the union of everything the tenant could ever
// want: DualDecompose's λ=0 appetite screen.
func takeAllBeneficial(p *Problem) []int {
	solo, dens := soloBenefit(p), densities(p)
	var idx []int
	for m := range p.Cands {
		if p.Cands[m].Size <= p.Budget && solo[m] > 0 {
			idx = append(idx, m)
		}
	}
	sort.SliceStable(idx, func(i, j int) bool { return dens[idx[i]] > dens[idx[j]] })
	var chosen []int
	var used int64
	factUsed := map[int]bool{}
	for _, m := range idx {
		c := &p.Cands[m]
		if used+c.Size > p.Budget {
			continue
		}
		if c.FactGroup > 0 && factUsed[c.FactGroup] {
			continue
		}
		chosen = append(chosen, m)
		used += c.Size
		if c.FactGroup > 0 {
			factUsed[c.FactGroup] = true
		}
	}
	sort.Ints(chosen)
	return chosen
}

func insertSorted(s []int, v int) []int {
	s = append(s, v)
	for i := len(s) - 1; i > 0 && s[i-1] > s[i]; i-- {
		s[i-1], s[i] = s[i], s[i-1]
	}
	return s
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Pooled is the monolithic block-diagonal instance over N problems: the
// exact-solve fallback of the decomposition (and the reference the
// property tests compare against). Queries and candidates concatenate;
// a candidate is Infeasible outside its own tenant's query block;
// fact-group ids are offset per tenant so re-clusterings of different
// tenants' fact tables never exclude each other.
type Pooled struct {
	P        *Problem
	queryOff []int
	candOff  []int
}

// Pool builds the pooled instance under the shared budget.
func Pool(problems []*Problem, budget int64) *Pooled {
	nQ, nC := 0, 0
	pl := &Pooled{queryOff: make([]int, len(problems)), candOff: make([]int, len(problems))}
	for i, p := range problems {
		pl.queryOff[i], pl.candOff[i] = nQ, nC
		nQ += p.numQueries()
		nC += len(p.Cands)
	}
	pp := &Problem{
		Cands:   make([]Candidate, 0, nC),
		Base:    make([]float64, 0, nQ),
		Weights: make([]float64, 0, nQ),
		Budget:  budget,
	}
	factOff := 0
	for i, p := range problems {
		maxGroup := 0
		for q := 0; q < p.numQueries(); q++ {
			pp.Base = append(pp.Base, p.Base[q])
			pp.Weights = append(pp.Weights, p.weight(q))
		}
		for _, c := range p.Cands {
			times := make([]float64, nQ)
			for q := range times {
				times[q] = Infeasible
			}
			copy(times[pl.queryOff[i]:], c.Times)
			fg := 0
			if c.FactGroup > 0 {
				fg = factOff + c.FactGroup
				if c.FactGroup > maxGroup {
					maxGroup = c.FactGroup
				}
			}
			pp.Cands = append(pp.Cands, Candidate{
				Name:      fmt.Sprintf("t%d/%s", i, c.Name),
				Size:      c.Size,
				Times:     times,
				FactGroup: fg,
				Ref:       c.Ref,
			})
		}
		factOff += maxGroup
	}
	pl.P = pp
	return pl
}

// Lift maps per-problem candidate indexes into pooled indexes (the warm-
// start direction).
func (pl *Pooled) Lift(chosen [][]int) []int {
	var out []int
	for i, c := range chosen {
		if i >= len(pl.candOff) {
			break
		}
		for _, m := range c {
			out = append(out, pl.candOff[i]+m)
		}
	}
	return out
}

// Split maps a pooled solution's chosen indexes back to per-problem
// candidate indexes, ascending within each problem.
func (pl *Pooled) Split(sol *Solution) [][]int {
	out := make([][]int, len(pl.candOff))
	for _, m := range sol.Chosen {
		i := 0
		for i+1 < len(pl.candOff) && m >= pl.candOff[i+1] {
			i++
		}
		out[i] = insertSorted(out[i], m-pl.candOff[i])
	}
	return out
}
