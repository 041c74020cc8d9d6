package ilp

import (
	"math"
	"sort"
	"time"
)

// Solution is the outcome of Solve or Greedy.
type Solution struct {
	// Chosen are indexes into Problem.Cands, in discovery order
	// (preprocessing-fixed candidates first, then the incumbent's or the
	// search's inclusion order).
	Chosen []int
	// Objective is the total expected workload runtime of the design.
	Objective float64
	// Size is the total space used.
	Size int64
	// Proven reports whether optimality was proven (false when the node or
	// time limit cut the search short).
	Proven bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Pruned counts nodes cut by the admissible bound; IncumbentUpdates
	// counts strict improvements adopted during the search (0 when the
	// greedy/warm incumbent was already optimal). Both are search-shape
	// diagnostics exported to /metrics; in parallel mode they sum across
	// subtrees the same way Nodes does.
	Pruned           int
	IncumbentUpdates int
	// PerQuery[q] is the index of the chosen candidate serving q, or -1
	// when q runs on the base design.
	PerQuery []int
}

// SolveOptions tunes the exact solver.
type SolveOptions struct {
	// MaxNodes caps search nodes; 0 means 5,000,000, negative means
	// unlimited (the CORADD_SOLVER_MAXNODES escape hatch the experiment
	// drivers plumb through for off-runner proven solves). In parallel
	// mode the cap applies per subtree, so the total may exceed it.
	MaxNodes int
	// TimeLimit caps wall time; 0 means none. A triggered time limit is the
	// one intentionally nondeterministic cutoff (Proven reports it).
	TimeLimit time.Duration
	// Interrupt, when non-nil, is polled once per explored node with the
	// current node count and aborts the search (keeping the incumbent,
	// Proven=false) when it returns true — the deterministic analogue of
	// TimeLimit. internal/fault injects solve deadlines through it: a
	// node-count predicate fires at the identical node on every replay,
	// where a wall-clock limit would not. In parallel mode the predicate
	// sees per-subtree node counts (matching MaxNodes semantics) and must
	// be safe for concurrent calls.
	Interrupt func(nodes int) bool
	// Workers selects deterministic parallel subtree search when > 1; 0 or
	// 1 keeps the sequential depth-first search (the 1-CPU default). For a
	// fixed (problem, Workers) pair results are bit-identical run to run,
	// and Chosen/Objective match sequential mode.
	Workers int
	// WarmStart seeds the search with a known-good solution: indexes into
	// Problem.Cands (an incumbent design's objects matched into this
	// problem, the adaptive-redesign entry point). The subset is clipped
	// to feasibility, mapped through preprocessing, optionally polished,
	// and adopted as the initial incumbent when it beats the greedy one —
	// so a warm solve starts with a bound at least as tight as a cold
	// solve's and explores no more nodes. Infeasible or unknown entries
	// are skipped; an empty slice is a cold solve.
	WarmStart []int
	// NoPreprocess disables the budget-aware reduction pass (dominance.go).
	NoPreprocess bool
	// NoLagrangian disables the Lagrangian budget bound (lagrange.go).
	NoLagrangian bool
	// NoPolish disables the local-search polish of the greedy incumbent.
	NoPolish bool
	// Progress, when non-nil, receives deterministic search snapshots:
	// one "root" sample before the first node, a "search" sample every
	// ProgressEvery nodes, one per incumbent improvement and per merged
	// parallel subtree, and a "final" sample. Emission is keyed to node
	// ordinals only, so the sequence is bit-identical run to run at a
	// fixed Workers setting, and a nil sink changes nothing about the
	// search (see ProgressSample). Samples arrive on the calling
	// goroutine — worker tasks never emit.
	Progress func(ProgressSample)
	// ProgressEvery is the "search"-sample node cadence; 0 means
	// DefaultProgressEvery. Ignored without Progress.
	ProgressEvery int
}

// IsZero reports whether every option is at its default (the pre-warm-
// start struct equality check against SolveOptions{}, which a slice field
// no longer permits).
func (o *SolveOptions) IsZero() bool {
	return o.MaxNodes == 0 && o.TimeLimit == 0 && o.Workers == 0 && o.Interrupt == nil &&
		len(o.WarmStart) == 0 && !o.NoPreprocess && !o.NoLagrangian && !o.NoPolish &&
		o.Progress == nil && o.ProgressEvery == 0
}

// Solve finds the optimal candidate subset by depth-first branch-and-bound.
//
// Pipeline: a preprocessing pass first shrinks the problem — candidates
// that cannot fit, help no query, or are dominated are removed, and
// candidates that always fit are fixed (dominance.go). The search then
// runs on the reduced problem and the solution is lifted back to original
// candidate indexes.
//
// Ordering: candidates are considered in decreasing benefit density
// (workload-runtime saved per byte), so good incumbents appear early.
// Bound: at a node, the larger of two admissible bounds. The greedy bound
// lets every query use the best of {already chosen} ∪ {undecided
// candidates that individually fit the remaining budget}, relaxing the
// budget to per-candidate feasibility and dropping the fact-group rule.
// The Lagrangian bound dualizes the space budget with a root-optimized
// multiplier (lagrange.go) and dominates the greedy bound when the budget
// constraint is what binds. Both are maintained incrementally along
// exclude chains, bit-identically to full recomputation.
func Solve(p *Problem, opts SolveOptions) *Solution {
	red, s := search(p, 0, opts)
	return red.lift(p, s)
}

// search runs one branch-and-bound — Solve's (lambda = 0) or
// SolvePenalized's (lambda > 0, which differs only in its reduction,
// incumbent seed and bound table; see SolvePenalized) — and returns the
// finished solver together with the reduction it searched.
func search(p *Problem, lambda float64, opts SolveOptions) (*reduction, *solver) {
	var red *reduction
	if lambda > 0 {
		red = reducePenalized(p, lambda)
	} else {
		red = reduce(p, opts)
	}
	rp := red.p

	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 5_000_000
	} else if maxNodes < 0 {
		maxNodes = math.MaxInt
	}
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}
	order := orderByDensity(rp)
	s := newSolver(rp, order, maxNodes, deadline)
	s.interrupt = opts.Interrupt
	if lambda > 0 {
		s.penalty = lambda
		s.bestChosen, s.bestObj = penalizedSeed(rp, order, lambda, red.toReduced(opts.WarmStart))
		s.lag = newPenaltyLagrangian(rp, s, lambda)
	} else {
		s.bestChosen, s.bestObj = red.incumbent(opts)
		if !opts.NoLagrangian {
			s.lag = newLagrangian(rp, s, s.bestObj)
		}
	}
	if opts.Progress != nil {
		// Arm the sink. The root bound is the greedy relaxation at the
		// empty prefix — computed once (constant across the solve's
		// samples) via boundFull, never through bound(), whose lagWins
		// accounting would perturb the deterministic Lagrangian-disarm
		// decision and break byte-identity with an unobserved solve.
		s.progress = opts.Progress
		s.progressEvery = opts.ProgressEvery
		if s.progressEvery <= 0 {
			s.progressEvery = DefaultProgressEvery
		}
		rootTimes := make([]float64, s.nQ)
		copy(rootTimes, rp.Base)
		s.row(0)
		s.rootBound = s.boundFull(rootTimes, 0, 0)
		s.emit("root", -1)
	}

	if opts.Workers > 1 {
		s.solveParallel(opts.Workers)
	} else {
		bestTimes := make([]float64, s.nQ)
		copy(bestTimes, rp.Base)
		s.dfs(0, 0, bestTimes, s.objectiveOf(bestTimes), -1, nil, map[int]bool{})
	}
	s.emit("final", -1)
	return red, s
}

// incumbent seeds Solve's search: greedy on the reduced problem, optionally
// polished by local search — the cheapest node-count lever the search has
// — and replaced by the (polished) warm start when that is better, so
// warm-solve pruning dominates cold-solve pruning.
func (r *reduction) incumbent(opts SolveOptions) ([]int, float64) {
	inc := Greedy(r.p, 2, len(r.p.Cands))
	incChosen, incObj := append([]int(nil), inc.Chosen...), inc.Objective
	if !opts.NoPolish {
		incChosen, incObj = polish(r.p, incChosen, incObj)
	}
	if len(opts.WarmStart) > 0 {
		if wChosen, wObj, ok := r.warmIncumbent(opts.WarmStart); ok {
			if !opts.NoPolish {
				wChosen, wObj = polish(r.p, wChosen, wObj)
			}
			if wObj < incObj {
				incChosen, incObj = wChosen, wObj
			}
		}
	}
	return incChosen, incObj
}

// solver carries the precomputed tables (shared, read-only after
// construction) and the mutable search state of one depth-first search.
// Parallel subtree search clones the mutable part per subtree (parallel.go).
type solver struct {
	p         *Problem
	order     []int
	perQ      [][]int
	nQ        int
	maxNodes  int
	deadline  time.Time
	interrupt func(nodes int) bool

	// perQTimes[q][r] is the runtime of candidate perQ[q][r] on q; weights
	// and sizes are the dense forms of Problem.weight and Candidate.Size.
	perQTimes [][]float64
	weights   []float64
	sizes     []int64
	// lag is the Lagrangian budget bound, nil when disabled or when the
	// root multiplier degenerates to zero (identical to the greedy bound).
	lag *lagrangian
	// penalty is SolvePenalized's λ (0 for Solve): each include adds
	// λ·size to the objective, lag is the fixed-λ bound table and the
	// only bound, and it is never disarmed.
	penalty float64

	// Mutable search state.
	decided []int8 // 0 undecided, 1 included, 2 excluded
	// pickBuf[d][q] / contribBuf[d][q] hold, for the node at depth d, the
	// candidate the greedy bound let q use (-1 = none) and q's weighted
	// bound contribution; lagPickBuf/lagContribBuf are the Lagrangian
	// bound's equivalents (lagrange.go). Rows are allocated on first use:
	// shallow searches (the common case once the bound closes at the
	// root) never touch most depths.
	pickBuf       [][]int32
	contribBuf    [][]float64
	lagPickBuf    [][]int32
	lagContribBuf [][]float64
	// timesBuf[d] backs the include branch's new times vector at depth d,
	// so the hot path allocates each depth's buffer once per search.
	timesBuf [][]float64

	nodes      int
	pruned     int
	incumbents int
	bestObj    float64
	bestChosen []int
	proven     bool
	// progress/progressEvery/rootBound back the optional progress sink
	// (progress.go). Tasks never inherit progress: only the
	// orchestrating goroutine emits, keeping samples ordered and the
	// sink free of synchronization requirements.
	progress      func(ProgressSample)
	progressEvery int
	rootBound     float64
	// lagWins counts nodes the Lagrangian bound pruned that the greedy
	// bound alone would not have; at the lagProbeNodes checkpoint a
	// solver that saw too few wins disarms the Lagrangian for the rest of
	// its search (the checkpoint is a fixed node ordinal, so the decision
	// is deterministic).
	lagWins int

	// frontier/leaves drive the parallel decomposition (parallel.go): when
	// frontier ≥ 0, dfs snapshots state at that depth instead of
	// descending.
	frontier int
	leaves   []subtree
}

// newSolver precomputes the dense lookup tables for p.
func newSolver(p *Problem, order []int, maxNodes int, deadline time.Time) *solver {
	nQ := p.numQueries()
	s := &solver{
		p: p, order: order, nQ: nQ,
		maxNodes: maxNodes, deadline: deadline,
		proven: true, frontier: -1,
	}
	s.perQ = sortedPerQuery(p)
	s.perQTimes = make([][]float64, nQ)
	for q := range s.perQ {
		ts := make([]float64, len(s.perQ[q]))
		for r, m := range s.perQ[q] {
			ts[r] = p.Cands[m].Times[q]
		}
		s.perQTimes[q] = ts
	}
	s.weights = make([]float64, nQ)
	for q := 0; q < nQ; q++ {
		s.weights[q] = p.weight(q)
	}
	s.sizes = make([]int64, len(p.Cands))
	for m := range p.Cands {
		s.sizes[m] = p.Cands[m].Size
	}
	s.decided = make([]int8, len(p.Cands))
	s.pickBuf = make([][]int32, len(p.Cands)+1)
	s.contribBuf = make([][]float64, len(p.Cands)+1)
	s.lagPickBuf = make([][]int32, len(p.Cands)+1)
	s.lagContribBuf = make([][]float64, len(p.Cands)+1)
	s.timesBuf = make([][]float64, len(p.Cands)+1)
	return s
}

// lagProbeNodes is the node ordinal at which a solver reviews whether the
// Lagrangian bound is earning its per-node cost.
const lagProbeNodes = 16384

// timesRow returns the include branch's times buffer for depth d.
func (s *solver) timesRow(d int) []float64 {
	if s.timesBuf[d] == nil {
		s.timesBuf[d] = make([]float64, s.nQ)
	}
	return s.timesBuf[d]
}

// row ensures the per-depth scratch buffers for depth d exist.
func (s *solver) row(d int) {
	if s.pickBuf[d] == nil {
		s.pickBuf[d] = make([]int32, s.nQ)
		s.contribBuf[d] = make([]float64, s.nQ)
	}
	if s.lag != nil && s.lagPickBuf[d] == nil {
		s.lagPickBuf[d] = make([]int32, s.nQ)
		s.lagContribBuf[d] = make([]float64, s.nQ)
	}
}

// objectiveOf sums the weighted per-query times in query order (the one
// summation order used everywhere, so repeated evaluations are bit-equal).
func (s *solver) objectiveOf(bestTimes []float64) float64 {
	cur := 0.0
	for q, t := range bestTimes {
		cur += s.weights[q] * t
	}
	return cur
}

// dfs explores decisions for order[pos:]. bestTimes reflects included
// candidates with cur their weighted objective; usedSize their total size;
// chosen their indexes. cur is recomputed only when the chosen set changes
// (the exclude branch reuses the parent's value, which is identical).
// excluded names the candidate the parent just excluded (-1 after an
// include or at a subtree root), enabling the incremental bound.
func (s *solver) dfs(pos int, usedSize int64, bestTimes []float64, cur float64, excluded int, chosen []int, factUsed map[int]bool) {
	if pos == s.frontier {
		fu := make(map[int]bool, len(factUsed))
		for g := range factUsed {
			fu[g] = true
		}
		s.leaves = append(s.leaves, subtree{
			usedSize:  usedSize,
			bestTimes: append([]float64(nil), bestTimes...),
			cur:       cur,
			chosen:    append([]int(nil), chosen...),
			factUsed:  fu,
			decided:   append([]int8(nil), s.decided...),
		})
		return
	}
	s.nodes++
	if s.progress != nil && s.nodes%s.progressEvery == 0 {
		s.emit("search", -1)
	}
	if s.nodes > s.maxNodes || (!s.deadline.IsZero() && s.nodes%1024 == 0 && time.Now().After(s.deadline)) ||
		(s.interrupt != nil && s.interrupt(s.nodes)) {
		s.proven = false
		return
	}
	if s.lag != nil && s.nodes == lagProbeNodes && s.penalty == 0 && s.lagWins*100 < s.nodes {
		s.lag = nil // pruning <1% of nodes: not worth its per-node cost
	}
	if cur < s.bestObj-1e-12 {
		s.bestObj = cur
		s.bestChosen = append([]int(nil), chosen...)
		s.incumbents++
		s.emit("incumbent", -1)
	}
	if pos >= len(s.order) {
		return
	}
	if s.bound(pos, usedSize, bestTimes, excluded) >= s.bestObj-1e-12 {
		s.pruned++
		return
	}
	m := s.order[pos]
	cand := &s.p.Cands[m]
	fits := usedSize+cand.Size <= s.p.Budget
	factOK := cand.FactGroup <= 0 || !factUsed[cand.FactGroup]

	if fits && factOK {
		// Include m. The new times and their objective are built in one
		// pass — the sum visits queries in the same order as objectiveOf,
		// so the value is bit-identical; the penalty term is +0 in Solve.
		s.decided[m] = 1
		newTimes := s.timesRow(pos + 1)
		improved := false
		newObj := 0.0
		for q, t := range bestTimes {
			if tc := cand.Times[q]; tc < t {
				t = tc
				improved = true
			}
			newTimes[q] = t
			newObj += s.weights[q] * t
		}
		if improved {
			newObj += s.penalty * float64(usedSize+cand.Size)
			if cand.FactGroup > 0 {
				factUsed[cand.FactGroup] = true
			}
			s.dfs(pos+1, usedSize+cand.Size, newTimes, newObj, -1, append(chosen, m), factUsed)
			if cand.FactGroup > 0 {
				delete(factUsed, cand.FactGroup)
			}
		}
		s.decided[m] = 0
	}
	// Exclude m.
	s.decided[m] = 2
	s.dfs(pos+1, usedSize, bestTimes, cur, m, chosen, factUsed)
	s.decided[m] = 0
}

// bound computes the node's admissible bound: the greedy relaxation, or
// the larger of it and the Lagrangian bound when the latter is armed; in
// a penalized search, where the greedy relaxation ignores the penalty,
// the fixed-λ Lagrangian bound alone. A
// full scan runs after an include (times and budget both changed); an
// incremental update over the parent's per-query picks runs after an
// exclude (only queries whose pick was just excluded can change) — both
// paths produce bit-identical totals, for each bound.
func (s *solver) bound(pos int, usedSize int64, bestTimes []float64, excluded int) float64 {
	s.row(pos)
	full := excluded < 0 || pos == 0
	if s.penalty > 0 {
		if full {
			return s.lagBoundFull(bestTimes, usedSize, pos)
		}
		return s.lagBoundExcluded(bestTimes, usedSize, pos, excluded)
	}
	var b float64
	if full {
		b = s.boundFull(bestTimes, usedSize, pos)
		if s.lag != nil {
			if lb := s.lagBoundFull(bestTimes, usedSize, pos); lb > b {
				if lb >= s.bestObj-1e-12 && b < s.bestObj-1e-12 {
					s.lagWins++ // a prune the greedy bound alone would miss
				}
				b = lb
			}
		}
	} else {
		b = s.boundExcluded(bestTimes, usedSize, pos, excluded)
		if s.lag != nil {
			if lb := s.lagBoundExcluded(bestTimes, usedSize, pos, excluded); lb > b {
				if lb >= s.bestObj-1e-12 && b < s.bestObj-1e-12 {
					s.lagWins++
				}
				b = lb
			}
		}
	}
	return b
}

// boundQuery scans query q's ascending candidate list for the first
// undecided-or-included entry that fits the remaining budget and improves
// on cur, returning the optimistic time and the candidate used (-1: none).
func (s *solver) boundQuery(q int, cur float64, remaining int64) (float64, int32) {
	best, pick := cur, int32(-1)
	ts := s.perQTimes[q]
	for r, m := range s.perQ[q] {
		t := ts[r]
		if t >= best {
			break // sorted ascending; nothing better follows
		}
		if s.decided[m] == 2 || s.sizes[m] > remaining {
			continue
		}
		best, pick = t, int32(m)
		break
	}
	return best, pick
}

// boundFull computes the optimistic objective at depth pos from scratch,
// recording per-query picks and contributions for incremental children.
func (s *solver) boundFull(bestTimes []float64, usedSize int64, pos int) float64 {
	remaining := s.p.Budget - usedSize
	picks, contrib := s.pickBuf[pos], s.contribBuf[pos]
	total := 0.0
	for q, cur := range bestTimes {
		best, pick := s.boundQuery(q, cur, remaining)
		c := s.weights[q] * best
		picks[q], contrib[q] = pick, c
		total += c
	}
	return total
}

// boundExcluded updates the parent's bound after excluding candidate ex:
// with times and budget unchanged, a query's optimistic pick can only
// change if it was ex. Unaffected contributions are copied verbatim and the
// total is re-summed in query order, so the result equals boundFull's bit
// for bit.
func (s *solver) boundExcluded(bestTimes []float64, usedSize int64, pos, ex int) float64 {
	remaining := s.p.Budget - usedSize
	parentPicks, parentContrib := s.pickBuf[pos-1], s.contribBuf[pos-1]
	picks, contrib := s.pickBuf[pos], s.contribBuf[pos]
	copy(picks, parentPicks)
	copy(contrib, parentContrib)
	ex32 := int32(ex)
	total := 0.0
	for q := range contrib {
		if picks[q] == ex32 {
			best, pick := s.boundQuery(q, bestTimes[q], remaining)
			picks[q], contrib[q] = pick, s.weights[q]*best
		}
		total += contrib[q]
	}
	return total
}

// soloBenefit returns, per candidate, Σ_q w_q·max(0, base_q − t_q): the
// most including it alone can save. Per query a set saves no more than its
// best member, so no candidate ever lowers an objective by more.
func soloBenefit(p *Problem) []float64 {
	out := make([]float64, len(p.Cands))
	for m := range p.Cands {
		b := 0.0
		for q := 0; q < p.numQueries(); q++ {
			if t := p.Cands[m].Times[q]; t < p.Base[q] {
				b += p.weight(q) * (p.Base[q] - t)
			}
		}
		out[m] = b
	}
	return out
}

// densities returns each candidate's solo benefit per byte (sizes below one
// byte count as one).
func densities(p *Problem) []float64 {
	out := soloBenefit(p)
	for m := range out {
		out[m] /= math.Max(float64(p.Cands[m].Size), 1)
	}
	return out
}

// orderByDensity sorts candidate indexes by benefit density descending,
// ties by index.
func orderByDensity(p *Problem) []int {
	dens := densities(p)
	out := make([]int, len(dens))
	for m := range out {
		out[m] = m
	}
	sort.SliceStable(out, func(i, j int) bool { return dens[out[i]] > dens[out[j]] })
	return out
}

// sortedPerQuery builds, per query, candidate indexes sorted by that
// query's runtime ascending, excluding infeasible pairs — the paper's
// p_{q,r} ordering.
func sortedPerQuery(p *Problem) [][]int {
	nQ := p.numQueries()
	out := make([][]int, nQ)
	for q := 0; q < nQ; q++ {
		var idx []int
		for m := range p.Cands {
			if p.Cands[m].Times[q] < Infeasible {
				idx = append(idx, m)
			}
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return p.Cands[idx[a]].Times[q] < p.Cands[idx[b]].Times[q]
		})
		out[q] = idx
	}
	return out
}

// perQueryRouting maps each query to the chosen candidate serving it.
func perQueryRouting(p *Problem, chosen []int) []int {
	nQ := p.numQueries()
	out := make([]int, nQ)
	for q := 0; q < nQ; q++ {
		out[q] = -1
		best := p.Base[q]
		for _, m := range chosen {
			if t := p.Cands[m].Times[q]; t < best {
				best = t
				out[q] = m
			}
		}
	}
	return out
}
