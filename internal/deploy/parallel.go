package deploy

import (
	"coradd/internal/par"
)

// prefix is one frontier node of the parallel decomposition: the search
// state of a depth-d build prefix whose completions form an independent
// subproblem.
type prefix struct {
	mask  uint64
	times []float64
	rate  float64
	cum   float64
	path  []int
}

// taskResult is one subtree's outcome.
type taskResult struct {
	cum        float64
	order      []int
	nodes      int
	pruned     int
	incumbents int
	proven     bool
}

// solveParallel runs the deterministic parallel subtree search, the same
// decomposition as internal/ilp's: a sequential enumeration pass splits
// the permutation tree at a fixed frontier depth, and par.Ordered solves
// the independent subproblems, subtree i pruning with the greedy seed
// folded with the results of subtrees 0..i−W. Results are merged in fixed
// subtree order with the sequential strict-improvement rule, so for a
// fixed problem the schedule and its cumulative cost are bit-identical
// run to run at any worker count (node counts differ: subtrees prune
// against a staler incumbent, and each carries its own visited-state
// memo).
func (s *sched) solveParallel(workers int, times []float64) {
	// Frontier depth: enough prefix permutations to feed the pool.
	depth, perms := 1, s.n
	for perms < 4*workers && depth < s.n-1 {
		depth++
		perms *= s.n - depth + 1
	}
	if depth >= s.n {
		s.dfs(0, 0, times, s.p.rateOf(times), 0)
		return
	}

	s.frontier = depth
	s.dfs(0, 0, times, s.p.rateOf(times), 0)
	s.frontier = -1
	leaves := s.leaves
	s.leaves = nil
	if len(leaves) == 0 {
		return // the enumeration pruned everything; it was the full search
	}

	results := par.Ordered(len(leaves), workers, s.bestCum,
		func(r taskResult) float64 { return r.cum },
		func(i int, inc float64) taskResult {
			t := s.task(inc)
			leaf := &leaves[i]
			t.path = append(t.path, leaf.path...)
			t.dfs(depth, leaf.mask, leaf.times, leaf.rate, leaf.cum)
			return taskResult{cum: t.bestCum, order: t.bestOrder, nodes: t.nodes, pruned: t.pruned, incumbents: t.incumbents, proven: t.proven}
		})

	// Merge in fixed subtree order with the sequential improvement rule.
	for i := range results {
		s.nodes += results[i].nodes
		s.pruned += results[i].pruned
		s.incumbents += results[i].incumbents
		if !results[i].proven {
			s.proven = false
		}
		if results[i].order != nil && results[i].cum < s.bestCum-1e-12 {
			s.bestCum = results[i].cum
			s.bestOrder = results[i].order
		}
		s.emit("subtree", i)
	}
}

// task clones the scheduler for one subtree: precomputed tables are
// shared read-only, mutable search state (path, buffers, memo) is fresh.
func (s *sched) task(incumbent float64) *sched {
	t := &sched{
		p: s.p, n: s.n, nQ: s.nQ,
		after: s.after, branch: s.branch,
		minBuild: s.minBuild, fullRate: s.fullRate,
		maxNodes: s.maxNodes,
		bestCum:  incumbent,
		proven:   true,
		frontier: -1,
	}
	t.path = make([]int, 0, s.n)
	t.timesBuf = make([][]float64, s.n+1)
	t.deltaBuf = make([]float64, 0, s.n)
	t.buildBuf = make([]float64, 0, s.n)
	t.memo = make(map[uint64]float64)
	return t
}
