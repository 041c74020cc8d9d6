package ilp

import (
	"coradd/internal/par"
)

// subtree is one frontier node of the parallel decomposition: the full
// search state of a depth-d prefix whose descendants form an independent
// subproblem.
type subtree struct {
	usedSize  int64
	bestTimes []float64
	cur       float64
	chosen    []int
	factUsed  map[int]bool
	decided   []int8
}

// taskResult is one subtree's outcome.
type taskResult struct {
	obj        float64
	chosen     []int
	nodes      int
	pruned     int
	incumbents int
	proven     bool
}

// solveParallel runs the deterministic parallel subtree search: the tree
// is split at a fixed frontier depth by a sequential enumeration pass
// (identical, node for node, to the upper levels of a sequential search
// pruned against the greedy incumbent), and the resulting independent
// subproblems are solved on the worker pool.
//
// Determinism: par.Ordered hands subtree i the incumbent assembled from
// the enumeration pass plus the results of subtrees 0..i−W (W = worker
// count) — a fixed prefix, not a timing-dependent read of whatever
// siblings have finished. Results are merged in fixed subtree order with
// the same strict-improvement rule the sequential search applies, so for
// a fixed (problem, Workers) pair Chosen, Objective and Nodes are
// bit-identical run to run, and Chosen/Objective match the sequential
// mode (node counts differ: later subtrees prune against a slightly
// staler incumbent than a sequential scan would have).
func (s *solver) solveParallel(workers int) {
	depth := 1
	for (1<<depth) < 4*workers && depth < 12 {
		depth++
	}
	if depth > len(s.order)/2 {
		depth = len(s.order) / 2
	}
	bestTimes := make([]float64, s.nQ)
	copy(bestTimes, s.p.Base)
	if depth < 1 {
		s.dfs(0, 0, bestTimes, s.objectiveOf(bestTimes), -1, nil, map[int]bool{})
		return
	}

	// Enumeration pass: a depth-limited sequential search that captures
	// every surviving depth-d prefix (dfs snapshots state and returns when
	// it reaches s.frontier).
	s.frontier = depth
	s.dfs(0, 0, bestTimes, s.objectiveOf(bestTimes), -1, nil, map[int]bool{})
	s.frontier = -1
	leaves := s.leaves
	s.leaves = nil
	if len(leaves) == 0 {
		return // the enumeration pruned everything; it was the full search
	}

	results := par.Ordered(len(leaves), workers, s.bestObj,
		func(r taskResult) float64 { return r.obj },
		func(i int, inc float64) taskResult {
			t := s.task(inc)
			leaf := &leaves[i]
			copy(t.decided, leaf.decided)
			t.dfs(depth, leaf.usedSize, leaf.bestTimes, leaf.cur, -1, leaf.chosen, leaf.factUsed)
			return taskResult{obj: t.bestObj, chosen: t.bestChosen, nodes: t.nodes, pruned: t.pruned, incumbents: t.incumbents, proven: t.proven}
		})

	// Merge in fixed subtree order with the sequential improvement rule.
	// Progress samples come from here, not the workers: the merge runs on
	// the orchestrating goroutine in subtree order, so the emitted
	// sequence is deterministic for a fixed Workers setting.
	for i := range results {
		s.nodes += results[i].nodes
		s.pruned += results[i].pruned
		s.incumbents += results[i].incumbents
		if !results[i].proven {
			s.proven = false
		}
		if results[i].chosen != nil && results[i].obj < s.bestObj-1e-12 {
			s.bestObj = results[i].obj
			s.bestChosen = results[i].chosen
		}
		s.emit("subtree", i)
	}
}

// task clones the solver for one subtree: precomputed tables are shared
// read-only, mutable search state is fresh.
func (s *solver) task(incumbent float64) *solver {
	t := &solver{
		p: s.p, order: s.order, perQ: s.perQ, nQ: s.nQ,
		maxNodes: s.maxNodes, deadline: s.deadline, interrupt: s.interrupt,
		perQTimes: s.perQTimes, weights: s.weights, sizes: s.sizes,
		lag: s.lag, penalty: s.penalty,
		frontier: -1,
		bestObj:  incumbent,
		proven:   true,
	}
	t.decided = make([]int8, len(s.p.Cands))
	t.pickBuf = make([][]int32, len(s.p.Cands)+1)
	t.contribBuf = make([][]float64, len(s.p.Cands)+1)
	t.lagPickBuf = make([][]int32, len(s.p.Cands)+1)
	t.lagContribBuf = make([][]float64, len(s.p.Cands)+1)
	t.timesBuf = make([][]float64, len(s.p.Cands)+1)
	return t
}
