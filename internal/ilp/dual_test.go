package ilp

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// brutePenalized enumerates every feasible subset and returns the minimal
// penalized value obj(S) + λ·size(S).
func brutePenalized(p *Problem, lambda float64) float64 {
	n := len(p.Cands)
	best := p.Objective(nil)
	for mask := 1; mask < (1 << n); mask++ {
		var chosen []int
		for m := 0; m < n; m++ {
			if mask&(1<<m) != 0 {
				chosen = append(chosen, m)
			}
		}
		if !p.Feasible(chosen) {
			continue
		}
		if v := p.Objective(chosen) + lambda*float64(p.SizeOf(chosen)); v < best {
			best = v
		}
	}
	return best
}

func TestSolvePenalizedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng, 2+rng.Intn(8), 1+rng.Intn(5))
		lambda := rng.Float64() * 0.2
		want := brutePenalized(p, lambda)
		sol := SolvePenalized(p, lambda, SolveOptions{})
		if !sol.Proven {
			t.Fatalf("trial %d: not proven", trial)
		}
		got := sol.Objective + lambda*float64(sol.Size)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (λ=%.4f): penalized %.6f, brute force %.6f", trial, lambda, got, want)
		}
		if !p.Feasible(sol.Chosen) {
			t.Fatalf("trial %d: infeasible solution", trial)
		}
		if math.Abs(p.Objective(sol.Chosen)-sol.Objective) > 1e-12 {
			t.Fatalf("trial %d: Objective field disagrees with chosen set", trial)
		}
	}
}

// With λ = 0 SolvePenalized delegates to Solve and must agree with it.
func TestSolvePenalizedZeroLambdaMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 2+rng.Intn(8), 1+rng.Intn(5))
		a := SolvePenalized(p, 0, SolveOptions{})
		b := Solve(p, SolveOptions{})
		if math.Abs(a.Objective-b.Objective) > 1e-12 {
			t.Fatalf("trial %d: λ=0 %.6f vs Solve %.6f", trial, a.Objective, b.Objective)
		}
	}
}

// Warm-started penalized solves keep the solution exact.
func TestSolvePenalizedWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 4+rng.Intn(6), 2+rng.Intn(4))
		lambda := 0.01 + rng.Float64()*0.1
		cold := SolvePenalized(p, lambda, SolveOptions{})
		warm := SolvePenalized(p, lambda, SolveOptions{WarmStart: cold.Chosen})
		cv := cold.Objective + lambda*float64(cold.Size)
		wv := warm.Objective + lambda*float64(warm.Size)
		if math.Abs(cv-wv) > 1e-9 {
			t.Fatalf("trial %d: warm %.6f vs cold %.6f", trial, wv, cv)
		}
	}
}

// penalizedCase is one SolvePenalized input of the golden λ > 0 table.
type penalizedCase struct {
	name   string
	p      *Problem
	lambda float64
	opts   SolveOptions
	// warmFrom, when ≥ 0, names an earlier case whose Chosen becomes this
	// case's WarmStart — the dual's warm chain across λ probes.
	warmFrom int
}

// penalizedGoldenCases builds the golden table's inputs: seeded random
// problems (odd ones weighted) × a λ grid × {cold, junk warm start, random
// subset warm start, warm chain from the previous λ}, plus node-capped,
// interrupted and capped warm solves.
func penalizedGoldenCases() []penalizedCase {
	shapes := []struct {
		seed int64
		n, q int
	}{{1, 8, 3}, {2, 12, 5}, {3, 16, 6}, {4, 20, 8}, {5, 24, 10}, {6, 30, 12}}
	var cases []penalizedCase
	for pi, sh := range shapes {
		rng := rand.New(rand.NewSource(sh.seed))
		p := randomProblem(rng, sh.n, sh.q)
		if pi%2 == 1 {
			p.Weights = make([]float64, sh.q)
			for q := range p.Weights {
				p.Weights[q] = 0.5 + rng.Float64()*3
			}
		}
		n := sh.n
		junk := []int{n - 1, -1, 0, n + 2, n / 2, n / 2, 1}
		var subset []int
		for m := 0; m < n; m++ {
			if rng.Float64() < 0.4 {
				subset = append(subset, m)
			}
		}
		name := "p" + strconv.Itoa(pi)
		prevCold := -1
		for _, lambda := range []float64{0.002, 0.01, 0.03, 0.1, 0.4} {
			l := name + "/λ=" + strconv.FormatFloat(lambda, 'g', -1, 64)
			cold := len(cases)
			cases = append(cases,
				penalizedCase{l + "/cold", p, lambda, SolveOptions{}, -1},
				penalizedCase{l + "/warm-junk", p, lambda, SolveOptions{WarmStart: junk}, -1},
				penalizedCase{l + "/warm-subset", p, lambda, SolveOptions{WarmStart: subset}, -1},
			)
			if prevCold >= 0 {
				cases = append(cases, penalizedCase{l + "/warm-chain", p, lambda, SolveOptions{}, prevCold})
			}
			prevCold = cold
		}
		cases = append(cases,
			penalizedCase{name + "/capped", p, 0.002, SolveOptions{MaxNodes: 40}, -1},
			penalizedCase{name + "/interrupted", p, 0.002, SolveOptions{Interrupt: func(nodes int) bool { return nodes >= 25 }}, -1},
			penalizedCase{name + "/capped-warm", p, 0.03, SolveOptions{MaxNodes: 60, WarmStart: subset}, -1},
		)
	}
	return cases
}

// penalizedGolden records the search shape of every penalizedGoldenCases
// solve: Chosen, Objective, Size, Proven, Nodes, Pruned and
// IncumbentUpdates, as produced by the standalone penalized search that
// preceded the shared branch-and-bound engine.
var penalizedGolden = []struct {
	name                string
	chosen              []int
	obj                 float64
	size                int64
	proven              bool
	nodes, pruned, incs int
}{
	{"p0/λ=0.002/cold", []int{0, 4, 7}, 1.6823110149320923, 37, true, 5, 3, 0},
	{"p0/λ=0.002/warm-junk", []int{0, 4, 7}, 1.6823110149320923, 37, true, 5, 3, 0},
	{"p0/λ=0.002/warm-subset", []int{0, 4, 7}, 1.6823110149320923, 37, true, 5, 3, 0},
	{"p0/λ=0.01/cold", []int{0, 4, 7}, 1.6823110149320923, 37, true, 5, 3, 0},
	{"p0/λ=0.01/warm-junk", []int{0, 4, 7}, 1.6823110149320923, 37, true, 5, 3, 0},
	{"p0/λ=0.01/warm-subset", []int{0, 4, 7}, 1.6823110149320923, 37, true, 5, 3, 0},
	{"p0/λ=0.01/warm-chain", []int{0, 4, 7}, 1.6823110149320923, 37, true, 5, 3, 0},
	{"p0/λ=0.03/cold", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.03/warm-junk", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.03/warm-subset", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.03/warm-chain", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.1/cold", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.1/warm-junk", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.1/warm-subset", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.1/warm-chain", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.4/cold", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.4/warm-junk", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.4/warm-subset", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/λ=0.4/warm-chain", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p0/capped", []int{0, 4, 7}, 1.6823110149320923, 37, true, 5, 3, 0},
	{"p0/interrupted", []int{0, 4, 7}, 1.6823110149320923, 37, true, 5, 3, 0},
	{"p0/capped-warm", []int{0, 7}, 2.373826365664358, 5, true, 1, 1, 0},
	{"p1/λ=0.002/cold", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 45, 23, 2},
	{"p1/λ=0.002/warm-junk", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 45, 23, 2},
	{"p1/λ=0.002/warm-subset", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 45, 23, 2},
	{"p1/λ=0.01/cold", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 45, 23, 2},
	{"p1/λ=0.01/warm-junk", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 45, 23, 2},
	{"p1/λ=0.01/warm-subset", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 45, 23, 2},
	{"p1/λ=0.01/warm-chain", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 39, 20, 0},
	{"p1/λ=0.03/cold", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 45, 23, 2},
	{"p1/λ=0.03/warm-junk", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 45, 23, 2},
	{"p1/λ=0.03/warm-subset", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 45, 23, 2},
	{"p1/λ=0.03/warm-chain", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 39, 20, 0},
	{"p1/λ=0.1/cold", []int{1, 6, 7, 9}, 20.37775482249468, 67, true, 23, 12, 0},
	{"p1/λ=0.1/warm-junk", []int{1, 6, 7, 9}, 20.37775482249468, 67, true, 23, 12, 0},
	{"p1/λ=0.1/warm-subset", []int{1, 6, 7, 9}, 20.37775482249468, 67, true, 23, 12, 0},
	{"p1/λ=0.1/warm-chain", []int{1, 6, 7, 9}, 20.37775482249468, 67, true, 23, 12, 0},
	{"p1/λ=0.4/cold", []int{1, 2}, 36.83841285409351, 12, true, 7, 4, 0},
	{"p1/λ=0.4/warm-junk", []int{1, 2}, 36.83841285409351, 12, true, 7, 4, 0},
	{"p1/λ=0.4/warm-subset", []int{1, 2}, 36.83841285409351, 12, true, 7, 4, 0},
	{"p1/λ=0.4/warm-chain", []int{1, 2}, 36.83841285409351, 12, true, 7, 4, 0},
	{"p1/capped", []int{1, 2, 5, 6}, 18.00843918933724, 116, false, 43, 19, 2},
	{"p1/interrupted", []int{1, 2, 5, 6}, 18.00843918933724, 116, false, 27, 11, 2},
	{"p1/capped-warm", []int{1, 2, 5, 6}, 18.00843918933724, 116, true, 45, 23, 2},
	{"p2/λ=0.002/cold", []int{6, 10}, 16.838829737174017, 97, true, 93, 45, 0},
	{"p2/λ=0.002/warm-junk", []int{6, 10}, 16.838829737174017, 97, true, 93, 45, 0},
	{"p2/λ=0.002/warm-subset", []int{6, 10}, 16.838829737174017, 97, true, 93, 45, 0},
	{"p2/λ=0.01/cold", []int{6, 10}, 16.838829737174017, 97, true, 93, 45, 0},
	{"p2/λ=0.01/warm-junk", []int{6, 10}, 16.838829737174017, 97, true, 93, 45, 0},
	{"p2/λ=0.01/warm-subset", []int{6, 10}, 16.838829737174017, 97, true, 93, 45, 0},
	{"p2/λ=0.01/warm-chain", []int{6, 10}, 16.838829737174017, 97, true, 93, 45, 0},
	{"p2/λ=0.03/cold", []int{6, 10}, 16.838829737174017, 97, true, 75, 36, 0},
	{"p2/λ=0.03/warm-junk", []int{6, 10}, 16.838829737174017, 97, true, 75, 36, 0},
	{"p2/λ=0.03/warm-subset", []int{6, 10}, 16.838829737174017, 97, true, 75, 36, 0},
	{"p2/λ=0.03/warm-chain", []int{6, 10}, 16.838829737174017, 97, true, 75, 36, 0},
	{"p2/λ=0.1/cold", []int{6, 10}, 16.838829737174017, 97, true, 38, 19, 0},
	{"p2/λ=0.1/warm-junk", []int{6, 10}, 16.838829737174017, 97, true, 38, 19, 0},
	{"p2/λ=0.1/warm-subset", []int{6, 10}, 16.838829737174017, 97, true, 38, 19, 0},
	{"p2/λ=0.1/warm-chain", []int{6, 10}, 16.838829737174017, 97, true, 38, 19, 0},
	{"p2/λ=0.4/cold", []int{2}, 31.01608044976414, 34, true, 5, 3, 0},
	{"p2/λ=0.4/warm-junk", []int{2}, 31.01608044976414, 34, true, 5, 3, 0},
	{"p2/λ=0.4/warm-subset", []int{2}, 31.01608044976414, 34, true, 5, 3, 0},
	{"p2/λ=0.4/warm-chain", []int{2}, 31.01608044976414, 34, true, 5, 3, 0},
	{"p2/capped", []int{6, 10}, 16.838829737174017, 97, false, 42, 18, 0},
	{"p2/interrupted", []int{6, 10}, 16.838829737174017, 97, false, 27, 10, 0},
	{"p2/capped-warm", []int{6, 10}, 16.838829737174017, 97, false, 61, 28, 0},
	{"p3/λ=0.002/cold", []int{1, 3, 12, 13, 14, 18}, 18.567913747416647, 226, true, 1529, 679, 0},
	{"p3/λ=0.002/warm-junk", []int{1, 3, 12, 13, 14, 18}, 18.567913747416647, 226, true, 1529, 679, 0},
	{"p3/λ=0.002/warm-subset", []int{1, 3, 12, 13, 14, 18}, 18.567913747416647, 226, true, 1529, 679, 0},
	{"p3/λ=0.01/cold", []int{1, 3, 12, 13, 18}, 18.69335418154233, 208, true, 1526, 680, 0},
	{"p3/λ=0.01/warm-junk", []int{1, 3, 12, 13, 18}, 18.69335418154233, 208, true, 1526, 680, 0},
	{"p3/λ=0.01/warm-subset", []int{1, 3, 12, 13, 18}, 18.69335418154233, 208, true, 1526, 680, 0},
	{"p3/λ=0.01/warm-chain", []int{1, 3, 12, 13, 18}, 18.69335418154233, 208, true, 1526, 680, 0},
	{"p3/λ=0.03/cold", []int{1, 3, 12, 13, 18}, 18.69335418154233, 208, true, 1391, 625, 0},
	{"p3/λ=0.03/warm-junk", []int{1, 3, 12, 13, 18}, 18.69335418154233, 208, true, 1391, 625, 0},
	{"p3/λ=0.03/warm-subset", []int{1, 3, 12, 13, 18}, 18.69335418154233, 208, true, 1391, 625, 0},
	{"p3/λ=0.03/warm-chain", []int{1, 3, 12, 13, 18}, 18.69335418154233, 208, true, 1391, 625, 0},
	{"p3/λ=0.1/cold", []int{3, 8, 12}, 26.92438264674665, 86, true, 478, 224, 0},
	{"p3/λ=0.1/warm-junk", []int{3, 8, 12}, 26.92438264674665, 86, true, 478, 224, 0},
	{"p3/λ=0.1/warm-subset", []int{3, 8, 12}, 26.92438264674665, 86, true, 478, 224, 0},
	{"p3/λ=0.1/warm-chain", []int{3, 8, 12}, 26.92438264674665, 86, true, 478, 224, 0},
	{"p3/λ=0.4/cold", []int{3, 8}, 32.079149777910686, 68, true, 79, 37, 0},
	{"p3/λ=0.4/warm-junk", []int{3, 8}, 32.079149777910686, 68, true, 79, 37, 0},
	{"p3/λ=0.4/warm-subset", []int{3, 8}, 32.079149777910686, 68, true, 79, 37, 0},
	{"p3/λ=0.4/warm-chain", []int{3, 8}, 32.079149777910686, 68, true, 79, 37, 0},
	{"p3/capped", []int{1, 3, 12, 13, 14, 18}, 18.567913747416647, 226, false, 46, 15, 0},
	{"p3/interrupted", []int{1, 3, 12, 13, 14, 18}, 18.567913747416647, 226, false, 30, 8, 0},
	{"p3/capped-warm", []int{1, 3, 12, 13, 18}, 18.69335418154233, 208, false, 66, 23, 0},
	{"p4/λ=0.002/cold", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 74, 36, 3},
	{"p4/λ=0.002/warm-junk", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 74, 36, 3},
	{"p4/λ=0.002/warm-subset", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 74, 36, 2},
	{"p4/λ=0.01/cold", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 74, 36, 3},
	{"p4/λ=0.01/warm-junk", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 74, 36, 3},
	{"p4/λ=0.01/warm-subset", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 74, 36, 2},
	{"p4/λ=0.01/warm-chain", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 74, 36, 0},
	{"p4/λ=0.03/cold", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 68, 33, 3},
	{"p4/λ=0.03/warm-junk", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 68, 33, 3},
	{"p4/λ=0.03/warm-subset", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 68, 33, 2},
	{"p4/λ=0.03/warm-chain", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 68, 33, 0},
	{"p4/λ=0.1/cold", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 71, 34, 2},
	{"p4/λ=0.1/warm-junk", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 71, 34, 2},
	{"p4/λ=0.1/warm-subset", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 71, 34, 2},
	{"p4/λ=0.1/warm-chain", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, true, 71, 34, 0},
	{"p4/λ=0.4/cold", []int{1, 5, 6, 10}, 26.409226120782037, 41, true, 34, 13, 0},
	{"p4/λ=0.4/warm-junk", []int{1, 5, 6, 10}, 26.409226120782037, 41, true, 34, 13, 0},
	{"p4/λ=0.4/warm-subset", []int{1, 5, 6, 10}, 26.409226120782037, 41, true, 34, 13, 0},
	{"p4/λ=0.4/warm-chain", []int{1, 5, 6, 10}, 26.409226120782037, 41, true, 34, 13, 0},
	{"p4/capped", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, false, 42, 18, 3},
	{"p4/interrupted", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, false, 28, 9, 3},
	{"p4/capped-warm", []int{1, 5, 6, 7, 10}, 18.556516769483935, 80, false, 62, 28, 2},
	{"p5/λ=0.002/cold", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 584, 286, 6},
	{"p5/λ=0.002/warm-junk", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 584, 286, 6},
	{"p5/λ=0.002/warm-subset", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 584, 286, 6},
	{"p5/λ=0.01/cold", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 582, 285, 6},
	{"p5/λ=0.01/warm-junk", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 582, 285, 6},
	{"p5/λ=0.01/warm-subset", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 582, 285, 6},
	{"p5/λ=0.01/warm-chain", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 576, 282, 0},
	{"p5/λ=0.03/cold", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 580, 284, 6},
	{"p5/λ=0.03/warm-junk", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 580, 284, 6},
	{"p5/λ=0.03/warm-subset", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 580, 284, 6},
	{"p5/λ=0.03/warm-chain", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 574, 281, 0},
	{"p5/λ=0.1/cold", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 570, 279, 0},
	{"p5/λ=0.1/warm-junk", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 570, 279, 0},
	{"p5/λ=0.1/warm-subset", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 570, 279, 0},
	{"p5/λ=0.1/warm-chain", []int{0, 5, 6, 26, 27}, 42.70875220512255, 58, true, 570, 279, 0},
	{"p5/λ=0.4/cold", []int{0, 6, 26, 27}, 49.21767351569264, 34, true, 496, 242, 0},
	{"p5/λ=0.4/warm-junk", []int{0, 6, 26, 27}, 49.21767351569264, 34, true, 496, 242, 0},
	{"p5/λ=0.4/warm-subset", []int{0, 6, 26, 27}, 49.21767351569264, 34, true, 496, 242, 0},
	{"p5/λ=0.4/warm-chain", []int{0, 6, 26, 27}, 49.21767351569264, 34, true, 496, 242, 0},
	{"p5/capped", []int{0, 2, 5, 6, 26, 27}, 42.70875220512255, 62, false, 45, 17, 5},
	{"p5/interrupted", []int{0, 2, 6, 9, 16, 26, 27}, 46.7035303612147, 53, false, 32, 8, 3},
	{"p5/capped-warm", []int{0, 2, 5, 6, 26, 27}, 42.70875220512255, 62, false, 66, 26, 5},
}

// TestSolvePenalizedGolden pins SolvePenalized's λ > 0 search shape: every
// node, prune and incumbent update of the recorded cases must repeat
// exactly, warm starts, node caps and interrupts included.
func TestSolvePenalizedGolden(t *testing.T) {
	cases := penalizedGoldenCases()
	if len(cases) != len(penalizedGolden) {
		t.Fatalf("%d cases, %d golden rows", len(cases), len(penalizedGolden))
	}
	for i, c := range cases {
		want := penalizedGolden[i]
		if c.name != want.name {
			t.Fatalf("case %d is %q, golden row is %q", i, c.name, want.name)
		}
		if c.warmFrom >= 0 {
			c.opts.WarmStart = penalizedGolden[c.warmFrom].chosen
		}
		got := SolvePenalized(c.p, c.lambda, c.opts)
		if !slices.Equal(got.Chosen, want.chosen) || got.Objective != want.obj || got.Size != want.size ||
			got.Proven != want.proven || got.Nodes != want.nodes || got.Pruned != want.pruned ||
			got.IncumbentUpdates != want.incs {
			t.Errorf("%s: got chosen=%v obj=%v size=%d proven=%v nodes=%d pruned=%d incs=%d; want %v %v %d %v %d %d %d",
				c.name, got.Chosen, got.Objective, got.Size, got.Proven, got.Nodes, got.Pruned, got.IncumbentUpdates,
				want.chosen, want.obj, want.size, want.proven, want.nodes, want.pruned, want.incs)
		}
	}
}

// multiInstance builds N small problems sharing one global budget (each
// problem's own Budget is the global one, as internal/tenant sets it).
func multiInstance(rng *rand.Rand, n int) ([]*Problem, int64) {
	probs := make([]*Problem, n)
	var totalSize int64
	for i := range probs {
		probs[i] = randomProblem(rng, 2+rng.Intn(5), 1+rng.Intn(4))
		for _, c := range probs[i].Cands {
			totalSize += c.Size
		}
	}
	budget := totalSize / 3
	if budget < 1 {
		budget = 1
	}
	for _, p := range probs {
		p.Budget = budget
	}
	return probs, budget
}

// TestDualDecomposeBoundsOptimum is the decomposition's core property:
// against the monolithic exact solve of the pooled instance, the dual's
// feasible answer is an upper bound, its LowerBound a valid lower bound,
// and the optimum lies inside the reported gap.
func TestDualDecomposeBoundsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 30; trial++ {
		probs, budget := multiInstance(rng, 2+rng.Intn(3))
		ds := DualDecompose(probs, budget, DualOptions{})
		if !ds.Proven {
			t.Fatalf("trial %d: subproblem solves not proven", trial)
		}
		if ds.TotalSize > budget {
			t.Fatalf("trial %d: infeasible: size %d > budget %d", trial, ds.TotalSize, budget)
		}
		for i, p := range probs {
			if !p.Feasible(ds.Chosen[i]) {
				t.Fatalf("trial %d: tenant %d infeasible", trial, i)
			}
		}
		pooled := Pool(probs, budget)
		mono := Solve(pooled.P, SolveOptions{})
		if !mono.Proven {
			t.Fatalf("trial %d: monolithic solve not proven", trial)
		}
		opt := mono.Objective
		if ds.Objective < opt-1e-9 {
			t.Fatalf("trial %d: dual objective %.6f below optimum %.6f", trial, ds.Objective, opt)
		}
		if ds.LowerBound > opt+1e-9 {
			t.Fatalf("trial %d: lower bound %.6f above optimum %.6f", trial, ds.LowerBound, opt)
		}
		if ds.Objective-opt > ds.Gap+1e-9 {
			t.Fatalf("trial %d: optimum outside reported gap: obj %.6f opt %.6f gap %.6f",
				trial, ds.Objective, opt, ds.Gap)
		}
	}
}

// TestDualDecomposeDeterministicAcrossWorkers: bit-identical results at
// any par worker count — the satellite's determinism clause.
func TestDualDecomposeDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 10; trial++ {
		probs, budget := multiInstance(rng, 4)
		ref := DualDecompose(probs, budget, DualOptions{Workers: 1})
		for _, w := range []int{2, 4, 8} {
			got := DualDecompose(probs, budget, DualOptions{Workers: w})
			if got.Objective != ref.Objective || got.Lambda != ref.Lambda ||
				got.Iters != ref.Iters || got.Nodes != ref.Nodes ||
				got.LowerBound != ref.LowerBound {
				t.Fatalf("trial %d: workers=%d diverged: obj %v/%v λ %v/%v iters %d/%d nodes %d/%d",
					trial, w, got.Objective, ref.Objective, got.Lambda, ref.Lambda,
					got.Iters, ref.Iters, got.Nodes, ref.Nodes)
			}
			for i := range ref.Chosen {
				if len(got.Chosen[i]) != len(ref.Chosen[i]) {
					t.Fatalf("trial %d: workers=%d chosen sets differ for tenant %d", trial, w, i)
				}
				for j := range ref.Chosen[i] {
					if got.Chosen[i][j] != ref.Chosen[i][j] {
						t.Fatalf("trial %d: workers=%d chosen sets differ for tenant %d", trial, w, i)
					}
				}
			}
		}
	}
}

// TestDualDecomposeSlackBudget: when everything fits, the λ=0 probe is
// already optimal and the gap closes at zero in one iteration.
func TestDualDecomposeSlackBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	probs, _ := multiInstance(rng, 3)
	var total int64
	for _, p := range probs {
		for _, c := range p.Cands {
			total += c.Size
		}
	}
	for _, p := range probs {
		p.Budget = total
	}
	ds := DualDecompose(probs, total, DualOptions{})
	if ds.Iters != 1 || ds.Gap != 0 || ds.Lambda != 0 {
		t.Fatalf("slack budget: want 1 iter, zero gap at λ=0; got iters=%d gap=%v λ=%v",
			ds.Iters, ds.Gap, ds.Lambda)
	}
}

// TestPoolSplitRoundTrip: the pooled instance preserves objectives, the
// block structure keeps cross-tenant candidates infeasible, and Split
// inverts Lift.
func TestPoolSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 20; trial++ {
		probs, budget := multiInstance(rng, 2+rng.Intn(3))
		pooled := Pool(probs, budget)
		sol := Solve(pooled.P, SolveOptions{})
		split := pooled.Split(sol)
		sum := 0.0
		for i, p := range probs {
			if !p.Feasible(split[i]) {
				t.Fatalf("trial %d: split tenant %d infeasible in its own problem", trial, i)
			}
			sum += p.Objective(split[i])
		}
		if math.Abs(sum-sol.Objective) > 1e-9 {
			t.Fatalf("trial %d: split objectives %.6f vs pooled %.6f", trial, sum, sol.Objective)
		}
		lifted := pooled.Lift(split)
		if len(lifted) != len(sol.Chosen) {
			t.Fatalf("trial %d: Lift(Split) cardinality %d vs %d", trial, len(lifted), len(sol.Chosen))
		}
		back := pooled.Split(&Solution{Chosen: lifted})
		for i := range split {
			if len(back[i]) != len(split[i]) {
				t.Fatalf("trial %d: Split(Lift(Split)) differs", trial)
			}
			for j := range split[i] {
				if back[i][j] != split[i][j] {
					t.Fatalf("trial %d: Split(Lift(Split)) differs", trial)
				}
			}
		}
	}
}
