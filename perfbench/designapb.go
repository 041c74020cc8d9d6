package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"coradd/internal/apb"
	"coradd/internal/designer"
	"coradd/internal/exp"
	"coradd/internal/ilp"
	"coradd/internal/stats"
	"coradd/internal/storage"
)

// design-apb: APB-1 at 50k rows, CORADD with QuickScale candidate
// settings and one feedback iteration, designed at 0.5x, 1x and 2x the
// fact heap. The 2x budget hits the solver's default 5M-node cap, so the
// ILP search dominates (as in Fig 9's profile); nothing is materialized
// or executed, so cm/storage/exec changes are bypassed.
const (
	apbRows   = 50_000
	apbSetups = 3
	// apbMinReps sweeps, each on its own dataset, make one run, with the
	// reference sampler (see refkernel.go) running throughout. A sweep's
	// cost in reference passes moves by about a tenth with its dataset and
	// repeats within a few percent on the same one.
	apbMinReps = 3
	// ilpDefaultCap is ilp.SolveOptions' default node cap (MaxNodes 0); a
	// solve that explored this many nodes stopped at the cap.
	ilpDefaultCap = 5_000_000
)

var apbBudgetMults = []float64{0.5, 1, 2}

func runDesignAPB(cfg config) (*result, error) {
	r := newResult()
	var sink *solveSink
	if cfg.traced {
		sink = &solveSink{}
	}
	var reps []*apbRep
	var setups, statsTimes []float64
	var data []string
	var mem memWindow
	ref := startRefSampler()
	defer ref.halt()
	start := time.Now()
	for len(reps) < apbMinReps || time.Since(start).Seconds() < cfg.seconds {
		su := setupAPB(subSeed(cfg.seed, len(reps)))
		setups = append(setups, su.setups...)
		statsTimes = append(statsTimes, su.stats...)
		data = append(data, su.data)
		if sink != nil {
			su.common.Solve.Progress = sink.observe
			// Only the root and final samples are timed; search samples
			// would only add callbacks.
			su.common.Solve.ProgressEvery = 1 << 40
		}
		runtime.GC()
		reps = append(reps, runAPBRep(r, su.common, su.heap, &mem, ref))
	}
	r.Inputs["data"] = strings.Join(data, ",")
	per := float64(len(reps))
	var sweeps, sweepsCPU, sweepsRef, refs, tails, calls, candgen []float64
	var designs []string
	var expected, designCalls float64
	for _, rep := range reps {
		sweeps = append(sweeps, rep.sweep)
		sweepsCPU = append(sweepsCPU, rep.sweepCPU)
		if rep.ref == 0 {
			return nil, fmt.Errorf("the reference sampler ran no pass during a sweep")
		}
		sweepsRef = append(sweepsRef, rep.sweepCPU/rep.ref)
		refs = append(refs, rep.ref*1e3)
		calls = append(calls, rep.callsMS...)
		_, tail, _ := quantiles(rep.callsMS)
		tails = append(tails, tail)
		candgen = append(candgen, rep.candgen)
		designs = append(designs, rep.designs)
		expected += rep.expected / per
		for _, c := range rep.callsMS {
			designCalls += c / 1e3 / per
		}
	}
	r.Inputs["designs"] = strings.Join(designs, ",")
	r.set("setup_s", median(setups), len(setups))
	r.set("task_ref", median(sweepsRef), len(sweepsRef))
	r.set("task_cpu_s", median(sweepsCPU), len(sweepsCPU))
	r.set("task_wall_s", median(sweeps), len(sweeps))
	r.set("ref.pass_ms", median(refs), len(refs))
	r.set("sim_s", expected, len(reps))
	r.setNote("op_ms_p99", median(tails), len(calls),
		fmt.Sprintf("median over %d sweeps of the max of %d Design calls (fewer than 11 samples)", len(reps), len(apbBudgetMults)))
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss, 1)
	r.set("op_ms_p50", median(calls), len(calls))
	if cfg.traced {
		// Layer totals are per sweep, so sides that fit a different number
		// of sweeps into --seconds stay comparable.
		mem.record(r, per)
		r.set("stats.build_s", median(statsTimes), len(statsTimes))
		r.set("candgen.generate_s", median(candgen), len(candgen))
		r.set("candgen.candidates", float64(reps[0].candidates), 1)
		sink.report(r, per)
		r.set("feedback.self_s", designCalls-sink.search/per, len(calls))
	}
	fmt.Fprintf(cfg.log, "# design-apb: %d sweeps of %d budgets, each on its own data; sweep seconds %v, CPU seconds %v, reference passes %v\n",
		len(reps), len(apbBudgetMults), sweeps, sweepsCPU, sweepsRef)
	return r, nil
}

// apbSetup is one dataset's set-up: the designer inputs and heap size of
// its last copy, the wall times of each copy's set-up and stats.New, and
// the data digest.
type apbSetup struct {
	common        designer.Common
	heap          int64
	setups, stats []float64
	data          string
}

// setupAPB generates APB-1 from seed and builds its statistics, apbSetups
// times.
func setupAPB(seed int64) *apbSetup {
	scale := exp.QuickScale()
	su := &apbSetup{}
	var rel *storage.Relation
	var st *stats.Stats
	for i := 0; i < apbSetups; i++ {
		rel, st = nil, nil
		runtime.GC()
		t0 := time.Now()
		rel = apb.Generate(apb.Config{Rows: apbRows, Seed: seed})
		t1 := time.Now()
		st = stats.New(rel, scale.Sample, seed+1)
		su.setups = append(su.setups, time.Since(t0).Seconds())
		su.stats = append(su.stats, time.Since(t1).Seconds())
	}
	su.data = relationDigest(rel)
	su.heap = rel.HeapBytes()
	su.common = designer.Common{
		St: st, W: apb.Queries(), Disk: storage.DefaultDiskParams(),
		PKCols: apb.PKCols(rel.Schema), BaseKey: rel.ClusterKey,
	}
	return su
}

// apbRep is one sweep: candidate generation and design at every budget.
type apbRep struct {
	// sweep and sweepCPU are the wall and CPU seconds of candgen plus
	// the 3-budget sweep, the reference sampler's passes not counted; ref
	// is the sampler's CPU seconds per pass meanwhile.
	candgen, sweep, sweepCPU, ref float64
	callsMS                       []float64
	candidates                    int
	expected                      float64
	designs                       string
}

// runAPBRep times candidate generation on a fresh designer and the
// 3-budget sweep.
func runAPBRep(r *result, common designer.Common, heap int64, mem *memWindow, ref *refSampler) *apbRep {
	scale := exp.QuickScale()
	rep := &apbRep{}
	w := common.W
	mem.start()
	defer mem.stop()
	m0, t0, c0 := ref.mark(), time.Now(), cpuSeconds()
	des := designer.NewCORADD(common, scale.Cand, scale.FB)
	rep.candgen = time.Since(t0).Seconds()
	rep.candidates = len(des.Candidates())
	var ds []*designer.Design
	for _, m := range apbBudgetMults {
		b := int64(m * float64(heap))
		r.Attempted++
		tc := time.Now()
		d, err := des.Design(b)
		rep.callsMS = append(rep.callsMS, time.Since(tc).Seconds()*1e3)
		if err != nil {
			r.failOp("design at budget %d: %v", b, err)
			continue
		}
		checkDesign(r, d, b, len(w))
		rep.expected += d.TotalExpected(w)
		ds = append(ds, d)
	}
	rep.sweep = time.Since(t0).Seconds()
	rep.sweepCPU = cpuSeconds() - c0
	refCPU, perPass := refWindow(m0, ref.mark())
	rep.sweepCPU -= refCPU
	rep.ref = perPass
	rep.designs = designsDigest(ds)
	return rep
}

// checkDesign verifies that d fits its budget and routes every query to a
// chosen object or the base table.
func checkDesign(r *result, d *designer.Design, budget int64, queries int) {
	if d.Size > budget {
		r.fail("%s at budget %d: size %d exceeds the budget", d.Name, budget, d.Size)
	}
	if len(d.Routing) != queries {
		r.fail("%s at budget %d: %d routings for %d queries", d.Name, budget, len(d.Routing), queries)
		return
	}
	for q, c := range d.Routing {
		if c < -1 || c >= len(d.Chosen) {
			r.fail("%s at budget %d: query %d routed to %d of %d objects", d.Name, budget, q, c, len(d.Chosen))
		}
	}
}

// solveSink times each exact solve from its "root" to its "final"
// progress sample. Samples arrive on the solving goroutine; the designers
// solve one problem at a time.
type solveSink struct {
	// inactive drops samples outside the window being measured.
	inactive      bool
	started       time.Time
	search        float64
	nodes, solves int
	capped        int
}

func (s *solveSink) observe(p ilp.ProgressSample) {
	if s.inactive {
		return
	}
	switch p.Phase {
	case "root":
		s.started = time.Now()
	case "final":
		s.search += time.Since(s.started).Seconds()
		s.nodes += p.Nodes
		s.solves++
		if p.Nodes >= ilpDefaultCap {
			s.capped++
		}
	}
}

// activate starts or stops counting; a nil sink ignores it.
func (s *solveSink) activate(on bool) {
	if s != nil {
		s.inactive = !on
	}
}

// report records the sink's totals divided by per (the number of timed
// repetitions).
func (s *solveSink) report(r *result, per float64) {
	r.set("ilp.search_s", s.search/per, s.solves)
	r.set("ilp.nodes", float64(s.nodes)/per, s.solves)
	perNode := 0.0
	if s.nodes > 0 {
		perNode = s.search * 1e9 / float64(s.nodes)
	}
	r.set("ilp.ns_per_node", perNode, s.solves)
	r.set("ilp.solves", float64(s.solves)/per, s.solves)
	r.set("ilp.capped_solves", float64(s.capped)/per, s.solves)
}
