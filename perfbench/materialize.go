package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"coradd/internal/btree"
	"coradd/internal/cm"
	"coradd/internal/costmodel"
	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/exec"
	"coradd/internal/exp"
	"coradd/internal/query"
	"coradd/internal/ssb"
	"coradd/internal/stats"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// materialize-ssb: SSB with the 52-template augmented mix at 60k rows.
// Set-up builds 12 designs cheaply (the greedy Commercial and Naive
// designers at 0.5-6x heap, and CORADD at 0.5x and 1x, both proven
// optimal well below the node cap). The timed unit deploys them in budget
// order on a fresh Evaluator, planning each step with PlanMigration, then
// executes every template with seeded literal bindings on its routed
// object and plan. cm, storage and btree work is almost all of it, and no
// ILP solve runs, so solver changes are bypassed; the designs overlap
// across budgets, so the ObjectCache gets real hits.
const (
	ssbRows     = 60_000
	ssbBindings = 4
	ssbSetups   = 3
	// ssbMinReps repetitions, each on fresh objects, make one run, with the
	// reference sampler (see refkernel.go) running throughout. The
	// query tail of one set of materialized objects moves by a fifth or
	// more between repetitions, so the run reports the median over them.
	ssbMinReps = 2
)

var ssbBudgetMults = []float64{0.5, 1, 2, 4, 6}

// ssbEnv is one set-up's output.
type ssbEnv struct {
	rel        *storage.Relation
	common     designer.Common
	commercial *designer.Commercial
	designs    []*designer.Design
	// bound[qi] are the literal bindings of template qi.
	bound [][]*query.Query
}

func setupSSB(seed int64, sink *solveSink) (*ssbEnv, error) {
	scale := exp.QuickScale()
	rel := ssb.Generate(ssb.Config{
		Rows: ssbRows, Customers: ssbRows / 30, Suppliers: 200, Parts: ssbRows / 40, Seed: seed,
	})
	st := stats.New(rel, scale.Sample, seed+1)
	w := ssb.AugmentedQueries()
	e := &ssbEnv{rel: rel, common: designer.Common{
		St: st, W: w, Disk: storage.DefaultDiskParams(),
		PKCols: ssb.PKCols(rel.Schema), BaseKey: rel.ClusterKey,
	}}
	if sink != nil {
		e.common.Solve.Progress = sink.observe
		e.common.Solve.ProgressEvery = 1 << 40
	}
	e.commercial = designer.NewCommercial(e.common, scale.Cand)
	naive := designer.NewNaive(e.common, scale.Cand)
	coradd := designer.NewCORADD(e.common, scale.Cand, scale.FB)
	for _, m := range ssbBudgetMults {
		b := int64(m * float64(rel.HeapBytes()))
		ds := []designer.Designer{e.commercial, naive}
		if m <= 1 {
			ds = append(ds, coradd)
		}
		for _, des := range ds {
			d, err := des.Design(b)
			if err != nil {
				return nil, fmt.Errorf("%s at budget %d: %w", des.Name(), b, err)
			}
			e.designs = append(e.designs, d)
		}
	}
	rng := rand.New(rand.NewSource(seed + 2))
	draw := func(col string) value.V {
		return rel.Rows[rng.Intn(len(rel.Rows))][rel.Schema.MustCol(col)]
	}
	for _, q := range w {
		var qs []*query.Query
		for i := 0; i < ssbBindings; i++ {
			qs = append(qs, bind(q, fmt.Sprintf("%s#%d", q.Name, i), draw))
		}
		e.bound = append(e.bound, qs)
	}
	return e, nil
}

func runMaterializeSSB(cfg config) (*result, error) {
	r := newResult()
	var sink *solveSink
	if cfg.traced {
		sink = &solveSink{inactive: true}
	}
	// Set-up: generate SSB from the seed, build its statistics, the 12
	// designs and the bindings, ssbSetups times; the repetitions use the
	// last copy.
	var env *ssbEnv
	var setups []float64
	for i := 0; i < ssbSetups; i++ {
		env = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = setupSSB(cfg.seed, sink); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.Inputs["data"] = relationDigest(env.rel)
	r.Inputs["designs"] = designsDigest(env.designs)
	want := referenceAnswers(env)

	var mem memWindow
	var runs []*ssbRun
	ref := startRefSampler()
	defer ref.halt()
	start := time.Now()
	for len(runs) < ssbMinReps || time.Since(start).Seconds() < cfg.seconds {
		runtime.GC()
		sink.activate(true) // count only the timed window's solves
		mem.start()
		run, err := env.deployAndQuery(r, want, ref)
		mem.stop()
		sink.activate(false)
		if err != nil {
			return nil, err
		}
		if cfg.traced && len(runs) == 0 {
			replayLayers(r, env, run)
		}
		// Keep the figures, let the objects go before the next repetition.
		run.mats, run.evaluator = nil, nil
		runs = append(runs, run)
	}
	n := len(runs)
	each := func(f func(*ssbRun) float64) []float64 {
		xs := make([]float64, n)
		for i, run := range runs {
			xs[i] = f(run)
		}
		return xs
	}
	med := func(f func(*ssbRun) float64) float64 { return median(each(f)) }
	var lat []float64
	var notes []string
	for _, run := range runs {
		lat = append(lat, run.latMS...)
		notes = append(notes, run.p99Note)
	}
	r.set("setup_s", median(setups), len(setups))
	r.set("task_ref", med(func(run *ssbRun) float64 { return run.deployCPU / run.ref }), n)
	r.set("task_cpu_s", med(func(run *ssbRun) float64 { return run.deployCPU }), n)
	r.set("task_wall_s", med(func(run *ssbRun) float64 { return run.deploy }), n)
	r.set("ref.pass_ms", med(func(run *ssbRun) float64 { return run.ref * 1e3 }), n)
	r.set("sim_s", med(func(run *ssbRun) float64 { return run.sim }), len(lat))
	r.setNote("op_ms_p99", med(func(run *ssbRun) float64 { return run.p99 }), len(lat),
		fmt.Sprintf("median over %d repetitions of %s", n, strings.Join(notes, ", ")))
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss, 1)
	p50, _, _ := quantiles(lat)
	r.set("op_ms_p50", p50, len(lat))

	if cfg.traced {
		mem.record(r, float64(n))
		sink.report(r, float64(n))
		r.set("designer.materialize_s", med(func(run *ssbRun) float64 { return run.materialize }), n)
		r.set("deploy.plan_ms", med(func(run *ssbRun) float64 { return run.planMS }), n)
		r.set("deploy.nodes", med(func(run *ssbRun) float64 { return float64(run.planNodes) }), n)
		r.set("cache.hits", med(func(run *ssbRun) float64 { return float64(run.cache.Hits) }), n)
		r.set("cache.misses", med(func(run *ssbRun) float64 { return float64(run.cache.Misses) }), n)
		r.set("cache.hit_ratio", med(func(run *ssbRun) float64 {
			return float64(run.cache.Hits) / float64(max(1, run.cache.Hits+run.cache.Misses))
		}), n)
		r.set("cache.used_mb", med(func(run *ssbRun) float64 { return float64(run.cache.UsedBytes) / (1 << 20) }), n)
		r.set("exec.run_s", med(func(run *ssbRun) float64 { return run.execS }), n)
		r.set("exec.pages_read", med(func(run *ssbRun) float64 { return float64(run.pages) }), n)
		r.set("exec.rows_scanned_per_returned", med(func(run *ssbRun) float64 {
			return float64(run.scanned) / float64(max(1, run.returned))
		}), n)
	}
	fmt.Fprintf(cfg.log, "# materialize-ssb: %d repetitions on one dataset of 12 designs x %d queries; deploy seconds %v, CPU seconds %v, reference passes %v\n",
		n, len(runs[0].latMS)/12, each(func(run *ssbRun) float64 { return run.deploy }),
		each(func(run *ssbRun) float64 { return run.deployCPU }), each(func(run *ssbRun) float64 { return run.deployCPU / run.ref }))
	return r, nil
}

// answer is a query's result on the base table.
type answer struct {
	sum  int64
	rows int
}

// referenceAnswers scans the base table once per binding, independently of
// exec's plans.
func referenceAnswers(e *ssbEnv) [][]answer {
	s := e.rel.Schema
	want := make([][]answer, len(e.bound))
	for qi, qs := range e.bound {
		for _, q := range qs {
			agg := s.MustCol(q.AggCol)
			var a answer
			for _, row := range e.rel.Rows {
				if q.MatchesRow(row, s.Col) {
					a.sum += row[agg]
					a.rows++
				}
			}
			want[qi] = append(want[qi], a)
		}
	}
	return want
}

// ssbRun is one repetition of the timed unit.
type ssbRun struct {
	// deploy and deployCPU are the wall and CPU seconds of planning and
	// materializing all designs, the reference sampler's passes not
	// counted; ref is the sampler's CPU seconds per pass meanwhile.
	deploy, deployCPU, ref, materialize, planMS float64
	planNodes                                   int
	mats                                        []*designer.Materialized
	evaluator                                   *designer.Evaluator
	cache                                       designer.CacheStats
	latMS                                       []float64
	p99                                         float64
	p99Note                                     string
	sim, execS                                  float64
	pages, scanned, returned                    int
}

// deployAndQuery deploys every design in budget order on a fresh
// evaluator, then runs every binding on each design and checks the
// answers against want.
func (e *ssbEnv) deployAndQuery(r *result, want [][]answer, ref *refSampler) (*ssbRun, error) {
	run := &ssbRun{evaluator: designer.NewEvaluator(e.rel, e.common.W, e.common.Disk)}
	ev := run.evaluator
	ev.Commercial = e.commercial
	model := costmodel.NewAware(e.common.St, e.common.Disk)
	var prev *designer.Design
	m0, t0, c0 := ref.mark(), time.Now(), cpuSeconds()
	for _, d := range e.designs {
		r.Attempted++
		tp := time.Now()
		mp, err := designer.PlanMigration(e.common.St, e.common.Disk, e.common.W, model, prev, d, deploy.Options{})
		run.planMS += time.Since(tp).Seconds() * 1e3
		if err != nil {
			return nil, fmt.Errorf("planning %s at budget %d: %w", d.Name, d.Budget, err)
		}
		run.planNodes += mp.Nodes
		tm := time.Now()
		m, err := ev.Materialize(d)
		run.materialize += time.Since(tm).Seconds()
		if err != nil {
			return nil, fmt.Errorf("materializing %s at budget %d: %w", d.Name, d.Budget, err)
		}
		run.mats = append(run.mats, m)
		prev = d
	}
	run.deploy = time.Since(t0).Seconds()
	run.deployCPU = cpuSeconds() - c0
	refCPU, perPass := refWindow(m0, ref.mark())
	if perPass == 0 {
		return nil, fmt.Errorf("the reference sampler ran no pass during a deployment")
	}
	run.deployCPU -= refCPU
	run.ref = perPass
	run.cache = ev.Cache.Snapshot()

	// The query phase starts from a collected heap, so the deploy's garbage
	// is not collected on the queries' time.
	runtime.GC()
	for di, d := range e.designs {
		m := run.mats[di]
		for qi, qs := range e.bound {
			rp := m.Plan[qi]
			for bi, q := range qs {
				r.Attempted++
				tq := time.Now()
				res, err := exec.Execute(rp.Object, q, rp.Spec)
				dt := time.Since(tq).Seconds()
				run.latMS = append(run.latMS, dt*1e3)
				run.execS += dt
				if err != nil {
					r.failOp("%s/%s on %s: %v", d.Name, q.Name, rp.Spec.Kind, err)
					continue
				}
				if a := want[qi][bi]; res.Sum != a.sum || res.Rows != a.rows {
					r.fail("%s at budget %d: %s returned sum=%d rows=%d, base-table scan sum=%d rows=%d",
						d.Name, d.Budget, q.Name, res.Sum, res.Rows, a.sum, a.rows)
				}
				run.sim += q.EffectiveWeight() * res.Seconds(e.common.Disk) / ssbBindings
				run.pages += res.IO.PagesRead
				run.scanned += exec.ScannedRows(rp.Object, res)
				run.returned += res.Rows
			}
		}
	}
	_, run.p99, run.p99Note = quantiles(run.latMS)
	return run, nil
}

// replayLayers times cold calls of each layer's public function on the
// run's own deployed objects: the work the ObjectCache did once per
// structure, redone uncached and one call at a time.
func replayLayers(r *result, e *ssbEnv, run *ssbRun) {
	var cmDesign, cmBuild, recluster, bt float64
	var nDesign, nBuild, nRecluster, nTree, pairs int
	seen := map[*exec.Object]bool{}
	type cmKey struct {
		rel *storage.Relation
		q   string
	}
	designed := map[cmKey]bool{}
	timed := func(acc *float64, n *int, f func()) {
		t := time.Now()
		f()
		*acc += time.Since(t).Seconds()
		*n++
	}
	for di, d := range e.designs {
		m := run.mats[di]
		for oi, md := range d.Chosen {
			obj := m.Objects[oi]
			if d.Style == designer.StyleCORADD {
				for qi, c := range d.Routing {
					if q := e.common.W[qi]; c == oi && !designed[cmKey{obj.Rel, q.Name}] {
						designed[cmKey{obj.Rel, q.Name}] = true
						timed(&cmDesign, &nDesign, func() { cm.Design(obj.Rel, q, run.evaluator.CMConfig) })
					}
				}
			}
			if seen[obj] {
				continue
			}
			seen[obj] = true
			if !md.FactOverlay {
				key := make([]int, len(md.ClusterKey))
				for i, c := range md.ClusterKey {
					key[i] = slices.Index(md.Cols, c)
				}
				proj := e.rel.Project("replay", md.Cols, nil)
				timed(&recluster, &nRecluster, func() { proj.Recluster(key) })
			}
			for _, idx := range obj.BTrees {
				timed(&bt, &nTree, func() { btree.BuildFromRelation(obj.Rel, idx.Cols) })
			}
			if obj.PKIndex != nil {
				pk := make([]int, len(md.PKCols))
				for i, c := range md.PKCols {
					pk[i] = slices.Index(md.Cols, c)
				}
				timed(&bt, &nTree, func() { btree.BuildFromRelation(obj.Rel, pk) })
			}
			for _, c := range obj.CMs {
				timed(&cmBuild, &nBuild, func() {
					pairs += cm.Build(obj.Rel, c.KeyCols, c.KeyWidths, c.ClusterPagesPerBucket).NumPairs()
				})
			}
		}
	}
	r.set("cm.design_s", cmDesign, nDesign)
	r.set("cm.build_s", cmBuild, nBuild)
	r.set("cm.pairs", float64(pairs), nBuild)
	r.set("storage.recluster_s", recluster, nRecluster)
	r.set("btree.build_s", bt, nTree)
}
