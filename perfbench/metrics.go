package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef declares one metric. The two tables below mirror the
// end_to_end and per_layer lists of BENCHMARK.json (a test keeps them in
// step): every workload prints every end-to-end metric untraced and every
// per-layer metric traced, so the names are shared across workloads and
// each workload documents what its value measures.
type metricDef struct {
	name, unit, help string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "median set-up time over the run's repeated set-ups"},
	{"peak_rss_mb", "MB", "VmHWM of the process doing the work"},
	{"task_ref", "ref", "the task's CPU time in reference-kernel passes: task_cpu_s over the CPU seconds of one pass of a fixed kernel sampled on its own thread while the task ran, so the host's drifting speed cancels (median over the run's tasks)"},
	{"sim_s", "s", "simulated seconds of the task's outcome (design-apb design_expected_s, materialize-ssb sim_workload_s, serve-drift daemon-charged seconds per 1000 drifted queries)"},
}

// perLayer are the per-layer metrics of the traced run. A layer the
// workload does not call reads 0 with 0 samples.
var perLayer = []metricDef{
	{"task_cpu_s", "s", "CPU seconds (user+system, all threads, the reference sampler's passes not counted) the process doing the work spent on the workload's task (design-apb design_s, materialize-ssb materialize_s, serve-drift the daemon over the whole load window)"},
	{"task_wall_s", "s", "wall time of the workload's task (design-apb design_s, materialize-ssb materialize_s, serve-drift adapt_s: first drifted request until the migration landed)"},
	{"ref.pass_ms", "ms", "CPU milliseconds of one reference-kernel pass while the task ran, the host speed task_ref divides by"},
	{"op_ms_p50", "ms", "median latency of one operation (design-apb a Design call, materialize-ssb a query, serve-drift a request from its scheduled send)"},
	{"op_ms_p99", "ms", "tail latency of one operation by the percentile rule (same operations as op_ms_p50)"},
	{"stats.build_s", "s", "stats.New, median over set-ups"},
	{"candgen.generate_s", "s", "designer.NewCORADD candidate generation"},
	{"candgen.candidates", "count", "candidates generated"},
	{"ilp.search_s", "s", "ILP solve wall time, root to final progress sample"},
	{"ilp.nodes", "count", "branch-and-bound nodes explored"},
	{"ilp.ns_per_node", "ns", "ILP search time per node"},
	{"ilp.solves", "count", "exact ILP solves run in the timed window"},
	{"ilp.capped_solves", "count", "solves stopped by the 5M-node cap"},
	{"feedback.self_s", "s", "Design-call time outside the ILP search"},
	{"designer.materialize_s", "s", "Evaluator.Materialize over all designs"},
	{"deploy.plan_ms", "ms", "designer.PlanMigration over all deployment steps"},
	{"deploy.nodes", "count", "deployment-scheduler search nodes"},
	{"cache.hits", "count", "ObjectCache hits"},
	{"cache.misses", "count", "ObjectCache misses"},
	{"cache.hit_ratio", "ratio", "ObjectCache hits over lookups"},
	{"cache.used_mb", "MB", "ObjectCache footprint at the end"},
	{"cm.design_s", "s", "cold replay of cm.Design for every served (object, query)"},
	{"cm.build_s", "s", "cold replay of cm.Build for every deployed CM"},
	{"cm.pairs", "count", "pairs stored by the deployed CMs"},
	{"storage.recluster_s", "s", "cold replay of Relation.Recluster for every projected object"},
	{"btree.build_s", "s", "cold replay of btree.BuildFromRelation for every deployed B+Tree"},
	{"exec.run_s", "s", "exec.Execute over all queries"},
	{"exec.pages_read", "count", "pages read by all queries"},
	{"exec.rows_scanned_per_returned", "ratio", "heap rows scanned over rows returned"},
	{"server.served", "count", "daemon queries served"},
	{"server.dropped", "count", "observations the daemon dropped"},
	{"server.timeouts", "count", "requests past the daemon's deadline"},
	{"server.obs_drop_frac", "ratio", "dropped observations over queries served"},
	{"http.query_s_p99", "s", "daemon-side /query latency p99 from its histogram"},
	{"adapt.observations_per_s", "1/s", "observations processed per second of the timed window"},
	{"adapt.redesigns", "count", "controller redesigns"},
	{"adapt.builds", "count", "migration builds completed"},
	{"adapt.drift_checks", "count", "drift checks run"},
	{"adapt.solver_nodes", "count", "solver nodes the controller explored"},
	{"durable.checkpoint_kb", "KB", "final checkpoint size"},
	{"durable.load_ms", "ms", "durable.Load of the final checkpoint"},
	{"gen.late_ms_p99", "ms", "load-generator lateness of sends not blocked behind a response"},
	{"runtime.alloc_mb", "MB", "bytes allocated in the timed window"},
	{"runtime.gc_cycles", "count", "GC cycles in the timed window"},
}

// measured is one metric with the number of samples behind it.
type measured struct {
	V float64 `json:"value"`
	N int     `json:"n"`
	// Note says how the value was taken when that is not evident from the
	// name, e.g. which percentile the tail rule chose.
	Note string `json:"note,omitempty"`
}

// result is what one run measured.
type result struct {
	// Failed counts failed operations and failed output checks; only the
	// latter make the run incorrect.
	Attempted, Failed int
	Wrong             bool
	// Failures describe each failed operation or output check.
	Failures []string
	Values   map[string]measured
	// Inputs digest the generated data and the designs' structural keys.
	Inputs map[string]string
}

func newResult() *result {
	return &result{Values: map[string]measured{}, Inputs: map[string]string{}}
}

// set records a metric; the name must be declared in one of the tables.
func (r *result) set(name string, v float64, n int) {
	r.setNote(name, v, n, "")
}

func (r *result) setNote(name string, v float64, n int, note string) {
	if !declared(name) {
		panic("perfbench: undeclared metric " + name)
	}
	r.Values[name] = measured{V: v, N: n, Note: note}
}

// fail records a failed output check: the run's outputs are not correct.
func (r *result) fail(format string, args ...any) {
	r.Wrong = true
	r.failOp(format, args...)
}

// failOp records an operation that returned an error instead of a result.
func (r *result) failOp(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func declared(name string) bool {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// summary is the last line of a run's output: the JSON object benchmark
// tooling reads.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the last line from the table the mode reports: every
// end-to-end metric untraced, every per-layer metric traced. A declared
// end-to-end metric the run did not measure is an error; an unexercised
// layer reads 0.
func summarize(r *result, traced bool) (summary, error) {
	s := summary{
		Correct:   !r.Wrong,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]summaryMetric{},
	}
	tab := endToEnd
	if traced {
		tab = perLayer
	}
	for _, d := range tab {
		v, ok := r.Values[d.name]
		if !ok && !traced {
			return s, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		s.Metrics[d.name] = summaryMetric{Value: v.V, Unit: d.unit}
	}
	if s.Attempted < 1 {
		return s, fmt.Errorf("no operation was attempted")
	}
	return s, nil
}

// printHuman writes one line per metric of both tables, with unit, sample
// count and meaning.
func printHuman(w io.Writer, r *result) {
	for _, tab := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end", endToEnd}, {"per-layer", perLayer}} {
		fmt.Fprintf(w, "# %s metrics\n", tab.title)
		for _, d := range tab.defs {
			v, ok := r.Values[d.name]
			if !ok {
				continue
			}
			note := d.help
			if v.Note != "" {
				note = v.Note + "; " + note
			}
			fmt.Fprintf(w, "metric %-32s %14.6g %-6s n=%-6d %s\n", d.name, v.V, d.unit, v.N, note)
		}
	}
	errFrac := float64(r.Failed) / math.Max(1, float64(r.Attempted))
	fmt.Fprintf(w, "error_frac %.6g (%d failed of %d attempted)\n", errFrac, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
}

// writeJSONLine writes v as one line.
func writeJSONLine(w io.Writer, prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", prefix, b)
	return err
}

// quantiles reports the median and the tail of samples by the percentile
// rule: the highest percentile, capped at p99, that leaves at least ten
// samples beyond it. With ten samples or fewer no percentile qualifies and
// the tail is the maximum. note names the percentile taken.
func quantiles(samples []float64) (p50, tail float64, note string) {
	n := len(samples)
	if n == 0 {
		return 0, 0, "no samples"
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		p50 = s[n/2]
	} else {
		p50 = (s[n/2-1] + s[n/2]) / 2
	}
	idx := tailIndex(n)
	if idx < 0 {
		return p50, s[n-1], fmt.Sprintf("max of %d (fewer than 11 samples)", n)
	}
	pct := 100 * float64(idx+1) / float64(n)
	return p50, s[idx], fmt.Sprintf("p%s of %d", trimFloat(pct), n)
}

// tailIndex is the nearest-rank index of the tail sample among n sorted
// samples: the p99 rank, or lower when fewer than ten samples would lie
// beyond it; -1 when n < 11.
func tailIndex(n int) int {
	if n < 11 {
		return -1
	}
	p99 := int(math.Ceil(0.99*float64(n))) - 1
	return min(p99, n-11)
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", f), "0"), ".")
}

// subSeed derives the seed of a run's i-th repetition, so repetitions
// measure different inputs and runs with different seeds share none.
func subSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)
}

func median(xs []float64) float64 {
	p50, _, _ := quantiles(xs)
	return p50
}
