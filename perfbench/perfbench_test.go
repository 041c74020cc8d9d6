package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"coradd/internal/query"
	"coradd/internal/ssb"
	"coradd/internal/value"
)

func TestTailFollowsPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n        int
		wantIdx  int
		wantNote string
	}{
		{2000, 1979, "p99 of 2000"},
		{1000, 989, "p99 of 1000"},
		{500, 489, "p98 of 500"},
		{100, 89, "p90 of 100"},
		{11, 0, "p9.09 of 11"},
		{10, 9, "max of 10 (fewer than 11 samples)"},
		{3, 2, "max of 3 (fewer than 11 samples)"},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted input
		}
		_, tail, note := quantiles(xs)
		if tail != float64(tc.wantIdx+1) || note != tc.wantNote {
			t.Errorf("n=%d: tail %v (%s), want %v (%s)", tc.n, tail, note, tc.wantIdx+1, tc.wantNote)
		}
		if idx := tailIndex(tc.n); idx >= 0 && tc.n-idx-1 < 10 {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, tc.n-idx-1)
		}
	}
	if p50, _, _ := quantiles([]float64{4, 1, 3, 2}); p50 != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", p50)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestMetricsDeclaredInBenchmarkFile keeps the metric tables, which are
// all any run can print, identical to BENCHMARK.json.
func TestMetricsDeclaredInBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, pl []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bf.PerLayer {
		pl = append(pl, m.Name+" "+m.Unit)
	}
	check := func(kind string, file []string, tab []metricDef) {
		var code []string
		for _, d := range tab {
			code = append(code, d.name+" "+d.unit)
		}
		if strings.Join(file, "\n") != strings.Join(code, "\n") {
			t.Errorf("%s metrics differ:\nBENCHMARK.json:\n%s\nperfbench:\n%s", kind, strings.Join(file, "\n"), strings.Join(code, "\n"))
		}
	}
	check("end-to-end", e2e, endToEnd)
	check("per-layer", pl, perLayer)
}

func TestResultRefusesUndeclaredAndMissingMetrics(t *testing.T) {
	r := newResult()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("set accepted an undeclared metric")
			}
		}()
		r.set("not_declared", 1, 1)
	}()
	r.Attempted = 1
	r.set("setup_s", 1, 1)
	if _, err := summarize(r, false); err == nil {
		t.Error("summarize accepted a run missing end-to-end metrics")
	}
	for _, d := range endToEnd {
		r.set(d.name, 1, 1)
	}
	s, err := summarize(r, false)
	if err != nil || len(s.Metrics) != len(endToEnd) || !s.Correct {
		t.Errorf("untraced summary: %+v, %v", s, err)
	}
	r.set("ilp.nodes", 7, 1)
	s, err = summarize(r, true)
	if err != nil || len(s.Metrics) != len(perLayer) || s.Metrics["ilp.nodes"].Value != 7 || s.Metrics["cm.pairs"].Value != 0 {
		t.Errorf("traced summary: %+v, %v", s, err)
	}
	r.failOp("refused")
	if s, _ := summarize(r, true); !s.Correct || s.Failed != 1 {
		t.Errorf("a failed operation made the outputs incorrect: %+v", s)
	}
	r.fail("wrong answer")
	if s, _ := summarize(r, true); s.Correct || s.Failed != 2 {
		t.Errorf("a failed check left the summary correct: %+v", s)
	}
}

func TestCheckKnobs(t *testing.T) {
	if err := checkKnobs([]string{"HOME=/x", "GOFLAGS=-v"}); err != nil {
		t.Errorf("no knob set: %v", err)
	}
	err := checkKnobs([]string{"CORADD_SOLVER_WORKERS=2", "CORADD_CACHE_BYTES="})
	if err == nil || !strings.Contains(err.Error(), "CORADD_CACHE_BYTES, CORADD_SOLVER_WORKERS") {
		t.Errorf("knobs set: %v", err)
	}
}

func TestCompareRefusesDifferentMachines(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	m := machine{CPU: "a", NProc: 2, GOMAXPROCS: 2}
	rec := func(m machine, v float64) record {
		return record{Workload: "w", Machine: m, Values: map[string]measured{"task_ref": {V: v, N: 1}}}
	}
	var errBuf bytes.Buffer
	other := m
	other.NProc = 4
	if code := compareRecords(bf, []record{rec(m, 1)}, []record{rec(other, 1)}, io.Discard, &errBuf); code != 1 ||
		!strings.Contains(errBuf.String(), "different machines") {
		t.Errorf("compare across machines: code %d, %q", code, errBuf.String())
	}
	var out bytes.Buffer
	if code := compareRecords(bf, []record{rec(m, 1)}, []record{rec(m, 2)}, &out, io.Discard); code != 1 ||
		!strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("doubled task_ref: code %d\n%s", code, out.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	series := map[string]float64{
		`h_bucket{route="/q",le="0.1"}`:  50,
		`h_bucket{route="/q",le="1"}`:    100,
		`h_bucket{route="/q",le="+Inf"}`: 100,
		`h_bucket{route="/x",le="0.1"}`:  7,
	}
	if got := histogramQuantile(series, "h", `route="/q"`, 0.75); got < 0.549 || got > 0.551 {
		t.Errorf("p75 = %v, want 0.55", got)
	}
}

func TestBindKeepsPredicateShape(t *testing.T) {
	next := value.V(0)
	draw := func(string) value.V { next += 7; return next }
	for _, q := range ssb.AugmentedQueries() {
		b := bind(q, "x", draw)
		if len(b.Predicates) != len(q.Predicates) || b.AggCol != q.AggCol || len(b.Targets) != len(q.Targets) {
			t.Fatalf("%s: shape changed", q.Name)
		}
		for i, p := range q.Predicates {
			bp := b.Predicates[i]
			if bp.Col != p.Col || bp.Op != p.Op {
				t.Fatalf("%s: predicate %d is %v, was %v", q.Name, i, bp, p)
			}
			switch p.Op {
			case query.Range:
				if bp.Hi-bp.Lo != p.Hi-p.Lo {
					t.Errorf("%s: range width %d, was %d", q.Name, bp.Hi-bp.Lo, p.Hi-p.Lo)
				}
			case query.In:
				if len(bp.Set) != len(p.Set) {
					t.Errorf("%s: IN size %d, was %d", q.Name, len(bp.Set), len(p.Set))
				}
			}
		}
	}
}

func TestRefSamplerCountsPassesAndHalts(t *testing.T) {
	s := startRefSampler()
	m0 := s.mark()
	time.Sleep(4 * refGap)
	cpu, perPass := refWindow(m0, s.mark())
	s.halt()
	if perPass <= 0 || cpu < perPass {
		t.Fatalf("window of 4 gaps: %v s in passes of %v s", cpu, perPass)
	}
	after := s.mark()
	time.Sleep(2 * refGap)
	if s.mark() != after {
		t.Error("the sampler ran on after halt")
	}
	if _, perPass := refWindow(m0, m0); perPass != 0 {
		t.Errorf("an empty window has %v s per pass, want 0", perPass)
	}
}

func TestProcCPUSecondsMatchesRusage(t *testing.T) {
	for c0 := cpuSeconds(); cpuSeconds()-c0 < 0.2; {
	}
	got, err := procCPUSeconds(strconv.Itoa(os.Getpid()))
	if err != nil {
		t.Fatal(err)
	}
	// /proc counts in ticks of 10 ms; allow a few.
	if want := cpuSeconds(); math.Abs(got-want) > 0.05 {
		t.Errorf("/proc/self/stat CPU %v s, getrusage %v s", got, want)
	}
}
