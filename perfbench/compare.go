package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords loads the "record " line of every run output in dir.
func readRecords(dir string) ([]record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []record
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "record "); ok {
				var rec record
				if err := json.Unmarshal([]byte(rest), &rec); err != nil {
					f.Close()
					return nil, fmt.Errorf("%s: %w", e.Name(), err)
				}
				out = append(out, rec)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no run records in %s", dir)
	}
	return out, nil
}

// compareMain compares the runs saved in two directories (each file one
// run's standard output): per workload and mode, each metric's median and
// quartiles on both sides, and for end-to-end metrics whether the
// candidate is worse than the baseline by more than BENCHMARK.json's
// bound. It refuses records from different machines, flags workloads
// whose input digests differ, and reports the tracing overhead where a
// side has traced and untraced runs of one workload.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <baseline-dir> <candidate-dir>")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	base, err := readRecords(args[0])
	if err == nil {
		var cand []record
		cand, err = readRecords(args[1])
		if err == nil {
			return compareRecords(bf, base, cand, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return 2
}

func compareRecords(bf *benchmarkFile, base, cand []record, stdout, stderr io.Writer) int {
	ref := base[0].Machine
	for _, rec := range append(append([]record(nil), base...), cand...) {
		if why := sameMachine(ref, rec.Machine); why != "" {
			fmt.Fprintf(stderr, "perfbench compare: refusing: results come from different machines (%s)\n", why)
			return 1
		}
	}
	fmt.Fprintf(stdout, "machine: %s, nproc %d, GOMAXPROCS %d\n", ref.CPU, ref.NProc, ref.GOMAXPROCS)
	fmt.Fprintf(stdout, "baseline %s (dirty %s, tree %s, %s) vs candidate %s (dirty %s, tree %s, %s)\n",
		base[0].Machine.Commit, base[0].Machine.Dirty, base[0].Machine.Tree, base[0].Machine.Go,
		cand[0].Machine.Commit, cand[0].Machine.Dirty, cand[0].Machine.Tree, cand[0].Machine.Go)

	type key struct {
		workload string
		trace    int
	}
	group := func(recs []record) map[key][]record {
		m := map[key][]record{}
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			m[k] = append(m[k], r)
		}
		return m
	}
	bg, cg := group(base), group(cand)
	var keys []key
	for k := range bg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	regressed := false
	for _, k := range keys {
		b, c := bg[k], cg[k]
		fmt.Fprintf(stdout, "\n== %s trace=%d: %d baseline runs, %d candidate runs\n", k.workload, k.trace, len(b), len(c))
		if d := inputsDiffer(b, c); d != "" {
			fmt.Fprintf(stdout, "INPUTS DIFFER (%s): the two sides did not measure the same inputs\n", d)
		}
		if k.trace == 0 {
			for _, m := range bf.EndToEnd {
				bv, cv := metricValues(b, m.Name), metricValues(c, m.Name)
				verdict := boundVerdict(bv, cv, m.Better, m.Bound)
				if strings.HasPrefix(verdict, "REGRESSED") {
					regressed = true
				}
				printRow(stdout, m.Name, m.Unit, bv, cv, verdict)
			}
			continue
		}
		for _, m := range bf.PerLayer {
			printRow(stdout, m.Name, m.Unit, metricValues(b, m.Name), metricValues(c, m.Name), "")
		}
	}
	for _, side := range []struct {
		name string
		g    map[key][]record
	}{{"baseline", bg}, {"candidate", cg}} {
		for k, untraced := range side.g {
			traced, ok := side.g[key{k.workload, 1}]
			if k.trace != 0 || !ok {
				continue
			}
			fmt.Fprintf(stdout, "\ntracing overhead, %s %s (traced vs untraced median):", side.name, k.workload)
			for _, m := range bf.EndToEnd {
				u, t := median(metricValues(untraced, m.Name)), median(metricValues(traced, m.Name))
				if u != 0 {
					fmt.Fprintf(stdout, " %s %+.1f%%", m.Name, 100*(t-u)/u)
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func metricValues(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Values[name]; ok {
			out = append(out, v.V)
		}
	}
	return out
}

// inputsDiffer names the first input digest that is not the same for the
// same seed on both sides.
func inputsDiffer(base, cand []record) string {
	bySeed := map[int64]map[string]string{}
	for _, r := range base {
		bySeed[r.Seed] = r.Inputs
	}
	for _, r := range cand {
		b, ok := bySeed[r.Seed]
		if !ok {
			continue
		}
		for k, v := range r.Inputs {
			if b[k] != v {
				return fmt.Sprintf("%s at seed %d", k, r.Seed)
			}
		}
	}
	return ""
}

// boundVerdict applies the benchmark's rule: the candidate's median may be
// worse than the baseline's by at most bound (a share of the baseline
// median). A spread wider than the bound leaves the metric unresolved.
func boundVerdict(base, cand []float64, better string, bound float64) string {
	if len(base) == 0 || len(cand) == 0 {
		return "missing"
	}
	bm, cm := median(base), median(cand)
	if bm == 0 {
		return "baseline median is 0"
	}
	worse := (cm - bm) / bm
	if better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return fmt.Sprintf("REGRESSED by %.1f%% (bound %.0f%%)", 100*worse, 100*bound)
	}
	if s := spread(base); s > bound {
		return fmt.Sprintf("unresolved: baseline spread %.1f%% exceeds the bound", 100*s)
	}
	return fmt.Sprintf("ok (%+.1f%%, bound %.0f%%)", 100*(cm-bm)/bm, 100*bound)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (exclusive
// method), which the benchmark's spread rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(p float64) float64 {
		m := float64(n+1) * p
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

func printRow(w io.Writer, name, unit string, base, cand []float64, verdict string) {
	bq1, bq3 := quartiles(base)
	cq1, cq3 := quartiles(cand)
	fmt.Fprintf(w, "%-32s %-6s base %12.6g [%.6g..%.6g] cand %12.6g [%.6g..%.6g] %s\n",
		name, unit, median(base), bq1, bq3, median(cand), cq1, cq3, verdict)
}
