// Command perfbench is the repository's benchmark. It runs one workload
// per invocation against the library's public calls (and, for
// serve-drift, the real cmd/coraddd daemon), checks the outputs, and
// prints every metric with its unit and sample count. The last line of
// standard output is a JSON summary; the line before it, starting with
// "record ", carries every measured value together with the machine and
// input digests, and is what the compare subcommand reads.
//
// Usage (from the repository root; perfbench/run.sh builds first):
//
//	perfbench --workload design-apb|materialize-ssb|serve-drift
//	          --seed n --seconds s --trace 0|1
//	          [--daemon path/to/coraddd] [--tmp dir]
//	perfbench compare <baseline-dir> <candidate-dir>
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// add timing sinks and cold replays around each layer's calls and report
// the per-layer metrics. The benchmark refuses to run while any CORADD_*
// environment variable is set, so every result measures library defaults.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// daemon is the coraddd binary serve-drift starts; tmp the directory
	// for its checkpoints.
	daemon, tmp string
	log         io.Writer
}

var workloads = map[string]func(config) (*result, error){
	"design-apb":      runDesignAPB,
	"materialize-ssb": runMaterializeSSB,
	"serve-drift":     runServeDrift,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds (each workload runs its timed unit at least once)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	daemon := fs.String("daemon", ".bench_build/coraddd", "coraddd binary for serve-drift")
	tmp := fs.String("tmp", ".bench_build/tmp", "scratch directory for daemon checkpoints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkKnobs(os.Environ()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, daemon: *daemon, tmp: *tmp, log: stdout}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	sum, err := summarize(res, cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printHuman(stdout, res)
	root, _ := os.Getwd()
	rec := record{
		Workload: *name, Seed: *seed, Trace: *trace,
		Machine: currentMachine(filepath.Clean(root)),
		Inputs:  res.Inputs, Values: res.Values,
		Attempted: res.Attempted, Failed: res.Failed,
	}
	if err := writeJSONLine(stdout, "record ", rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeJSONLine(stdout, "", sum); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// record is the full account of one run, read back by compare.
type record struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     int                 `json:"trace"`
	Machine   machine             `json:"machine"`
	Inputs    map[string]string   `json:"inputs"`
	Values    map[string]measured `json:"values"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
