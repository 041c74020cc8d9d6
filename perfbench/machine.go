package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coradd/internal/designer"
	"coradd/internal/storage"
)

// machine records where and from what a result was measured. compare
// refuses to set results from different machines side by side.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit and Dirty come from the build's VCS stamp; "unknown" when
	// the sources were not in a repository.
	Commit string `json:"commit"`
	Dirty  string `json:"dirty"`
	// Tree digests the Go sources and module files the benchmark was
	// built from, so a checkout without VCS data is still identified.
	Tree string `json:"tree"`
}

// sameMachine reports why two records were not measured on the same
// machine, or "" when they were.
func sameMachine(a, b machine) string {
	switch {
	case a.CPU != b.CPU:
		return fmt.Sprintf("cpu %q vs %q", a.CPU, b.CPU)
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	return ""
}

func currentMachine(root string) machine {
	m := machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
		Tree:       treeDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest hashes every .go, go.mod and go.sum file under root, skipping
// hidden directories (the build directory and VCS metadata among them).
func treeDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkKnobs refuses to run under any CORADD_* environment variable: both
// sides of a comparison must run the library's defaults.
func checkKnobs(environ []string) error {
	var set []string
	for _, kv := range environ {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "CORADD_") {
			set = append(set, k)
		}
	}
	if len(set) == 0 {
		return nil
	}
	sort.Strings(set)
	return fmt.Errorf("refusing to run with %s set: the benchmark measures library defaults; unset them", strings.Join(set, ", "))
}

// peakRSSMB reads VmHWM of a process ("self" or a pid) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/" + pid + "/status")
}

// relationDigest hashes a relation's clustering and rows.
func relationDigest(rel *storage.Relation) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range rel.ClusterKey {
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		h.Write(buf[:])
	}
	for _, row := range rel.Rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// designsDigest hashes each design's name, budget, chosen objects'
// structural keys and routing, in order.
func designsDigest(ds []*designer.Design) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintf(h, "%s %d\n", d.Name, d.Budget)
		for _, md := range d.Chosen {
			fmt.Fprintf(h, "%x\n", md.Key())
		}
		fmt.Fprintln(h, d.Routing)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// memWindow accumulates allocation over the timed windows of a run.
type memWindow struct {
	alloc, gc uint64
	mark      runtime.MemStats
}

func (w *memWindow) start() { runtime.ReadMemStats(&w.mark) }

func (w *memWindow) stop() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc += ms.TotalAlloc - w.mark.TotalAlloc
	w.gc += uint64(ms.NumGC - w.mark.NumGC)
}

// record stores the runtime.* metrics divided by per (the number of timed
// repetitions).
func (w *memWindow) record(r *result, per float64) {
	r.set("runtime.alloc_mb", float64(w.alloc)/(1<<20)/per, 1)
	r.set("runtime.gc_cycles", float64(w.gc)/per, 1)
}

// cpuSeconds is the user plus system CPU time of this process so far, all
// threads included.
func cpuSeconds() float64 { return rusageSeconds(syscall.RUSAGE_SELF) }

// threadCPUSeconds is the user plus system CPU time of the calling thread
// so far; the caller locks its goroutine to the thread.
func threadCPUSeconds() float64 { return rusageSeconds(syscall.RUSAGE_THREAD) }

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// procCPUSeconds is the user plus system CPU time of process pid so far,
// read from /proc/<pid>/stat in clock ticks of 1/100 s (Linux's USER_HZ).
func procCPUSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name, field 2, may hold spaces; the fields after its
	// closing parenthesis start at field 3, so utime and stime (14, 15)
	// are the 12th and 13th.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("malformed /proc/" + pid + "/stat")
	}
	var ticks float64
	for _, s := range f[11:13] {
		t, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return ticks / 100, nil
}
