package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 257
		counts := make([]int64, n)
		ForEach(n, workers, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndOne(t *testing.T) {
	ran := 0
	ForEach(0, 4, func(int) { ran++ })
	if ran != 0 {
		t.Errorf("n=0 ran %d times", ran)
	}
	ForEach(1, 4, func(i int) { ran += i + 1 })
	if ran != 1 {
		t.Errorf("n=1: ran=%d", ran)
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	n := 40
	err := ForEachErr(n, 8, func(i int) error {
		if i%7 == 3 {
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Fatalf("got %v, want the lowest-index failure (3)", err)
	}
	if err := ForEachErr(n, 8, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestForEachErrRunsAllDespiteFailures(t *testing.T) {
	n := 64
	var ran int64
	wantErr := errors.New("boom")
	err := ForEachErr(n, 4, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v", err)
	}
	if ran != int64(n) {
		t.Fatalf("ran %d of %d despite failure (no short-circuit allowed)", ran, n)
	}
}

// TestForEachRecoversWorkerPanics pins the panic contract: a panicking
// fn(i) surfaces on the caller goroutine as a *WorkerPanic carrying the
// LOWEST panicking index, its original value and the panic-site stack —
// identically at every worker count — and every other index still runs.
func TestForEachRecoversWorkerPanics(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		n := 50
		var ran int64
		var got *WorkerPanic
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: no panic surfaced", workers)
				}
				wp, ok := r.(*WorkerPanic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *WorkerPanic", workers, r)
				}
				got = wp
			}()
			ForEach(n, workers, func(i int) {
				atomic.AddInt64(&ran, 1)
				if i%11 == 5 {
					panic(fmt.Sprintf("poisoned %d", i))
				}
			})
		}()
		if got.Index != 5 {
			t.Errorf("workers=%d: surfaced index %d, want the lowest (5)", workers, got.Index)
		}
		if want := "poisoned 5"; got.Value != want {
			t.Errorf("workers=%d: surfaced value %v, want %q", workers, got.Value, want)
		}
		if len(got.Stack) == 0 {
			t.Errorf("workers=%d: no captured stack", workers)
		}
		if ran != int64(n) {
			t.Errorf("workers=%d: ran %d of %d despite panic (no short-circuit allowed)", workers, ran, n)
		}
	}
}

// TestForEachDeterministicSlots exercises the positional-result contract
// under the race detector: concurrent writers each own one slot, and the
// assembled result must equal the sequential one.
func TestForEachDeterministicSlots(t *testing.T) {
	n := 500
	got := make([]int, n)
	ForEach(n, 16, func(i int) { got[i] = i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

// orderedRef is Ordered's contract computed sequentially: task i sees the
// minimum of seed and the values of results 0..i−W.
func orderedRef(n, workers int, seed float64, run func(i int, inc float64) float64) (results, incs []float64) {
	w := min(max(workers, 1), n)
	results, incs = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		inc := seed
		for j := 0; j <= i-w; j++ {
			inc = min(inc, results[j])
		}
		incs[i], results[i] = inc, run(i, inc)
	}
	return results, incs
}

// TestOrderedDeterministicAcrossWorkers: at every worker count the
// incumbent each task sees, and so every result, equals the sequential
// prefix fold, however the tasks' completion order is shuffled.
func TestOrderedDeterministicAcrossWorkers(t *testing.T) {
	const n, seed = 37, 100.0
	// run's result depends on the incumbent it was handed, so a task that
	// saw a different prefix would report a different value.
	run := func(i int, inc float64) float64 { return float64((i*29)%17) + inc/8 }
	for workers := 1; workers <= 8; workers++ {
		wantRes, wantInc := orderedRef(n, workers, seed, run)
		for rep := 0; rep < 5; rep++ {
			incs := make([]float64, n)
			got := Ordered(n, workers, seed, func(r float64) float64 { return r },
				func(i int, inc float64) float64 {
					incs[i] = inc
					// Perturb completion order: early tasks finish late.
					time.Sleep(time.Duration((n-i)*(rep+1)%7) * 50 * time.Microsecond)
					return run(i, inc)
				})
			for i := range got {
				if got[i] != wantRes[i] || incs[i] != wantInc[i] {
					t.Fatalf("workers=%d rep=%d task %d: result %v inc %v, want %v %v",
						workers, rep, i, got[i], incs[i], wantRes[i], wantInc[i])
				}
			}
		}
	}
}

// TestOrderedPanicReleasesWaiters: a panicking task still releases the
// tasks waiting on it (no deadlock), every other task runs, and Ordered
// re-panics with the lowest panicking index at any worker count.
func TestOrderedPanicReleasesWaiters(t *testing.T) {
	const n = 24
	for workers := 1; workers <= 8; workers++ {
		var ran atomic.Int64
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			Ordered(n, workers, 0, func(r int) float64 { return float64(r) },
				func(i int, inc float64) int {
					ran.Add(1)
					if i == 3 || i == 11 {
						panic(fmt.Sprintf("task %d", i))
					}
					return i
				})
		}()
		select {
		case r := <-done:
			wp, ok := r.(*WorkerPanic)
			if !ok || wp.Index != 3 || wp.Value != "task 3" {
				t.Fatalf("workers=%d: recovered %v, want *WorkerPanic for task 3", workers, r)
			}
			if got := ran.Load(); got != n {
				t.Fatalf("workers=%d: %d of %d tasks ran", workers, got, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: Ordered deadlocked after a task panic", workers)
		}
	}
}
