package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by a fifth
// or more over minutes as neighbours come and go, and the drift shows in
// CPU time as much as in wall time (on a 2-core host the same capped
// design sweep, 10M search nodes every time, took 14.2 CPU seconds in one
// run and 10.1 in another ten minutes later). No repetition inside one run
// averages that out, so the end-to-end task metric divides the task's CPU
// time by the CPU time of a fixed reference kernel sampled on its own
// thread while the task runs: work that does not depend on the library,
// whose cost moves with the host's speed. Sampled between calls instead,
// the kernel missed most of the drift the task saw; sampled throughout,
// its mean over a task tracked the task (correlation 0.85 to 0.92 over
// 8 to 16 s windows) and the ratio's spread was half the raw CPU time's.

// refGap is the pause between two passes of the sampler; a pass takes
// about 25 ms, so the sampler keeps about a seventh of one core busy.
const refGap = 150 * time.Millisecond

var (
	refKeys = make([]uint64, 1<<17)
	refMap  = make(map[uint64]uint64, 1<<14)
	// refSink keeps the kernel's results live.
	refSink uint64
)

// refPass is one pass of the reference kernel: generate keys with a
// xorshift generator, sort them, count them in a hash map, probe the map
// and run a short floating-point recurrence. Its buffers are allocated
// once and small (1 MB of keys, a map of at most 16k entries), so a pass
// allocates nothing, gives the collector no work and adds little to the
// process's peak RSS. Only the sampler goroutine calls it.
func refPass() {
	x := uint64(88172645463325252)
	for i := range refKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refKeys[i] = x >> 50
	}
	slices.Sort(refKeys)
	clear(refMap)
	for i := range refKeys {
		refMap[refKeys[(i*7919)&(len(refKeys)-1)]]++
	}
	var acc uint64
	for i := range refKeys {
		acc += refMap[uint64(i)&(1<<14-1)]
	}
	f := 0.5
	for i := 0; i < 1<<19; i++ {
		f = 3.9 * f * (1 - f)
	}
	refSink += acc + math.Float64bits(f)
}

// refSampler runs one reference pass every refGap on a thread of its own,
// counting the passes and their CPU time, until halted.
type refSampler struct {
	mu   sync.Mutex
	tot  refMark
	stop chan struct{}
	done chan struct{}
}

// refMark is a sampler's running total: passes run and their CPU seconds.
type refMark struct {
	passes int
	cpu    float64
}

func startRefSampler() *refSampler {
	s := &refSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Locked to one thread, the passes' CPU time is the thread's.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(refGap)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			c0 := threadCPUSeconds()
			refPass()
			d := threadCPUSeconds() - c0
			s.mu.Lock()
			s.tot.passes++
			s.tot.cpu += d
			s.mu.Unlock()
		}
	}()
	return s
}

// mark returns the totals so far.
func (s *refSampler) mark() refMark {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tot
}

// halt stops the sampler and waits for its goroutine to end.
func (s *refSampler) halt() {
	close(s.stop)
	<-s.done
}

// refWindow is what the sampler did between two marks: the CPU seconds its
// passes took (which the process's CPU time includes) and the mean CPU
// seconds of one pass, 0 without a pass.
func refWindow(from, to refMark) (cpu, perPass float64) {
	cpu = to.cpu - from.cpu
	if n := to.passes - from.passes; n > 0 {
		perPass = cpu / float64(n)
	}
	return cpu, perPass
}
