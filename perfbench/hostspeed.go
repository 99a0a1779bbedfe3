package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a shared virtual machine whose speed drifts
// with what the neighbours do to the cores underneath: over a few
// minutes serve-hot's CPU per query moved from 19 to 23 us with the
// same code and inputs, and qps and the latency percentiles moved with
// it. A fixed piece of work, the speed probe, is timed throughout every
// run: at idle points (before each measurement window, sweep or
// regeneration, while the programs under test wait) and, on one
// thread, every second of a replay regeneration, which keeps only one
// CPU busy for many seconds. The end-to-end time figures are reported
// at the speed of the machine the benchmark was defined on: each time
// is multiplied, and each rate divided, by referenceProbe / the run's
// median probe. The figures as measured go to the info line as
// raw.<metric>. Over ten runs per workload on a drifting host (probe
// factor 0.77 to 1.04), this took the spread between quartiles of the
// time figures from up to 0.32 of their median to at most 0.10.

// referenceProbe is the probe's median CPU time on the machine the
// benchmark was defined on: 2 vCPUs of an Intel Xeon KVM guest, Go 1.24.
const referenceProbe = 7.9e6 // ns

// probeRounds and probeSyscalls size one probe: about 2.7 ms of
// dependent table loads and 5 ms of system calls on that machine.
const (
	probeRounds   = 1 << 19
	probeSyscalls = 20000
)

// probeTable is each CPU's working set: 256 KiB, beyond a core's share
// of L1 and L2, so the probe feels the cache contention the servers
// feel.
var probeTable = make([][1 << 16]uint32, runtime.NumCPU())

// probeSink keeps the probe's result alive.
var probeSink = make([]uint32, runtime.NumCPU())

// speedProbe runs the probe on every CPU at once and returns the mean
// thread CPU time it took, in nanoseconds. The work mixes the two kinds
// the programs under test do: dependent loads from a table (parsing,
// cache scans) and system calls (every datagram costs two). Thread CPU
// time leaves out the time a probe waits for a CPU, so the probe reads
// how fast the cores run, not how busy they are.
func speedProbe() float64 {
	n := len(probeTable)
	times := make([]float64, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			times[k] = probeThread(k)
		}(k)
	}
	wg.Wait()
	var sum float64
	for _, v := range times {
		sum += v
	}
	return sum / float64(n)
}

// probeThread runs the probe once on a thread of its own, with the
// working set of CPU k, and returns the thread CPU time it took.
func probeThread(k int) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := &probeTable[k]
	t0 := threadCPU()
	x := uint32(2166136261) + uint32(k)
	for i := 0; i < probeRounds; i++ {
		j := x & (1<<16 - 1)
		x = (x ^ t[j]) * 16777619
		t[i&(1<<16-1)] += x
	}
	for i := 0; i < probeSyscalls; i++ {
		syscall.Syscall(syscall.SYS_GETPPID, 0, 0, 0) // cannot fail
	}
	probeSink[k] = x
	return float64(threadCPU() - t0)
}

// probeWhile takes a one-thread probe reading every second until stop
// is closed, for a program under test that keeps one CPU busy for many
// seconds; the readings join the run's once it returns.
func probeWhile(stop <-chan struct{}) (readings <-chan []float64) {
	out := make(chan []float64, 1)
	go func() {
		var ps []float64
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- ps
				return
			case <-tick.C:
				ps = append(ps, probeThread(0))
			}
		}
	}()
	return out
}

// threadCPU returns the calling thread's CPU time. Linux has the clock
// on every supported kernel and the argument is valid, so the call
// cannot fail.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// hostSpeed collects a run's probe readings. The workloads probe from
// their main goroutine only, at points where the programs under test
// are idle.
var hostSpeed struct{ probes []float64 }

// probeHost takes k probe readings.
func probeHost(k int) {
	for i := 0; i < k; i++ {
		hostSpeed.probes = append(hostSpeed.probes, speedProbe())
	}
}

// atReferenceSpeed rescales the run's time figures to the reference
// machine's speed and records the measured ones in the info line. Units
// of time shrink by the factor a slow host stretched them; rates grow
// by it. A run that took no probe reading is left as measured.
func atReferenceSpeed(r *run) {
	if len(hostSpeed.probes) == 0 {
		return
	}
	slow := median(hostSpeed.probes) / referenceProbe
	r.info["speed.probes"] = len(hostSpeed.probes)
	r.info["speed.slowdown"] = slow
	for _, name := range sortedKeys(r.res.Metrics) {
		m := r.res.Metrics[name]
		switch m.Unit {
		case "s", "ms", "us", "ns":
			r.info["raw."+name] = m.Value
			m.Value /= slow
		case "1/s":
			r.info["raw."+name] = m.Value
			m.Value *= slow
		default:
			continue
		}
		r.res.Metrics[name] = m
	}
}
