package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// traceBase is the origin of every span timestamp.
var traceBase = time.Now()

func sinceBase() int64 { return int64(time.Since(traceBase)) }

// span is one call into a layer. Spans of one request share an
// identity: the client's DNS ID for a served query, the query name for
// upstream and authority calls, the job index for a scan probe.
type span struct {
	id         uint16
	job        int64
	name       string
	start, end int64 // ns since traceBase
}

func (s span) dur() int64 { return s.end - s.start }

// spanLog keeps one layer's spans in memory. Slots are claimed
// atomically, so recording neither locks nor allocates; spans past the
// capacity are counted and dropped.
type spanLog struct {
	layer string
	spans []span
	n     atomic.Int64
}

func newSpanLog(layer string, capacity int) *spanLog {
	return &spanLog{layer: layer, spans: make([]span, capacity)}
}

func (l *spanLog) add(s span) {
	if i := l.n.Add(1) - 1; i < int64(len(l.spans)) {
		l.spans[i] = s
	}
}

// all returns the recorded spans; call it only once every recording
// goroutine has finished.
func (l *spanLog) all() []span {
	n := l.n.Load()
	if n > int64(len(l.spans)) {
		n = int64(len(l.spans))
	}
	return l.spans[:n]
}

// writeSpans writes every log's spans to path, one per line, when the
// traced run ends.
func writeSpans(path string, logs ...*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tid\tjob\tname\tstart_ns\tend_ns")
	for _, l := range logs {
		for _, s := range l.all() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\n", l.layer, s.id, s.job, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex finds, for a parent span, the child spans recorded under
// the same key that lie inside the parent's interval.
type spanIndex[K comparable] struct {
	by map[K][]span
}

func indexSpans[K comparable](spans []span, key func(span) K) spanIndex[K] {
	ix := spanIndex[K]{by: map[K][]span{}}
	for _, s := range spans {
		k := key(s)
		ix.by[k] = append(ix.by[k], s)
	}
	for _, v := range ix.by {
		sort.Slice(v, func(i, j int) bool { return v[i].start < v[j].start })
	}
	return ix
}

// within returns the total duration and count of k's spans that start
// and end inside [start, end].
func (ix spanIndex[K]) within(k K, start, end int64) (total int64, n int) {
	v := ix.by[k]
	i := sort.Search(len(v), func(i int) bool { return v[i].start >= start })
	for ; i < len(v) && v[i].start <= end; i++ {
		if v[i].end <= end {
			total += v[i].dur()
			n++
		}
	}
	return total, n
}

// mean accumulates an average.
type mean struct {
	sum float64
	n   int64
}

func (m *mean) add(v float64) { m.sum += v; m.n++ }

// value is the mean, or 0 when nothing was recorded: a layer the
// workload never called spent no time.
func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// allocMeter counts heap allocations around calls made one at a time,
// reading runtime.MemStats before and after each; with nothing else
// running, the difference is what the call allocated.
type allocMeter struct {
	on      atomic.Bool
	mallocs atomic.Uint64
	calls   atomic.Int64
}

// measure runs fn and, when the meter is on, adds its allocations.
func (m *allocMeter) measure(fn func()) {
	if !m.on.Load() {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	m.mallocs.Add(after.Mallocs - before.Mallocs)
	m.calls.Add(1)
}

func (m *allocMeter) reset() {
	m.mallocs.Store(0)
	m.calls.Store(0)
}

// perCall is the mean allocations per measured call.
func (m *allocMeter) perCall() float64 {
	if c := m.calls.Load(); c > 0 {
		return float64(m.mallocs.Load()) / float64(c)
	}
	return 0
}

// allocsOf returns the mean allocations of fn over n serial calls.
func allocsOf(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// nsPer returns the mean wall time of fn over n serial calls.
func nsPer(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}
