package main

import (
	"encoding/binary"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// querySource yields the workload's i-th query: its wire-format name
// and the client /24 sent as ECS. name may write into scratch.
type querySource interface {
	query(i int64, scratch []byte) (qname []byte, client [3]byte)
}

// hotQueries cycles through a fixed list of (name, client) pairs.
type hotQueries struct {
	names   [][]byte
	pairs   []hotPair
	offset  int64
	clients [][3]byte
}

type hotPair struct {
	name   int32
	client int32
}

func (h *hotQueries) query(i int64, _ []byte) ([]byte, [3]byte) {
	p := h.pairs[(h.offset+i)%int64(len(h.pairs))]
	return h.names[p.name], h.clients[p.client]
}

// coldQueries gives every index its own name, u<tag>x<i>.<zone>, with
// clients drawn from the hot workload's population.
type coldQueries struct {
	tag     string
	zone    []byte // wire form
	clients [][3]byte
	order   []int32
}

func (c *coldQueries) query(i int64, scratch []byte) ([]byte, [3]byte) {
	label := append(scratch[:1], 'u')
	label = append(label, c.tag...)
	label = append(label, 'x')
	label = appendInt(label, i)
	label[0] = byte(len(label) - 1)
	label = append(label, c.zone...)
	return label, c.clients[c.order[i%int64(len(c.order))]]
}

func appendInt(b []byte, v int64) []byte {
	var tmp [20]byte
	n := len(tmp)
	for {
		n--
		tmp[n] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[n:]...)
}

// phaseResult summarises one load phase.
type phaseResult struct {
	sent, answered, failed int64
	// retransmits counts queries sent a second time after retryAfter.
	retransmits int64
	elapsed     time.Duration
	// firstErr is the first validation failure seen, for the report.
	firstErr error
	// lat holds per-query latencies in ms: for open-loop phases one per
	// query, failed ones +Inf; for closed loops one per valid answer.
	// late holds how late each open-loop send was, in ms.
	lat, late []float64
}

func (r *phaseResult) add(o phaseResult) {
	r.elapsed += o.elapsed
	r.lat = append(r.lat, o.lat...)
	r.sent += o.sent
	r.retransmits += o.retransmits
	r.answered += o.answered
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// runClosed drives addr with a fixed in-flight window per worker until
// dur has passed or limit queries (0 = no limit) have been sent, then
// drains. Each worker owns one socket and one goroutine; indices come
// from next, so no query index is sent twice.
func runClosed(addr *net.UDPAddr, src querySource, next *atomic.Int64, limit int64, workers, window int, dur time.Duration) phaseResult {
	return runClosedTraced(addr, src, next, limit, workers, window, dur, nil)
}

// runClosedTraced is runClosed recording a client span for every valid
// answer into spans when spans is non-nil.
func runClosedTraced(addr *net.UDPAddr, src querySource, next *atomic.Int64, limit int64, workers, window int, dur time.Duration, spans *spanLog) phaseResult {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out phaseResult
	)
	start := time.Now()
	stopAt := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Each worker draws IDs from its own slice of the ID space, so
		// IDs are unique across the generator's sockets and a server-side
		// span can be matched to its client by ID.
		ids := idRange{first: uint16(w * (1 << 16) / workers), size: 1 << 16 / workers}
		go func() {
			defer wg.Done()
			r := closedWorker(addr, src, next, limit, window, stopAt, ids, spans)
			mu.Lock()
			out.add(r)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start) // the workers' elapsed sums are not wall time
	return out
}

type flightSlot struct {
	i      int64
	sent   time.Time // first send, for the client span
	resent time.Time // latest send, for the retransmission timer
	live   bool
	tries  int // retransmissions so far
}

// idRange is a worker's share of the 16-bit ID space.
type idRange struct {
	first uint16
	size  int
}

// retryAfter is how long the generator waits for an answer before it
// retransmits a query, as a stub resolver does, up to maxRetransmits
// times; a query still unanswered retryAfter after its last
// retransmission has failed. A shared machine can stall a server long
// enough for its socket buffer to overflow, and a lost datagram there
// is a late answer to the client, not a lost one. One retransmission
// was not always enough: in one of ten serve-hot runs 2 of 593 553
// queries failed while the recursor answered every query it received,
// so both of their datagrams had been lost in a socket buffer.
const (
	retryAfter     = 250 * time.Millisecond
	maxRetransmits = 3
)

func closedWorker(addr *net.UDPAddr, src querySource, next *atomic.Int64, limit int64, window int, stopAt time.Time, ids idRange, spans *spanLog) phaseResult {
	var r phaseResult
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		r.failed++
		r.firstErr = err
		return r
	}
	defer conn.Close()
	_ = conn.SetReadBuffer(4 << 20) // best effort; the kernel caps it
	slots := make([]flightSlot, 1<<16)
	var (
		seq      int
		inflight int
		sendBuf  = make([]byte, 0, 512)
		scratch  = make([]byte, 0, 256)
		recvBuf  = make([]byte, 4096)
	)
	write := func(id uint16, s *flightSlot) {
		qname, client := src.query(s.i, scratch)
		sendBuf = appendQuery(sendBuf[:0], id, qname, client)
		if _, err := conn.Write(sendBuf); err != nil && r.firstErr == nil {
			r.firstErr = err // the retransmission timer retries it
		}
	}
	send := func() {
		i := next.Add(1) - 1
		if limit > 0 && i >= limit {
			return
		}
		id := ids.first + uint16(seq%ids.size)
		seq++
		if slots[id].live { // unanswered after the ID space went round
			r.failed++
			inflight--
		}
		now := time.Now()
		slots[id] = flightSlot{i: i, sent: now, resent: now, live: true}
		inflight++
		r.sent++
		write(id, &slots[id])
	}
	// expire retransmits each query unanswered for retryAfter, up to
	// maxRetransmits times, and then fails it; but only once the socket
	// is drained, since after a stall of this process the answer may be
	// waiting in its buffer.
	expire := func(now time.Time, stopping, drained bool) {
		for k := 0; k < ids.size; k++ {
			id := ids.first + uint16(k)
			s := &slots[id]
			if !s.live || now.Sub(s.resent) < retryAfter {
				continue
			}
			if s.tries < maxRetransmits {
				s.tries++
				s.resent = now
				r.retransmits++
				write(id, s)
				continue
			}
			if !drained {
				continue
			}
			s.live = false
			inflight--
			r.failed++
			if !stopping {
				send()
			}
		}
	}
	for k := 0; k < window; k++ {
		send()
	}
	for received := 0; inflight > 0; received++ {
		now := time.Now()
		stopping := now.After(stopAt)
		if received%1024 == 0 {
			expire(now, stopping, false)
		}
		if err := conn.SetReadDeadline(now.Add(retryAfter / 2)); err != nil {
			break
		}
		n, err := conn.Read(recvBuf)
		if err != nil {
			expire(time.Now(), stopping, true)
			continue
		}
		if n < 2 {
			continue
		}
		id := binary.BigEndian.Uint16(recvBuf)
		s := &slots[id]
		if !s.live {
			continue // a duplicate, or an answer to a query written off
		}
		s.live = false
		inflight--
		qname, client := src.query(s.i, scratch)
		if err := validateAnswer(recvBuf[:n], id, qname, client); err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		} else {
			r.answered++
			r.lat = append(r.lat, float64(time.Since(s.sent))/float64(time.Millisecond))
			if spans != nil {
				spans.add(span{id: id, start: int64(s.sent.Sub(traceBase)), end: sinceBase()})
			}
		}
		if !stopping {
			send()
		}
	}
	return r
}

// dueTime is the offset from the phase start at which open-loop query
// i is due: queries are spaced evenly at rate per second.
func dueTime(i int64, rate float64) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / rate)
}

// indexForID recovers the open-loop query index from a 16-bit response
// ID. newest is the highest index that can have been sent by now; an
// answer can only belong to one of the 65536 indices up to it, and the
// generator's timeout keeps every outstanding query well inside that
// span.
func indexForID(id uint16, newest int64) int64 {
	return newest - int64(uint16(newest)-id)
}

// sleepUntil blocks until t. time.Sleep rounds short waits up to the
// runtime timer's granularity, as much as a millisecond, which would
// make the generator late by more than the latencies it measures; a
// nanosleep blocks only this goroutine's thread, for as long as asked.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only sends early
}

// runOpen sends n queries at a fixed rate from one socket, whatever the
// responses do, and times each from its due time. One goroutine sends
// and one receives; the receiver retransmits a query unanswered after
// retryAfter, up to maxRetransmits times, retryAfter apart. Latencies
// are +Inf for queries that fail or get no answer within timeout of the
// last due time.
func runOpen(addr *net.UDPAddr, src querySource, base int64, rate float64, n int64, timeout time.Duration) phaseResult {
	r := phaseResult{lat: make([]float64, n), late: make([]float64, n)}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		r.failed = n
		r.firstErr = err
		return r
	}
	defer conn.Close()
	_ = conn.SetReadBuffer(4 << 20) // best effort; the kernel caps it
	for i := range r.lat {
		r.lat[i] = math.Inf(1)
	}
	start := time.Now()
	end := start.Add(dueTime(n-1, rate) + timeout)

	var (
		wg       sync.WaitGroup
		sendErrs atomic.Int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 0, 512)
		scratch := make([]byte, 0, 256)
		for i := int64(0); i < n; i++ {
			due := start.Add(dueTime(i, rate))
			sleepUntil(due)
			qname, client := src.query(base+i, scratch)
			buf = appendQuery(buf[:0], uint16(i), qname, client)
			r.late[i] = float64(time.Since(due)) / float64(time.Millisecond)
			if _, err := conn.Write(buf); err != nil {
				sendErrs.Add(1)
			}
		}
	}()

	recvBuf := make([]byte, 4096)
	scratch := make([]byte, 0, 256)
	resendBuf := make([]byte, 0, 512)
	tries := make([]int8, n)
	var (
		answered, invalid int64
		firstErr          error
		scanFrom          int64
	)
	// expire retransmits every query due at least retryAfter ago and
	// still unanswered, each time another retryAfter has passed, up to
	// maxRetransmits times; the receiver owns lat and tries, and writes
	// on the shared socket are safe.
	expire := func(now time.Time) {
		limit := int64(float64(now.Sub(start)-retryAfter) / float64(time.Second) * rate)
		if limit >= n {
			limit = n - 1
		}
		for scanFrom <= limit && !math.IsInf(r.lat[scanFrom], 1) {
			scanFrom++
		}
		for i := scanFrom; i <= limit; i++ {
			if !math.IsInf(r.lat[i], 1) || tries[i] >= maxRetransmits ||
				now.Sub(start.Add(dueTime(i, rate))) < time.Duration(tries[i]+1)*retryAfter {
				continue
			}
			tries[i]++
			r.retransmits++
			qname, client := src.query(base+i, scratch)
			resendBuf = appendQuery(resendBuf[:0], uint16(i), qname, client)
			_, _ = conn.Write(resendBuf) // a failed resend leaves the query unanswered
		}
	}
	for k := 0; answered+invalid < n; k++ {
		now := time.Now()
		if now.After(end) {
			break // the rest count as failed
		}
		if k%1024 == 0 {
			expire(now)
		}
		deadline := now.Add(retryAfter / 2)
		if deadline.After(end) {
			deadline = end
		}
		if err := conn.SetReadDeadline(deadline); err != nil {
			break
		}
		m, err := conn.Read(recvBuf)
		now = time.Now()
		if err != nil {
			expire(now)
			continue
		}
		if m < 2 {
			continue
		}
		newest := int64(float64(now.Sub(start)) / float64(time.Second) * rate)
		if newest >= n {
			newest = n - 1
		}
		i := indexForID(binary.BigEndian.Uint16(recvBuf), newest)
		if i < 0 || !math.IsInf(r.lat[i], 1) {
			continue // stray or duplicate
		}
		qname, client := src.query(base+i, scratch)
		if err := validateAnswer(recvBuf[:m], uint16(i), qname, client); err != nil {
			invalid++
			r.lat[i] = math.NaN() // counted, not timed
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		answered++
		r.lat[i] = float64(now.Sub(start.Add(dueTime(i, rate)))) / float64(time.Millisecond)
	}
	wg.Wait()
	for i := range r.lat {
		if math.IsNaN(r.lat[i]) {
			r.lat[i] = math.Inf(1)
		}
	}
	r.sent = n - sendErrs.Load()
	r.answered = answered
	r.failed = n - answered
	r.firstErr = firstErr
	r.elapsed = time.Since(start)
	return r
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// values: the smallest value with at least p of the sample at or below
// it. values is sorted in place. An empty sample gives NaN.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	rank := int(math.Ceil(p * float64(len(values))))
	if rank < 1 {
		rank = 1
	}
	return values[rank-1]
}

// median returns the middle of values (the mean of the middle two for
// an even count), leaving values unsorted.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}
