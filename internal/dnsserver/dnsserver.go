// Package dnsserver provides a real UDP+TCP DNS server for the module's
// handlers: the same Handler interface the in-memory simulations use can
// be exposed on a socket, which is how the authdns and recursor binaries
// and the live-wire example run. It handles EDNS0 buffer sizes, UDP
// truncation with TCP fallback, and concurrent serving with graceful
// shutdown.
//
// The server is built to stay correct under overload: UDP dispatch runs
// on a bounded worker pool (MaxInflight) with a configurable overflow
// policy, TCP connections are capped (MaxConns) with idle and write
// deadlines, refused clients are response-rate-limited with the standard
// slip/TC mechanism (see rrl.go), handler panics are recovered per query
// and answered SERVFAIL, and every query read off the wire is accounted
// for in ServerStats. Shutdown(ctx) drains in-flight work gracefully;
// Close force-closes.
package dnsserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"time"

	"ecsdns/internal/dnswire"
)

// Handler answers DNS queries. It matches netem.Handler so simulation
// nodes can be served on real sockets unchanged.
type Handler interface {
	HandleDNS(from netip.Addr, query *dnswire.Message) *dnswire.Message
}

// OverflowPolicy decides what happens to a UDP query when the admission
// queue is full.
type OverflowPolicy int

const (
	// OverflowDrop silently discards overflow queries — the cheapest
	// shed, steering well-behaved clients into their retry path.
	OverflowDrop OverflowPolicy = iota
	// OverflowServFail answers overflow queries with SERVFAIL, an
	// explicit signal at the cost of one parse + one reply per shed.
	OverflowServFail
)

// Serving defaults.
const (
	// DefaultMaxInflight is the UDP worker-pool size when MaxInflight
	// is left zero.
	DefaultMaxInflight = 256
	// DefaultMaxConns is the concurrent-TCP-connection cap when
	// MaxConns is left zero.
	DefaultMaxConns = 128
)

// Server serves DNS over UDP and TCP on the same address. Configuration
// fields must be set before Start.
type Server struct {
	handler Handler
	// ReadTimeout bounds per-connection TCP reads; between queries it
	// acts as the idle timeout.
	ReadTimeout time.Duration
	// WriteTimeout bounds each TCP response write, so one stalled peer
	// cannot pin a connection goroutine forever.
	WriteTimeout time.Duration
	// MaxInflight bounds concurrently-dispatched UDP queries: the
	// worker-pool size and the admission-queue depth (0 = the
	// DefaultMaxInflight of 256, negative = 1).
	MaxInflight int
	// Overflow is the shed policy once the admission queue is full.
	Overflow OverflowPolicy
	// MaxConns bounds concurrent TCP connections (0 = DefaultMaxConns,
	// negative = unlimited). Excess accepts are closed immediately.
	MaxConns int
	// RRL, when non-nil, rate-limits UDP responses per client prefix
	// with the slip/TC mechanism. TCP is never rate-limited: it is the
	// escape valve slips steer legitimate clients to.
	RRL *RRLConfig
	// Now supplies the RRL token-refill clock (default time.Now). Chaos
	// harnesses install a netem virtual clock here so shed/slip counts
	// are exact, deterministic functions of the offered load.
	Now func() time.Time

	mu     sync.Mutex
	pc     net.PacketConn
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	queue  chan udpPacket
	rrl    *rrl
	// loops tracks the two accept/read loops; workers the UDP pool;
	// handlers the per-connection TCP goroutines. They are separate so
	// shutdown can forbid new spawns (via the closed flag, checked
	// under mu) before waiting — a single WaitGroup would race Add
	// against Wait — and so the queue can be closed only after the UDP
	// read loop (its sole sender) has exited.
	loops    sync.WaitGroup
	workers  sync.WaitGroup
	handlers sync.WaitGroup

	closeSockets sync.Once
	closeQueue   sync.Once
	closeUDP     sync.Once

	stats counters
}

// udpPacket is one received datagram queued for the worker pool. bp is
// the pooled backing buffer pkt lives in; the worker returns it to
// udpBufPool once the packet has been served.
type udpPacket struct {
	pkt   []byte
	bp    *[]byte
	raddr net.Addr
	from  netip.AddrPort
}

// udpBufPool recycles the per-datagram copies the UDP read loop hands
// to the worker pool, and the response buffers workers pack into —
// the two per-query allocations that would otherwise dominate the
// serving hot path.
var udpBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

// New creates a server for the handler.
func New(h Handler) *Server {
	return &Server{
		handler:      h,
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 5 * time.Second,
	}
}

func (s *Server) maxInflight() int {
	switch {
	case s.MaxInflight > 0:
		return s.MaxInflight
	case s.MaxInflight < 0:
		return 1
	default:
		return DefaultMaxInflight
	}
}

func (s *Server) maxConns() int {
	switch {
	case s.MaxConns > 0:
		return s.MaxConns
	case s.MaxConns < 0:
		return 0 // unlimited
	default:
		return DefaultMaxConns
	}
}

func (s *Server) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// Start binds UDP and TCP sockets on addr (host:port; port 0 picks an
// ephemeral port, with TCP bound to whatever port UDP got) and begins
// serving. It returns the bound address.
func (s *Server) Start(addr string) (netip.AddrPort, error) {
	pc, ln, err := listenPair(addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	bound := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	var rl *rrl
	if s.RRL != nil {
		rl, err = newRRL(*s.RRL, s.now)
		if err != nil {
			pc.Close()
			ln.Close()
			return netip.AddrPort{}, err
		}
	}
	workers := s.maxInflight()
	s.mu.Lock()
	s.pc, s.ln = pc, ln
	s.conns = make(map[net.Conn]struct{})
	s.queue = make(chan udpPacket, workers)
	s.rrl = rl
	s.mu.Unlock()
	s.loops.Add(2)
	go s.serveUDP(pc)
	go s.serveTCP(ln)
	s.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go s.udpWorker(pc)
	}
	return bound, nil
}

// listenPair binds UDP on addr and TCP on the port UDP got. For port 0
// the kernel picks a port free for UDP, which a TCP socket may still
// hold (a client connection in TIME_WAIT, say): then it picks again.
func listenPair(addr string) (net.PacketConn, net.Listener, error) {
	_, port, _ := net.SplitHostPort(addr) // a bad addr fails ListenPacket below
	for try := 0; ; try++ {
		pc, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, nil, fmt.Errorf("dnsserver: udp listen: %w", err)
		}
		ln, err := net.Listen("tcp", pc.LocalAddr().String())
		if err == nil {
			return pc, ln, nil
		}
		pc.Close()
		if port != "0" || try == 20 || !errors.Is(err, syscall.EADDRINUSE) {
			return nil, nil, fmt.Errorf("dnsserver: tcp listen: %w", err)
		}
	}
}

// beginShutdown marks the server closed, stops new intake (the TCP
// listener is closed; the UDP socket stops reading via an expired
// deadline but stays open so workers can still write answers for
// already-admitted queries), and nudges every open TCP connection's
// read deadline so idle connections stop waiting for a next query. It
// is idempotent.
func (s *Server) beginShutdown() {
	s.closeSockets.Do(func() {
		s.mu.Lock()
		s.closed = true
		pc, ln := s.pc, s.ln
		conns := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		if pc != nil {
			pc.SetReadDeadline(time.Now())
		}
		if ln != nil {
			ln.Close()
		}
		for _, c := range conns {
			// Unblocks a read waiting for the next query; a query
			// already read keeps being served (serveConn re-checks the
			// closed flag only between frames).
			c.SetReadDeadline(time.Now())
		}
	})
}

// finishShutdown waits out the serve loops, closes the admission queue
// (safe: the UDP read loop, its only sender, has exited), waits for the
// worker pool and the TCP connection goroutines, then closes the UDP
// socket — only now, so draining workers could still send their
// answers.
func (s *Server) finishShutdown() {
	s.loops.Wait()
	s.closeQueue.Do(func() {
		s.mu.Lock()
		q := s.queue
		s.mu.Unlock()
		if q != nil {
			close(q)
		}
	})
	s.workers.Wait()
	s.handlers.Wait()
	s.closeUDP.Do(func() {
		s.mu.Lock()
		pc := s.pc
		s.mu.Unlock()
		if pc != nil {
			pc.Close()
		}
	})
}

// forceCloseConns closes every open TCP connection, unblocking stalled
// reads and writes.
func (s *Server) forceCloseConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Shutdown gracefully drains the server: it stops accepting new
// queries, lets queued UDP packets and in-progress TCP queries finish,
// and returns once everything in flight has been answered. If ctx ends
// first, remaining TCP connections are force-closed and Shutdown
// returns ctx.Err() (handler goroutines then wind down in the
// background; Close can be used to wait them out).
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginShutdown()
	done := make(chan struct{})
	go s.drainNotify(done)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceCloseConns()
		return ctx.Err()
	}
}

// drainNotify runs the blocking drain and closes done once everything
// in flight has wound down. Its lifecycle is bounded by the server's
// WaitGroups: it deliberately outlives a Shutdown whose ctx expired —
// the documented background drain — and exits when the last worker and
// handler release.
func (s *Server) drainNotify(done chan<- struct{}) {
	defer close(done)
	s.finishShutdown()
}

// Close stops serving immediately: open TCP connections are
// force-closed, then in-flight handlers are waited out.
func (s *Server) Close() error {
	s.beginShutdown()
	s.forceCloseConns()
	s.finishShutdown()
	return nil
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) serveUDP(pc net.PacketConn) {
	defer s.loops.Done()
	buf := make([]byte, 65535)
	for {
		n, raddr, err := pc.ReadFrom(buf)
		if err != nil {
			if s.isClosed() {
				return
			}
			continue
		}
		s.stats.received.Add(1)
		bp := udpBufPool.Get().(*[]byte)
		pkt := append((*bp)[:0], buf[:n]...)
		*bp = pkt
		from := raddr.(*net.UDPAddr).AddrPort()
		select {
		case s.queue <- udpPacket{pkt: pkt, bp: bp, raddr: raddr, from: from}:
		default:
			// Admission control: the pool is saturated. Shed per the
			// configured policy instead of queueing unbounded work.
			s.stats.shed.Add(1)
			if s.Overflow == OverflowServFail {
				if data := refusalReply(pkt, dnswire.RCodeServFail, false); data != nil {
					pc.WriteTo(data, raddr)
				}
			}
			udpBufPool.Put(bp)
		}
	}
}

// udpWorker is one admission-pool worker: it applies RRL, then parses
// and dispatches each queued packet.
func (s *Server) udpWorker(pc net.PacketConn) {
	defer s.workers.Done()
	for p := range s.queue {
		s.stats.inflight.Add(1)
		s.serveUDPPacket(pc, p)
		s.stats.inflight.Add(-1)
		udpBufPool.Put(p.bp)
	}
}

// serveUDPPacket classifies one admitted datagram: RRL refusal (shed or
// slipped), then decode-and-dispatch via process.
//
//ecsalloc:zero
//ecsinvariant:handler counters
func (s *Server) serveUDPPacket(pc net.PacketConn, p udpPacket) {
	if s.rrl != nil {
		switch s.rrl.decide(p.from.Addr()) {
		case rrlDrop:
			s.stats.shed.Add(1)
			s.stats.rrlDropped.Add(1)
			return
		case rrlSlip:
			// The slip: a truncated (TC=1) empty reply that steers the
			// client to TCP, which is never rate-limited.
			s.stats.slipped.Add(1)
			//ecsalloc:sink refusal replies are off the fast path
			if data := refusalReply(p.pkt, dnswire.RCodeNoError, true); data != nil {
				pc.WriteTo(data, p.raddr)
			}
			return
		}
	}
	//ecsalloc:sink the resolver handler owns its allocations; the transport stays zero-alloc
	resp, query := s.process(p.from.Addr(), p.pkt)
	if resp == nil {
		return
	}
	limit := dnswire.MaxUDPSize
	if query != nil && query.EDNS != nil && int(query.EDNS.UDPSize) > limit {
		limit = int(query.EDNS.UDPSize)
	}
	rb := udpBufPool.Get().(*[]byte)
	data, err := resp.AppendTruncateTo((*rb)[:0], limit)
	if err != nil {
		udpBufPool.Put(rb)
		return
	}
	pc.WriteTo(data, p.raddr)
	*rb = data[:0] // keep any growth for the next response
	udpBufPool.Put(rb)
}

// admitConn registers a new TCP connection unless the server is closed
// (Close may already be waiting on the handlers WaitGroup, and Add
// after Wait is a race) or the connection cap is reached. rejected
// distinguishes a cap rejection from shutdown.
func (s *Server) admitConn(conn net.Conn) (ok, rejected bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, false
	}
	if limit := s.maxConns(); limit > 0 && len(s.conns) >= limit {
		return false, true
	}
	s.conns[conn] = struct{}{}
	s.handlers.Add(1)
	s.stats.conns.Add(1)
	s.stats.connsTotal.Add(1)
	return true, false
}

func (s *Server) releaseConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.stats.conns.Add(-1)
}

func (s *Server) serveTCP(ln net.Listener) {
	defer s.loops.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return
			}
			continue
		}
		ok, rejected := s.admitConn(conn)
		if !ok {
			conn.Close()
			if rejected {
				s.stats.connsRejected.Add(1)
				continue
			}
			return // shutting down
		}
		go func() {
			defer s.handlers.Done()
			defer s.releaseConn(conn)
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	from := conn.RemoteAddr().(*net.TCPAddr).AddrPort()
	for {
		if s.isClosed() {
			return // drain: finish the current query, take no more
		}
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		var lenBuf [2]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		msgLen := int(binary.BigEndian.Uint16(lenBuf[:]))
		if msgLen == 0 {
			// A zero-length frame is a protocol violation; dispatching
			// an empty packet would only manufacture garbage work.
			s.stats.received.Add(1)
			s.stats.malformed.Add(1)
			return
		}
		pkt := make([]byte, msgLen)
		if _, err := io.ReadFull(conn, pkt); err != nil {
			return
		}
		s.stats.received.Add(1)
		s.stats.inflight.Add(1)
		resp, _ := s.process(from.Addr(), pkt)
		s.stats.inflight.Add(-1)
		if resp == nil {
			return
		}
		data, err := resp.Pack()
		if err != nil {
			return
		}
		out := make([]byte, 2+len(data))
		binary.BigEndian.PutUint16(out, uint16(len(data)))
		copy(out[2:], data)
		if s.WriteTimeout > 0 {
			// Without this, a peer that stops reading pins the
			// connection goroutine forever.
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// process decodes one packet and runs the handler with panic isolation,
// returning the prepared response along with the parsed query so
// callers can consult the query's EDNS advertisement without unpacking
// the packet again. A nil response means "send nothing"; query is nil
// when the packet did not parse (undecodable or header-only).
//
//ecsinvariant:handler counters
func (s *Server) process(from netip.Addr, pkt []byte) (resp, query *dnswire.Message) {
	query, err := dnswire.Unpack(pkt)
	if err != nil {
		// Answer FORMERR when at least the header parsed; drop
		// otherwise.
		s.stats.malformed.Add(1)
		id, ok := dnswire.PeekID(pkt)
		if !ok {
			return nil, nil
		}
		resp := &dnswire.Message{}
		resp.ID = id
		resp.Response = true
		resp.RCode = dnswire.RCodeFormErr
		return resp, nil
	}
	if query.Response {
		s.stats.malformed.Add(1)
		return nil, query // never answer responses
	}
	return s.handle(from, query), query
}

// handle runs the handler for one parsed query, recovering a panic into
// a counted SERVFAIL so a buggy or hostile flow cannot take down every
// experiment sharing the process.
//
//ecsinvariant:handler counters
func (s *Server) handle(from netip.Addr, query *dnswire.Message) (resp *dnswire.Message) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			resp = dnswire.NewResponse(query)
			resp.RCode = dnswire.RCodeServFail
		}
	}()
	resp = s.handler.HandleDNS(from, query)
	if resp != nil {
		resp.ID = query.ID
		resp.Response = true
	}
	s.stats.answered.Add(1)
	return resp
}

// refusalReply builds the wire bytes of a minimal refusal for a packet
// the server will not dispatch: the query's question echoed back (when
// it parses) with the given rcode, truncated when tc is set. A nil
// return means the packet cannot be identified well enough to answer.
func refusalReply(pkt []byte, rcode dnswire.RCode, tc bool) []byte {
	var resp *dnswire.Message
	if q, err := dnswire.Unpack(pkt); err == nil && !q.Response {
		resp = dnswire.NewResponse(q)
	} else {
		id, ok := dnswire.PeekID(pkt)
		if !ok {
			return nil
		}
		resp = &dnswire.Message{}
		resp.ID = id
		resp.Response = true
	}
	resp.RCode = rcode
	resp.Truncated = tc
	data, err := resp.Pack()
	if err != nil {
		return nil
	}
	return data
}

// ErrServerClosed mirrors net/http's sentinel for symmetry in callers.
var ErrServerClosed = errors.New("dnsserver: server closed")
