package main

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/resolver"
)

const (
	// tracePhase is the length of each in-process load phase.
	tracePhase = 3 * time.Second
	// serialCalls is how many calls each serial allocation and timing
	// pass makes.
	serialCalls = 2000
	// spanCapacity bounds each layer's in-memory span log.
	spanCapacity = 1 << 19
)

// tracer holds one layer's span log and allocation meter; the
// wrappers below record into it around each call into the layer.
type tracer struct {
	spans  *spanLog
	allocs allocMeter
	on     atomic.Bool
}

func newTracer(layer string) *tracer {
	return &tracer{spans: newSpanLog(layer, spanCapacity)}
}

// call runs fn inside a span keyed by (id, name) when tracing is on,
// and inside the allocation meter when it is on.
func (t *tracer) call(id uint16, name string, fn func()) {
	if !t.on.Load() {
		t.allocs.measure(fn)
		return
	}
	start := sinceBase()
	fn()
	t.spans.add(span{id: id, name: name, start: start, end: sinceBase()})
}

// authWrap is the handler wrapping authority.Server.
type authWrap struct {
	inner *authority.Server
	t     *tracer
}

func (a *authWrap) HandleDNS(from netip.Addr, q *dnswire.Message) (resp *dnswire.Message) {
	a.t.call(q.ID, string(q.Question().Name), func() { resp = a.inner.HandleDNS(from, q) })
	return resp
}

// resolverWrap is the handler wrapping resolver.Resolver.
type resolverWrap struct {
	inner *resolver.Resolver
	t     *tracer
}

func (w *resolverWrap) HandleDNS(from netip.Addr, q *dnswire.Message) (resp *dnswire.Message) {
	w.t.call(q.ID, string(q.Question().Name), func() { resp = w.inner.HandleDNS(from, q) })
	return resp
}

// transportWrap is the recursor's upstream transport: dnsclient.Client
// against one upstream socket, as cmd/recursor wires it.
type transportWrap struct {
	client   *dnsclient.Client
	upstream string
	t        *tracer
}

func (w *transportWrap) Exchange(_, _ netip.Addr, q *dnswire.Message) (resp *dnswire.Message, rtt time.Duration, err error) {
	w.t.call(q.ID, string(q.Question().Name), func() {
		start := time.Now()
		resp, err = w.client.Exchange(w.upstream, q)
		rtt = time.Since(start)
	})
	return resp, rtt, err
}

// startAuthority builds authdns's stack in-process: the wildcard zone
// answering 192.0.2.53 with scope source-4, behind dnsserver.
func startAuthority(zoneName string, ttl uint32, t *tracer) (*dnsserver.Server, string, *authority.Server, error) {
	origin, err := dnswire.ParseName(zoneName)
	if err != nil {
		return nil, "", nil, err
	}
	srv := authority.NewServer(authority.Config{
		ECSEnabled: true,
		Scope:      authority.ScopeSourceMinus(4),
		Now:        time.Now,
	})
	zone := authority.NewZone(origin, ttl)
	zone.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.AddrFrom4(answerAddr)})
	ns, err := origin.Prepend("ns1")
	if err != nil {
		return nil, "", nil, err
	}
	zone.MustAdd(dnswire.RR{Name: origin, Data: &dnswire.NSRData{Host: ns}})
	srv.AddZone(zone)
	ds := dnsserver.New(&authWrap{inner: srv, t: t})
	bound, err := ds.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	return ds, bound.String(), srv, nil
}

// serveStack is recursor's stack built in-process as cmd/recursor
// builds it, in front of an in-process authdns stack.
type serveStack struct {
	authDS, recDS      *dnsserver.Server
	auth               *authority.Server
	res                *resolver.Resolver
	addr               *net.UDPAddr
	tAuth, tRes, tExch *tracer
	authAddr           string
}

// recursorCacheShards is cmd/recursor's -cache-shards default.
const recursorCacheShards = 8

func startServeStack(seed int64, cacheEntries int) (*serveStack, error) {
	s := &serveStack{tAuth: newTracer("authority"), tRes: newTracer("resolver"), tExch: newTracer("dnsclient")}
	ttl, err := strconv.ParseUint(answerTTL, 10, 32)
	if err != nil {
		return nil, err
	}
	s.authDS, s.authAddr, s.auth, err = startAuthority(serveZone, uint32(ttl), s.tAuth)
	if err != nil {
		return nil, err
	}
	zone, err := dnswire.ParseName(serveZone)
	if err != nil {
		return nil, err
	}
	placeholder := netip.MustParseAddr("192.0.2.1")
	dir := resolver.NewDirectory()
	dir.Add(zone, placeholder)
	dir.Add(dnswire.Root, placeholder)
	s.res = resolver.New(resolver.Config{
		Addr:         netip.MustParseAddr("127.0.0.1"),
		Now:          time.Now,
		Directory:    dir,
		Profile:      resolver.CompliantProfile(),
		Seed:         seed,
		CacheEntries: cacheEntries,
		CacheShards:  recursorCacheShards,
		Transport:    &transportWrap{client: &dnsclient.Client{}, upstream: s.authAddr, t: s.tExch},
	})
	s.recDS = dnsserver.New(&resolverWrap{inner: s.res, t: s.tRes})
	bound, err := s.recDS.Start("127.0.0.1:0")
	if err != nil {
		s.authDS.Close()
		return nil, err
	}
	s.addr = net.UDPAddrFromAddrPort(bound)
	return s, nil
}

func (s *serveStack) setTracing(on bool) {
	for _, t := range []*tracer{s.tAuth, s.tRes, s.tExch} {
		t.on.Store(on)
	}
}

// setMetering turns the allocation meters on (from zero) or off
// (keeping their counts).
func (s *serveStack) setMetering(on bool) {
	for _, t := range []*tracer{s.tAuth, s.tRes, s.tExch} {
		if on {
			t.allocs.reset()
		}
		t.allocs.on.Store(on)
	}
}

func (s *serveStack) shutdown() (recStats, authStats dnsserver.ServerStats) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.recDS.Shutdown(ctx) // a forced close shows in the balance check
	_ = s.authDS.Shutdown(ctx)
	return s.recDS.Stats(), s.authDS.Stats()
}

// sampleInflight records the server's in-flight high-water mark every
// millisecond until stop is closed.
func sampleInflight(ds *dnsserver.Server, stop <-chan struct{}, wg *sync.WaitGroup, max *int64) {
	defer wg.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if n := ds.Stats().Inflight; n > *max {
				*max = n
			}
		}
	}
}

// closedPair runs an untraced and a traced closed loop of equal length
// and returns the traced phase and both rates.
func closedPair(addr *net.UDPAddr, src querySource, next *atomic.Int64, setTracing func(bool), clientSpans *spanLog) (traced phaseResult, qpsOff, qpsOn float64) {
	off := runClosed(addr, src, next, 0, workers(), window, tracePhase)
	setTracing(true)
	traced = runClosedTraced(addr, src, next, 0, workers(), window, tracePhase, clientSpans)
	setTracing(false)
	qpsOff = float64(off.answered) / off.elapsed.Seconds()
	qpsOn = float64(traced.answered) / traced.elapsed.Seconds()
	traced.add(off)
	return traced, qpsOff, qpsOn
}

func traceServeHot(e env) (*run, error)  { return traceServe(e, "serve-hot", true) }
func traceServeCold(e env) (*run, error) { return traceServe(e, "serve-cold", false) }

func traceServe(e env, workload string, hot bool) (*run, error) {
	r := newTracedRun()
	in, err := makeServeInputs(e.seed)
	if err != nil {
		return nil, err
	}
	in.hot.offset = e.seed % int64(len(in.hot.pairs))
	cacheEntries := 0
	var (
		src  querySource = in.hot
		next atomic.Int64
	)
	if !hot {
		cacheEntries, src = coldCacheEntries, in.cold
	}
	s, err := startServeStack(e.seed, cacheEntries)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			s.shutdown()
		}
	}()

	// Set-up as in the untraced run: warm every pair, or fill the cache.
	var prep phaseResult
	if hot {
		var w atomic.Int64
		prep = runClosed(s.addr, in.warm, &w, int64(len(in.warm.pairs)), workers(), window, time.Hour)
	} else {
		prep = runClosed(s.addr, in.cold, &next, coldCacheEntries, workers(), window, time.Hour)
	}
	if prep.failed > 0 {
		return nil, fmt.Errorf("set-up pass: %d failed: %v", prep.failed, prep.firstErr)
	}

	// Load phases: untraced, then traced with every span recorded.
	cache0, st0 := s.res.Cache().Stats(), s.recDS.Stats()
	client0, up0 := s.res.Counters()
	fail0 := s.res.Failures()
	clientSpans := newSpanLog("client", spanCapacity)
	var (
		inflightMax int64
		stopSampler = make(chan struct{})
		samplerWG   sync.WaitGroup
	)
	samplerWG.Add(1)
	go sampleInflight(s.recDS, stopSampler, &samplerWG, &inflightMax)
	ph, qpsOff, qpsOn := closedPair(s.addr, src, &next, s.setTracing, clientSpans)
	close(stopSampler)
	samplerWG.Wait()
	cache1, st1 := s.res.Cache().Stats(), s.recDS.Stats()
	client1, up1 := s.res.Counters()
	fail1 := s.res.Failures()
	r.res.Attempted, r.res.Failed = ph.sent, ph.failed
	if ph.failed > 0 {
		r.fail("%d traced-run queries failed: %v", ph.failed, ph.firstErr)
	}
	r.setLayer("trace.qps", qpsOn)
	r.setLayer("trace.overhead_pct", 100*(qpsOff-qpsOn)/qpsOff)
	r.setLayer("dnsserver.shed", float64(st1.Shed-st0.Shed))
	r.setLayer("dnsserver.malformed", float64(st1.Malformed-st0.Malformed))
	r.setLayer("dnsserver.inflight_max", float64(inflightMax))
	if c := client1 - client0; c > 0 {
		r.setLayer("resolver.upstream_per_client", float64(up1-up0)/float64(c))
	}
	r.setLayer("resolver.servfail_returned", float64(fail1.ServFailsReturned-fail0.ServFailsReturned))
	if l := cache1.Lookups - cache0.Lookups; l > 0 {
		r.setLayer("ecscache.hit_ratio", float64(cache1.Hits-cache0.Hits)/float64(l))
	}
	if ins := cache1.Misses - cache0.Misses; ins > 0 {
		r.setLayer("ecscache.evictions_per_insert", float64(cache1.Evictions-cache0.Evictions)/float64(ins))
	}
	resident := len(in.hot.names) // the warm-up stored every name
	if !hot {
		resident = int(cache1.Live) // unique names: one entry each
	}
	if resident > 0 {
		r.setLayer("ecscache.entries_per_name", float64(cache1.Live)/float64(resident))
	}
	serveSpanMetrics(r, clientSpans.all(), s.tRes.spans.all(), s.tExch.spans.all(), s.tAuth.spans.all())
	spanFile := filepath.Join(e.work, fmt.Sprintf("spans-%s-%d.tsv", workload, e.seed))
	if err := writeSpans(spanFile, clientSpans, s.tRes.spans, s.tExch.spans, s.tAuth.spans); err != nil {
		return nil, err
	}
	r.info["span_file"] = spanFile
	r.info["spans"] = int64(len(clientSpans.all()) + len(s.tRes.spans.all()) + len(s.tExch.spans.all()) + len(s.tAuth.spans.all()))

	// Serial passes: allocations and per-call codec costs.
	if err := serveSerialPasses(r, s, in, hot, &next); err != nil {
		return nil, err
	}
	cacheReplayMetrics(r, in, hot, e.seed)

	recStats, authStats := s.shutdown()
	stopped = true
	if !recStats.Balanced() || !authStats.Balanced() {
		r.fail("in-process servers do not balance: recursor %v; authdns %v", recStats, authStats)
	}
	if err := externalServeWatch(e, r, in, hot); err != nil {
		return nil, err
	}
	return r, nil
}

// serveSpanMetrics links each answered client span to its resolver
// span (same DNS ID, inside the client's interval), each resolver span
// to its upstream exchanges and each exchange to its authority call
// (same query name, inside the parent's interval), and averages the
// self times.
func serveSpanMetrics(r *run, client, res, exch, auth []span) {
	resByID := indexSpans(res, func(s span) uint16 { return s.id })
	exchByName := indexSpans(exch, func(s span) string { return s.name })
	authByName := indexSpans(auth, func(s span) string { return s.name })
	var dnsSelf, hitSelf, missSelf, exchSelf, authMean mean
	for _, c := range client {
		v := resByID.by[c.id]
		var h *span
		for i := range v {
			if v[i].start >= c.start && v[i].end <= c.end {
				h = &v[i]
				break
			}
		}
		if h == nil {
			continue
		}
		dnsSelf.add(float64(c.dur()-h.dur()) / 1e3)
		exTotal, exN := exchByName.within(h.name, h.start, h.end)
		if exN == 0 {
			hitSelf.add(float64(h.dur()) / 1e3)
			continue
		}
		missSelf.add(float64(h.dur()-exTotal) / 1e3)
		for _, x := range exchByName.by[h.name] {
			if x.start < h.start || x.end > h.end {
				continue
			}
			aTotal, _ := authByName.within(x.name, x.start, x.end)
			exchSelf.add(float64(x.dur()-aTotal) / 1e3)
		}
	}
	for _, a := range auth {
		authMean.add(float64(a.dur()) / 1e3)
	}
	r.setLayer("dnsserver.self_us", dnsSelf.value())
	r.setLayer("resolver.hit_self_us", hitSelf.value())
	r.setLayer("resolver.miss_self_us", missSelf.value())
	r.setLayer("dnsclient.exchange_self_us", exchSelf.value())
	r.setLayer("authority.handle_us", authMean.value())
	r.info["linked_requests"] = dnsSelf.n
}

// serialClient sends one query at a time from a raw socket, which
// itself allocates nothing per query.
type serialClient struct {
	conn *net.UDPConn
	send []byte
	recv []byte
}

func newSerialClient(addr *net.UDPAddr) (*serialClient, error) {
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, err
	}
	return &serialClient{conn: conn, send: make([]byte, 0, 512), recv: make([]byte, 4096)}, nil
}

// roundTrip sends a query and waits for its answer.
func (c *serialClient) roundTrip(id uint16, qname []byte, client [3]byte) ([]byte, error) {
	c.send = appendQuery(c.send[:0], id, qname, client)
	if _, err := c.conn.Write(c.send); err != nil {
		return nil, err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return nil, err
	}
	for {
		n, err := c.conn.Read(c.recv)
		if err != nil {
			return nil, err
		}
		if n >= 2 && uint16(c.recv[0])<<8|uint16(c.recv[1]) == id {
			return c.recv[:n], nil
		}
	}
}

// trivialHandler answers every query with one prebuilt response, so a
// pass through it measures dnsserver's own per-query allocations. The
// pass is serial, so the shared response is never used concurrently.
type trivialHandler struct{ resp *dnswire.Message }

func (h trivialHandler) HandleDNS(netip.Addr, *dnswire.Message) *dnswire.Message { return h.resp }

// dnsserverAllocs measures dnsserver's allocations per query over a
// serial pass with a trivial handler.
func dnsserverAllocs(qname []byte) (float64, error) {
	q := dnswire.NewQuery(0, dnswire.Name(nameFromWire(qname)), dnswire.TypeA)
	ds := dnsserver.New(trivialHandler{resp: dnswire.NewResponse(q)})
	bound, err := ds.Start("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ds.Close()
	c, err := newSerialClient(net.UDPAddrFromAddrPort(bound))
	if err != nil {
		return 0, err
	}
	defer c.conn.Close()
	var rtErr error
	client := [3]byte{198, 51, 100}
	for i := 0; i < 100; i++ { // let pools and buffers settle
		if _, err := c.roundTrip(uint16(i), qname, client); err != nil {
			return 0, err
		}
	}
	a := allocsOf(serialCalls, func(i int) {
		if _, err := c.roundTrip(uint16(i), qname, client); err != nil && rtErr == nil {
			rtErr = err
		}
	})
	return a, rtErr
}

// codecMetrics times dnswire's decode of the workload's queries and
// encode of its responses, as dnsserver calls them.
func codecMetrics(r *run, queries [][]byte, responses []*dnswire.Message) {
	r.setLayer("dnswire.unpack_ns", nsPer(len(queries), func(i int) { _, _ = dnswire.Unpack(queries[i]) }))
	r.setLayer("dnswire.unpack_allocs", allocsOf(len(queries), func(i int) { _, _ = dnswire.Unpack(queries[i]) }))
	buf := make([]byte, 0, 4096)
	pack := func(i int) {
		out, _ := responses[i%len(responses)].AppendTruncateTo(buf[:0], 4096)
		buf = out[:0]
	}
	r.setLayer("dnswire.pack_ns", nsPer(len(responses), pack))
	r.setLayer("dnswire.pack_allocs", allocsOf(len(responses), pack))
}

func serveSerialPasses(r *run, s *serveStack, in *serveInputs, hot bool, next *atomic.Int64) error {
	from := netip.MustParseAddr("127.0.0.1")
	scratch := make([]byte, 0, 256)
	queries := make([][]byte, serialCalls)
	decoded := make([]*dnswire.Message, serialCalls)
	var src querySource = in.hot
	base := int64(0)
	if !hot {
		src = in.cold
		base = next.Add(2*serialCalls) - 2*serialCalls
	}
	for i := range queries {
		qname, client := src.query(base+int64(i), scratch)
		queries[i] = appendQuery(nil, uint16(i), qname, client)
		m, err := dnswire.Unpack(queries[i])
		if err != nil {
			return err
		}
		decoded[i] = m
	}
	qname0, _ := src.query(base, scratch)
	dsAllocs, err := dnsserverAllocs(append([]byte(nil), qname0...))
	if err != nil {
		return err
	}
	r.setLayer("dnsserver.allocs_per_q", dsAllocs)

	responses := make([]*dnswire.Message, serialCalls)
	var layerSum float64
	if hot {
		hit := allocsOf(serialCalls, func(i int) { responses[i] = s.res.HandleDNS(from, decoded[i]) })
		r.setLayer("resolver.hit_allocs", hit)
		layerSum = dsAllocs + hit
	} else {
		s.setMetering(true)
		for i := range decoded {
			s.tRes.call(decoded[i].ID, "", func() { responses[i] = s.res.HandleDNS(from, decoded[i]) })
		}
		s.setMetering(false)
		n := float64(serialCalls)
		resA := float64(s.tRes.allocs.mallocs.Load()) / n
		exA := float64(s.tExch.allocs.mallocs.Load()) / n
		authA := float64(s.tAuth.allocs.mallocs.Load()) / n
		miss := resA - exA
		exch := exA - authA - dsAllocs
		r.setLayer("resolver.miss_allocs", miss)
		r.setLayer("dnsclient.exchange_allocs", exch)
		// authority.HandleDNS called directly on upstream-shaped queries.
		upq := make([]*dnswire.Message, serialCalls)
		for i := range upq {
			q := dnswire.NewQuery(uint16(i), decoded[i].Question().Name, dnswire.TypeA)
			cs, _, err := ecsopt.FromMessage(decoded[i])
			if err != nil {
				return err
			}
			ecsopt.Attach(q, cs)
			upq[i] = q
		}
		authAllocs := allocsOf(serialCalls, func(i int) { _ = s.auth.HandleDNS(from, upq[i]) })
		r.setLayer("authority.allocs_per_q", authAllocs)
		layerSum = dsAllocs + miss + exch + dsAllocs + authAllocs
	}
	codecMetrics(r, queries, responses)

	// The whole stack per query, through the sockets.
	c, err := newSerialClient(s.addr)
	if err != nil {
		return err
	}
	defer c.conn.Close()
	var rtErr error
	stackBase := base + serialCalls
	stackAllocs := allocsOf(serialCalls, func(i int) {
		qname, client := src.query(stackBase+int64(i), scratch)
		resp, err := c.roundTrip(uint16(i), qname, client)
		if err == nil {
			err = validateAnswer(resp, uint16(i), qname, client)
		}
		if err != nil && rtErr == nil {
			rtErr = err
		}
	})
	if rtErr != nil {
		r.fail("serial stack pass: %v", rtErr)
	}
	r.setLayer("stack.allocs_per_q", stackAllocs)
	r.setLayer("stack.layer_allocs_sum", layerSum)
	return nil
}

// cacheReplayMetrics replays the workload's (key, client) sequence
// through a standalone ecscache configured as resolver.New configures
// the recursor's, timing each Lookup and Insert.
func cacheReplayMetrics(r *run, in *serveInputs, hot bool, seed int64) {
	p := resolver.CompliantProfile()
	cfg := ecscache.Config{
		Mode:               p.CacheMode,
		CapBits:            p.CacheCapBits,
		ClampScopeToSource: p.ClampScopeToSource,
		Shards:             recursorCacheShards,
	}
	n := 200000
	var src querySource = in.hot
	if !hot {
		cfg.MaxEntries = coldCacheEntries
		src = in.cold
	}
	cache := ecscache.New(cfg)
	now := time.Now()
	answer := []dnswire.RR{{Name: "x.", Class: 1, TTL: 86400, Data: &dnswire.ARData{Addr: netip.AddrFrom4(answerAddr)}}}
	scratch := make([]byte, 0, 256)
	type op struct {
		key    ecscache.Key
		client netip.Addr
	}
	build := func(from, count int64) []op {
		ops := make([]op, count)
		for i := range ops {
			qname, c := src.query(from+int64(i), scratch)
			ops[i] = op{
				key:    ecscache.Key{Name: dnswire.Name(nameFromWire(qname)), Type: dnswire.TypeA, Class: 1},
				client: netip.AddrFrom4([4]byte{c[0], c[1], c[2], 0}),
			}
		}
		return ops
	}
	insert := func(o op) {
		cs, err := ecsopt.New(o.client, 24)
		if err != nil {
			return
		}
		cache.Insert(o.key, ecscache.Entry{Subnet: cs.WithScope(ecsScope), HasECS: true, Answer: answer, Expiry: now.Add(24 * time.Hour)}, now)
	}
	if hot {
		// The warm-up, untimed, then the timed stream: all hits.
		for _, p := range in.warm.pairs {
			c := in.hot.clients[p.client]
			insert(op{
				key:    ecscache.Key{Name: dnswire.Name(nameFromWire(in.hot.names[p.name])), Type: dnswire.TypeA, Class: 1},
				client: netip.AddrFrom4([4]byte{c[0], c[1], c[2], 0}),
			})
		}
	} else {
		for _, o := range build(1<<40, coldCacheEntries) {
			insert(o)
		}
	}
	ops := build(seed%int64(len(in.hot.pairs)), int64(n))
	var lookNS, insNS int64
	var looks, inserts int64
	st0 := cache.Stats()
	for _, o := range ops {
		t0 := time.Now()
		_, ok := cache.Lookup(o.key, o.client, now)
		t1 := time.Now()
		lookNS += int64(t1.Sub(t0))
		looks++
		if !ok {
			insert(o)
			insNS += int64(time.Since(t1))
			inserts++
		}
	}
	st1 := cache.Stats()
	r.setLayer("ecscache.lookup_ns", float64(lookNS)/float64(looks))
	if inserts > 0 {
		r.setLayer("ecscache.insert_ns", float64(insNS)/float64(inserts))
	}
	r.info["cache_replay.hit_ratio"] = float64(st1.Hits-st0.Hits) / float64(st1.Lookups-st0.Lookups)
	if inserts > 0 {
		r.info["cache_replay.evictions_per_insert"] = float64(st1.Evictions-st0.Evictions) / float64(inserts)
	}
}

// nameFromWire renders uncompressed wire labels as a dotted,
// fully-qualified name.
func nameFromWire(w []byte) string {
	var out []byte
	for i := 0; i < len(w) && w[i] != 0; i += 1 + int(w[i]) {
		out = append(out, w[i+1:i+1+int(w[i])]...)
		out = append(out, '.')
	}
	return string(out)
}

// externalServeWatch launches the real binaries once more, runs a short
// closed loop while sampling /proc, then an open loop, and records the
// leak-watch figures and the generator's own cost and lateness.
func externalServeWatch(e env, r *run, in *serveInputs, hot bool) error {
	var (
		src   querySource = in.hot
		rate  float64     = hotRate
		args  []string
		next  atomic.Int64
		warmN             = int64(len(in.warm.pairs))
		warm  querySource = in.warm
	)
	if !hot {
		src, rate, warm = in.cold, coldRate, in.cold
		args = []string{"-cache-entries", strconv.Itoa(coldCacheEntries)}
		warmN = coldCacheEntries
	}
	s, err := startStack(e, args...)
	if err != nil {
		return err
	}
	defer s.kill()
	var w atomic.Int64
	if !hot {
		w.Store(1 << 40) // cold names of their own
	}
	prep := runClosed(s.addr, warm, &w, w.Load()+warmN, workers(), window, time.Hour)
	after, err := sampleAll(s.procs())
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	maxes := make([]procSample, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for i, p := range s.procs() {
					if x, err := sampleProc(p.pid()); err == nil {
						maxes[i].fds = max(maxes[i].fds, x.fds)
						maxes[i].threads = max(maxes[i].threads, x.threads)
					}
				}
			}
		}
	}()
	cpu0 := selfCPU()
	closed := runClosed(s.addr, src, &next, 0, workers(), window, tracePhase)
	genCPU := selfCPU() - cpu0
	n := int64(rate * tracePhase.Seconds())
	base := next.Add(n) - n
	open := runOpen(s.addr, src, base, rate, n, openTimeout)
	close(stop)
	wg.Wait()
	end, err := sampleAll(s.procs())
	if err != nil {
		return err
	}
	if closed.failed+open.failed+prep.failed > 0 {
		r.fail("leak-watch run: %d queries failed", closed.failed+open.failed+prep.failed)
	}
	r.setLayer("recursor.fds_max", float64(max(maxes[0].fds, end[0].fds)))
	r.setLayer("recursor.threads_max", float64(max(maxes[0].threads, end[0].threads)))
	r.setLayer("recursor.rss_growth_mb", float64(end[0].rssKB-after[0].rssKB)/1024)
	r.setLayer("authdns.fds_max", float64(max(maxes[1].fds, end[1].fds)))
	r.setLayer("authdns.rss_growth_mb", float64(end[1].rssKB-after[1].rssKB)/1024)
	if closed.answered > 0 {
		r.setLayer("loadgen.cpu_us_per_q", float64(genCPU)/float64(time.Microsecond)/float64(closed.answered))
	}
	r.setLayer("loadgen.late_p99_ms", percentile(open.late, 0.99))
	ramp := int(rate * openRamp.Seconds())
	r.setLayer("open.p50_ms", percentile(open.lat[ramp:], 0.5))
	r.setLayer("open.p99_ms", percentile(open.lat[ramp:], 0.99))
	if _, err := checkServeExit(r, s, serveRun{
		loadSent:       prep.sent + closed.sent + open.sent,
		retransmits:    prep.retransmits + closed.retransmits + open.retransmits,
		answeredByLoad: prep.answered + closed.answered + open.answered,
	}); err != nil {
		return err
	}
	return nil
}
