package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"ecsdns/internal/traces"
)

// The serve workloads run recursor (compliant profile) in front of
// authdns (-scope source-4, so every answer is scoped /20 for the /24 a
// client sends) over loopback.
const (
	serveZone = "cdn.example.net"
	// answerTTL outlives any run, so serve-hot's warmed entries never
	// expire mid-run.
	answerTTL = "86400"

	// hotRate and coldRate are the open-loop offered rates, about a
	// fifth of each workload's closed-loop capacity on the 2-core
	// machine the benchmark was defined on. They are fixed: changing
	// them changes what the open-loop percentiles mean.
	hotRate  = 11000
	coldRate = 2000

	// window is the closed loop's in-flight queries per socket.
	window = 16

	// coldCacheEntries bounds serve-cold's recursor cache well below
	// the unique answers one run produces, so once the set-up fill
	// pass is done every insert evicts.
	coldCacheEntries = 2048

	// setups is how many times a run launches its stack; setup_s is
	// the median.
	setups = 5

	// closedWindow and openWindow are the lengths of the alternating
	// measurement windows. The closed windows, which set qps and
	// cpu_us_per_q, take most of a cycle: the shared machine's speed
	// swings from second to second, and the median of many long windows
	// follows the program rather than the moment.
	closedWindow = 1 * time.Second
	openWindow   = 500 * time.Millisecond
	// openRamp starts each open window: its queries are sent and
	// checked but not timed, so the latency figures describe the steady
	// state at the offered rate, not the wake-up from the closed
	// window's backlog.
	openRamp = 250 * time.Millisecond

	// jobQueries is the serve workloads' job for wall_s: answering this
	// many queries in the closed loop.
	jobQueries = 100000

	// openTimeout is how long an open-loop query may stay unanswered
	// before it counts as failed.
	openTimeout = 2 * time.Second
)

// serveInputs is the generated client population and query stream
// shared by both serve workloads.
type serveInputs struct {
	hot  *hotQueries
	warm *hotQueries // each distinct (name, client) pair of hot once
	cold *coldQueries
	// uniqueShare is the share of hot's queries whose (name, client
	// /20) pair was not seen before in the stream.
	uniqueShare float64
}

// streamLen is the length of the hot query stream. A hit's cost grows
// with the scoped entries its name holds, and these grow with the
// stream, so a fixed length keeps the per-hit cost from swinging with
// the seed: over 16 seeds the query-weighted entries per name spread
// 0.02 of their median between quartiles (0.06 at the generator's own,
// seed-dependent length).
const streamLen = 12000

// makeServeInputs draws the query stream from traces.GeneratePublicCDN:
// Zipf-popular hostnames asked by clients from many resolvers' /24
// pools, merged in time order and cut to streamLen queries. Many small
// pools keep the merged client population near 5000 /24s on every
// seed, so entries per name, and with them the per-hit cost, do not
// swing with the seed.
func makeServeInputs(seed int64) (*serveInputs, error) {
	trs := traces.GeneratePublicCDN(traces.PublicCDNConfig{
		Seed:       seed,
		Resolvers:  300,
		Duration:   80 * time.Second,
		TTL:        20 * time.Second,
		Hostnames:  180,
		MeanQPS:    1,
		MaxSubnets: 256,
	})
	var recs []traces.Record
	for _, tr := range trs {
		recs = append(recs, tr.Records...)
	}
	sortRecords(recs)
	if len(recs) < streamLen {
		return nil, fmt.Errorf("generated trace has %d queries, want at least %d", len(recs), streamLen)
	}
	recs = recs[:streamLen]

	in := &serveInputs{hot: &hotQueries{}, warm: &hotQueries{}}
	nameIdx := map[string]int32{}
	clientIdx := map[netip.Addr]int32{}
	type pairKey struct{ name, client int32 }
	seenPair := map[pairKey]bool{}
	seenScope := map[[2]int32]bool{}
	scopeIdx := map[netip.Prefix]int32{}
	newScopes := 0
	for _, rec := range recs {
		n, ok := nameIdx[string(rec.Name)]
		if !ok {
			w, err := wireName(string(rec.Name))
			if err != nil {
				return nil, err
			}
			// Generated names live under cdn.example.net already.
			n = int32(len(in.hot.names))
			nameIdx[string(rec.Name)] = n
			in.hot.names = append(in.hot.names, w)
		}
		c, ok := clientIdx[rec.Client]
		if !ok {
			c = int32(len(in.hot.clients))
			clientIdx[rec.Client] = c
			a := rec.Client.As4()
			in.hot.clients = append(in.hot.clients, [3]byte{a[0], a[1], a[2]})
		}
		p := hotPair{name: n, client: c}
		in.hot.pairs = append(in.hot.pairs, p)
		if !seenPair[pairKey(p)] {
			seenPair[pairKey(p)] = true
			in.warm.pairs = append(in.warm.pairs, p)
		}
		scope := netip.PrefixFrom(rec.Client, ecsScope).Masked()
		s, ok := scopeIdx[scope]
		if !ok {
			s = int32(len(scopeIdx))
			scopeIdx[scope] = s
		}
		if !seenScope[[2]int32{n, s}] {
			seenScope[[2]int32{n, s}] = true
			newScopes++
		}
	}
	in.warm.names, in.warm.clients = in.hot.names, in.hot.clients
	in.uniqueShare = float64(newScopes) / float64(len(in.hot.pairs))

	zone, err := wireName(serveZone)
	if err != nil {
		return nil, err
	}
	order := make([]int32, len(in.hot.pairs))
	for i, p := range in.hot.pairs {
		order[i] = p.client
	}
	in.cold = &coldQueries{tag: strconv.FormatInt(seed, 36), zone: zone, clients: in.hot.clients, order: order}
	return in, nil
}

// sortRecords orders the merged trace by time, ties by resolver, so the
// stream is a deterministic function of the seed.
func sortRecords(recs []traces.Record) {
	less := func(a, b traces.Record) bool {
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		return a.Resolver.Less(b.Resolver)
	}
	sort.Slice(recs, func(i, j int) bool { return less(recs[i], recs[j]) })
}

// stack is a running authdns + recursor pair.
type stack struct {
	auth, rec *proc
	addr      *net.UDPAddr
	// readySent counts readiness queries, which reach the recursor on
	// top of the workload's own.
	readySent int64
}

func (s *stack) procs() []*proc { return []*proc{s.rec, s.auth} }

func (s *stack) kill() {
	if s == nil {
		return
	}
	s.rec.kill()
	s.auth.kill()
}

// startStack launches authdns and recursor on free loopback ports and
// returns once the recursor answers a query end to end.
func startStack(e env, recursorArgs ...string) (*stack, error) {
	authPort, err := freePort()
	if err != nil {
		return nil, err
	}
	auth, err := startProc(e.binary("authdns"),
		"-listen", fmt.Sprintf("127.0.0.1:%d", authPort), "-zone", serveZone,
		"-ttl", answerTTL, "-scope", "source-4", "-quiet")
	if err != nil {
		return nil, err
	}
	// authdns answers before recursor starts, so no readiness probe
	// makes the recursor count upstream queries nobody receives.
	authAddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: authPort}
	if _, err := waitAnswer(authAddr, serveZone, auth); err != nil {
		auth.kill()
		return nil, err
	}
	recPort, err := freePort()
	if err != nil {
		auth.kill()
		return nil, err
	}
	args := append([]string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", recPort), "-zone", serveZone,
		"-upstream", fmt.Sprintf("127.0.0.1:%d", authPort),
	}, recursorArgs...)
	rec, err := startProc(e.binary("recursor"), args...)
	if err != nil {
		auth.kill()
		return nil, err
	}
	s := &stack{auth: auth, rec: rec, addr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: recPort}}
	if err := s.waitReady(); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// waitReady polls the recursor until it answers end to end.
func (s *stack) waitReady() error {
	n, err := waitAnswer(s.addr, serveZone, s.auth, s.rec)
	s.readySent += n
	return err
}

// waitAnswer polls addr with a query for a name outside every workload
// until a valid answer arrives, and returns how many queries it sent.
// It gives up when one of procs exits.
func waitAnswer(addr *net.UDPAddr, zone string, procs ...*proc) (int64, error) {
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	qname, err := wireName("ready." + zone)
	if err != nil {
		return 0, err
	}
	client := [3]byte{198, 51, 100}
	buf := make([]byte, 4096)
	var sent int64
	deadline := time.Now().Add(20 * time.Second)
	for id := uint16(1); time.Now().Before(deadline); id++ {
		for _, p := range procs {
			if p.exited() {
				return sent, fmt.Errorf("%s exited during start-up: %s", p.name, lastLines(p.stderr.String(), 2))
			}
		}
		sent++
		if _, err := conn.Write(appendQuery(nil, id, qname, client)); err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Millisecond)); err != nil {
			return sent, err
		}
		// Drain every answer that has arrived: any probe's answer
		// proves the path works.
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break
			}
			if n < 2 {
				continue
			}
			got := uint16(buf[0])<<8 | uint16(buf[1])
			if got >= 1 && got <= id && validateAnswer(buf[:n], got, qname, client) == nil {
				return sent, nil
			}
		}
	}
	return sent, errors.New("no answer within 20s")
}

// sampleAll reads /proc for each process.
func sampleAll(ps []*proc) ([]procSample, error) {
	out := make([]procSample, len(ps))
	for i, p := range ps {
		s, err := sampleProc(p.pid())
		if err != nil {
			return nil, fmt.Errorf("reading /proc for %s: %w", p.name, err)
		}
		out[i] = s
	}
	return out, nil
}

func cpuSum(s []procSample) time.Duration {
	var t time.Duration
	for _, x := range s {
		t += x.cpu
	}
	return t
}

func hwmSumMB(s []procSample) float64 {
	var kb int64
	for _, x := range s {
		kb += x.hwmKB
	}
	return float64(kb) / 1024
}

// leakWatch records FD count, threads and RSS of each process after
// set-up and at the end of the run.
func leakWatch(r *run, ps []*proc, after, end []procSample) {
	for i, p := range ps {
		r.info[p.name+".fds_setup"] = after[i].fds
		r.info[p.name+".fds_end"] = end[i].fds
		r.info[p.name+".threads_setup"] = after[i].threads
		r.info[p.name+".threads_end"] = end[i].threads
		r.info[p.name+".rss_growth_mb"] = float64(end[i].rssKB-after[i].rssKB) / 1024
	}
}

// serveRun holds the counts the accounting checks need.
type serveRun struct {
	// loadSent counts workload queries sent to the recursor while it
	// was up (warm-up and timed phases) and retransmits those sent
	// twice; readiness probes are apart. Every query reached the
	// recursor at least once unless it was retransmitted.
	loadSent, retransmits, answeredByLoad int64
}

// checkServeExit stops the stack and checks the exit stats lines:
// both servers balance, the cache's lookups split into hits and
// misses, every query the recursor answered was a served client query,
// and the recursor received what the generator sent.
func checkServeExit(r *run, s *stack, acc serveRun) (cacheStats, error) {
	recErr, authErr := "", ""
	recOut, err := s.rec.stop(15 * time.Second)
	if err != nil {
		recErr = err.Error()
	}
	authOut, err := s.auth.stop(15 * time.Second)
	if err != nil {
		authErr = err.Error()
	}
	if recErr != "" || authErr != "" {
		return cacheStats{}, fmt.Errorf("stopping servers: %s %s", recErr, authErr)
	}
	rs, err := parseServerStats(recOut)
	if err != nil {
		return cacheStats{}, fmt.Errorf("recursor: %w", err)
	}
	as, err := parseServerStats(authOut)
	if err != nil {
		return cacheStats{}, fmt.Errorf("authdns: %w", err)
	}
	cs, err := parseCacheStats(recOut)
	if err != nil {
		return cacheStats{}, fmt.Errorf("recursor: %w", err)
	}
	served, upstream, err := parseServed(recOut)
	if err != nil {
		return cacheStats{}, fmt.Errorf("recursor: %w", err)
	}
	if !rs.balanced() {
		r.fail("recursor stats do not balance: %+v", rs)
	}
	if !as.balanced() {
		r.fail("authdns stats do not balance: %+v", as)
	}
	if cs.lookups != cs.hits+cs.misses {
		r.fail("recursor cache lookups %d != hits %d + misses %d", cs.lookups, cs.hits, cs.misses)
	}
	if served != rs.answered {
		r.fail("recursor served %d client queries but answered %d", served, rs.answered)
	}
	if upstream > as.received {
		r.fail("recursor sent %d upstream but authdns received %d", upstream, as.received)
	}
	if rs.received < acc.loadSent-acc.retransmits || rs.received > acc.loadSent+acc.retransmits+s.readySent {
		r.fail("recursor received %d, generator sent %d (+%d retransmitted, +%d readiness probes)", rs.received, acc.loadSent, acc.retransmits, s.readySent)
	}
	if rs.answered < acc.answeredByLoad {
		r.fail("generator validated %d answers but recursor answered only %d", acc.answeredByLoad, rs.answered)
	}
	r.info["recursor.exit_stats"] = fmt.Sprintf("%+v", rs)
	r.info["authdns.exit_stats"] = fmt.Sprintf("%+v", as)
	r.info["authdns.received"] = as.received
	r.info["recursor.upstream_sent"] = upstream
	return cs, nil
}

// timedWindows accumulates the serve workloads' measurement windows
// across the run's stacks.
type timedWindows struct {
	closed, open phaseResult
	cycles       []cycleSamples
	genCPU       time.Duration
}

// cycleSamples is what one closed window and the open window after it
// measured, with the share of CPU time the hypervisor stole meanwhile.
type cycleSamples struct {
	rate, cpu                float64
	closedLat, openLat, late []float64
	steal                    float64
}

// runWindows alternates closed-loop windows, for throughput and CPU per
// query, with open-loop windows at a fixed rate, for latency, for dur.
// On a shared machine the speed drifts over tens of seconds and each
// launch of the binaries settles into its own state; spreading both
// kinds of window over the whole run and over every launch keeps one
// slow stretch or one unlucky launch from setting a figure. A cycle in
// which the hypervisor stole more than maxSteal of the CPUs measures
// the neighbours, not the program: it is kept for the accounting but
// run again, for up to half as long again as dur.
func (t *timedWindows) runWindows(s *stack, src querySource, next *atomic.Int64, rate float64, dur time.Duration) error {
	var cycle, quiet time.Duration
	for start := time.Now(); cycle == 0 || (quiet+cycle <= dur && time.Since(start)+cycle <= dur*3/2); {
		c0 := time.Now()
		probeHost(1)
		h0 := readHostTicks()
		before, err := sampleAll(s.procs())
		if err != nil {
			return err
		}
		cpu0 := selfCPU()
		w := runClosed(s.addr, src, next, 0, workers(), window, closedWindow)
		t.genCPU += selfCPU() - cpu0
		after, err := sampleAll(s.procs())
		if err != nil {
			return err
		}
		if w.answered == 0 {
			return fmt.Errorf("closed loop answered nothing: %v", w.firstErr)
		}
		c := cycleSamples{
			rate:      float64(w.answered) / w.elapsed.Seconds(),
			cpu:       float64(cpuSum(after)-cpuSum(before)) / float64(time.Microsecond) / float64(w.answered),
			closedLat: w.lat,
		}
		w.lat = nil
		t.closed.add(w)

		ramp := int64(rate * openRamp.Seconds())
		n := ramp + int64(rate*openWindow.Seconds())
		base := next.Add(n) - n
		o := runOpen(s.addr, src, base, rate, n, openTimeout)
		c.openLat, c.late = o.lat[ramp:], o.late[ramp:]
		o.lat = nil
		t.open.add(o)
		c.steal = readHostTicks().stealSince(h0)
		t.cycles = append(t.cycles, c)
		cycle = time.Since(c0)
		if c.steal <= maxSteal {
			quiet += cycle
		}
	}
	return nil
}

// report sets the end-to-end metrics from the quiet cycles, or from
// every cycle when none was quiet. Throughput and CPU are the median
// closed window. p50_ms and p99_ms pool the closed loop's answers: with
// the servers kept busy they follow the program's own cost and stalls.
// The open loop's percentiles go to the info line: at a fifth of
// capacity the servers idle between queries, and on a shared virtual
// machine the time to wake an idle CPU, which swings with the host's
// load, dominates them.
func (t *timedWindows) report(r *run, rate float64) {
	use := t.cycles[:0:0]
	for _, c := range t.cycles {
		if c.steal <= maxSteal {
			use = append(use, c)
		}
	}
	if len(use) == 0 {
		use = t.cycles
	}
	var rates, cpus, closedLat, openLat, late []float64
	for _, c := range use {
		rates, cpus = append(rates, c.rate), append(cpus, c.cpu)
		closedLat = append(closedLat, c.closedLat...)
		openLat = append(openLat, c.openLat...)
		late = append(late, c.late...)
	}
	qps := median(rates)
	r.set("qps", "1/s", qps)
	r.set("wall_s", "s", jobQueries/qps)
	r.set("cpu_us_per_q", "us", median(cpus))
	r.set("p50_ms", "ms", percentile(closedLat, 0.5))
	r.set("p99_ms", "ms", percentile(closedLat, 0.99))
	r.info["cycles"], r.info["quiet_cycles"] = len(t.cycles), len(use)
	r.info["open_p50_ms"] = percentile(openLat, 0.5)
	r.info["open_p99_ms"] = percentile(openLat, 0.99)
	r.info["open_p999_ms"] = percentile(openLat, 0.999)
	timed := t.closed.answered + t.open.answered
	r.res.Attempted = t.closed.sent + t.open.sent
	r.res.Failed = r.res.Attempted - timed
	r.set("answered_ratio", "ratio", float64(timed)/float64(r.res.Attempted))
	if t.closed.failed+t.open.failed > 0 {
		r.fail("%d of %d timed queries failed: %d closed-loop (first error: %v), %d open-loop (first error: %v)", t.closed.failed+t.open.failed, r.res.Attempted, t.closed.failed, t.closed.firstErr, t.open.failed, t.open.firstErr)
	}
	r.info["closed_latency_samples"] = len(closedLat)
	r.info["open_latency_samples"] = len(openLat)
	r.info["open_rate_qps"] = rate
	r.info["loadgen.cpu_us_per_q"] = float64(t.genCPU) / float64(time.Microsecond) / float64(t.closed.answered)
	r.info["loadgen.late_p99_ms"] = percentile(late, 0.99)
	r.info["loadgen.retransmits"] = t.closed.retransmits + t.open.retransmits
}

func serveHot(e env) (*run, error) {
	return serve(e, true)
}

func serveCold(e env) (*run, error) {
	return serve(e, false)
}

// serve launches the stack setups times. Each launch is timed through
// its warm-up (hot) or cache fill (cold) for setup_s, then runs its
// share of the measurement windows and is stopped, and its exit stats
// are checked.
func serve(e env, hot bool) (*run, error) {
	r := newRun()
	in, err := makeServeInputs(e.seed)
	if err != nil {
		return nil, err
	}
	var (
		src  querySource = in.hot
		rate float64     = hotRate
		args []string
		next atomic.Int64
	)
	// The hot stream starts at a seed-chosen offset; serve-cold names
	// are unique, so the fill passes and the timed phases draw from one
	// counter.
	in.hot.offset = e.seed % int64(len(in.hot.pairs))
	prepare := func(s *stack) (phaseResult, error) {
		var w atomic.Int64
		res := runClosed(s.addr, in.warm, &w, int64(len(in.warm.pairs)), workers(), window, time.Hour)
		if res.answered != int64(len(in.warm.pairs)) {
			return res, fmt.Errorf("warm-up answered %d of %d: %v", res.answered, len(in.warm.pairs), res.firstErr)
		}
		return res, nil
	}
	if !hot {
		src, rate = in.cold, coldRate
		args = []string{"-cache-entries", strconv.Itoa(coldCacheEntries)}
		prepare = func(s *stack) (phaseResult, error) {
			// Fill the cache so every timed insert evicts.
			res := runClosed(s.addr, in.cold, &next, next.Load()+coldCacheEntries, workers(), window, time.Hour)
			if res.answered != coldCacheEntries {
				return res, fmt.Errorf("fill pass answered %d of %d: %v", res.answered, coldCacheEntries, res.firstErr)
			}
			return res, nil
		}
		r.info["unique_name_share"] = 1.0
	} else {
		r.info["warm_pairs"] = len(in.warm.pairs)
	}
	r.info["clients_24"] = len(in.hot.clients)
	r.info["hostnames"] = len(in.hot.names)
	r.info["stream_new_scope_share"] = in.uniqueShare

	var (
		t                  timedWindows
		setupTimes, hwm    []float64
		timedMisses        int64
		evictions, inserts int64
		entriesPerName     []float64
	)
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		s, err := startStack(e, args...)
		if err != nil {
			return nil, err
		}
		prep, err := prepare(s)
		if err != nil {
			s.kill()
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		afterSetup, err := sampleAll(s.procs())
		if err != nil {
			s.kill()
			return nil, err
		}
		closed0, open0 := t.closed, t.open
		if err := t.runWindows(s, src, &next, rate, e.seconds/setups); err != nil {
			s.kill()
			return nil, err
		}
		end, err := sampleAll(s.procs())
		if err != nil {
			s.kill()
			return nil, err
		}
		leakWatch(r, s.procs(), afterSetup, end)
		hwm = append(hwm, hwmSumMB(end))
		timedAnswered := t.closed.answered - closed0.answered + t.open.answered - open0.answered
		cs, err := checkServeExit(r, s, serveRun{
			loadSent:       prep.sent + t.closed.sent - closed0.sent + t.open.sent - open0.sent,
			retransmits:    prep.retransmits + t.closed.retransmits - closed0.retransmits + t.open.retransmits - open0.retransmits,
			answeredByLoad: prep.answered + timedAnswered,
		})
		s.kill()
		if err != nil {
			return nil, err
		}
		// Lookups beyond the set-up pass's and the readiness probes' are
		// the timed ones; in serve-cold so are the inserts beyond the
		// fill, which found the cache full.
		setupLookups := prep.sent + prep.retransmits + s.readySent
		timedMisses += max(cs.misses-setupLookups, 0)
		inserts += cs.misses - setupLookups
		evictions += cs.evictions
		entriesPerName = append(entriesPerName, float64(cs.live)/float64(len(in.hot.names)))
	}
	r.set("setup_s", "s", median(setupTimes))
	r.set("rss_mb", "MB", median(hwm))
	t.report(r, rate)
	if hot {
		r.info["timed_hit_ratio"] = 1 - float64(timedMisses)/float64(t.closed.answered+t.open.answered)
		r.info["entries_per_name"] = median(entriesPerName)
	} else if inserts > 0 {
		r.info["timed_evictions_per_insert"] = float64(evictions) / float64(inserts)
	}
	if math.IsNaN(r.res.Metrics["p99_ms"].Value) {
		r.fail("no latency samples")
	}
	return r, nil
}
