package main

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/scanner"
)

// scanStack is ecsscan's bulk mode built in-process as cmd/ecsscan
// builds it: scanner.Engine at -concurrency 64 over a
// dnsclient.Pipeline with one shard per CPU, against an in-process
// authdns stack.
type scanStack struct {
	authDS      *dnsserver.Server
	auth        *authority.Server
	target      string
	pipe        *dnsclient.Pipeline
	tAuth       *tracer
	jobs, pipes *spanLog
	base        dnswire.Name
	tracing     bool
	failed      []error
	failMu      sync.Mutex
}

func startScanStack(seed int64) (*scanStack, error) {
	s := &scanStack{tAuth: newTracer("authority"), jobs: newSpanLog("job", spanCapacity), pipes: newSpanLog("pipeline", spanCapacity)}
	var err error
	s.authDS, s.target, s.auth, err = startAuthority(scanZone, 30, s.tAuth)
	if err != nil {
		return nil, err
	}
	if s.base, err = dnswire.ParseName(scanProbeName(seed)); err != nil {
		s.authDS.Close()
		return nil, err
	}
	s.pipe, err = dnsclient.NewPipeline(dnsclient.PipelineConfig{Timeout: 3 * time.Second})
	if err != nil {
		s.authDS.Close()
		return nil, err
	}
	return s, nil
}

func (s *scanStack) close() dnsserver.ServerStats {
	s.pipe.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.authDS.Shutdown(ctx) // a forced close shows in the balance check
	return s.authDS.Stats()
}

// job is ecsscan's per-target job: a unique probe name, a plain EDNS
// query through the pipeline, and ecsscan's acceptance of the answer.
func (s *scanStack) job(ctx context.Context, i int) error {
	start := sinceBase()
	name, err := s.base.Prepend(fmt.Sprintf("bulk%d", i))
	if err != nil {
		return err
	}
	q := dnswire.NewQuery(0, name, dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	p0 := sinceBase()
	resp, err := s.pipe.Exchange(ctx, s.target, q)
	p1 := sinceBase()
	if err == nil && (resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 || resp.EDNS == nil) {
		err = fmt.Errorf("probe %d: rcode=%s answers=%d edns=%v", i, resp.RCode, len(resp.Answers), resp.EDNS != nil)
	}
	if err != nil {
		s.failMu.Lock()
		s.failed = append(s.failed, err)
		s.failMu.Unlock()
		return err
	}
	if s.tracing {
		s.pipes.add(span{job: int64(i), name: string(name), start: p0, end: p1})
		s.jobs.add(span{job: int64(i), name: string(name), start: start, end: sinceBase()})
	}
	return nil
}

// sweep runs n jobs through a fresh engine and returns the probes per
// second.
func (s *scanStack) sweep(n int) float64 {
	eng := &scanner.Engine{Concurrency: 64, Progress: scanner.NewProgress()}
	t0 := time.Now()
	_ = eng.Run(context.Background(), n, s.job) // job errors are collected in s.failed
	return float64(n) / time.Since(t0).Seconds()
}

func traceScan(e env) (*run, error) {
	r := newTracedRun()
	s, err := startScanStack(e.seed)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()
	qpsOff := s.sweep(scanTargets)
	st0 := s.authDS.Stats()
	var (
		inflightMax int64
		stopSampler = make(chan struct{})
		samplerWG   sync.WaitGroup
	)
	samplerWG.Add(1)
	go sampleInflight(s.authDS, stopSampler, &samplerWG, &inflightMax)
	s.tracing = true
	s.tAuth.on.Store(true)
	qpsOn := s.sweep(scanTargets)
	s.tracing = false
	s.tAuth.on.Store(false)
	close(stopSampler)
	samplerWG.Wait()
	st1 := s.authDS.Stats()
	r.setLayer("dnsserver.shed", float64(st1.Shed-st0.Shed))
	r.setLayer("dnsserver.malformed", float64(st1.Malformed-st0.Malformed))
	r.setLayer("dnsserver.inflight_max", float64(inflightMax))
	r.setLayer("trace.qps", qpsOn)
	r.setLayer("trace.overhead_pct", 100*(qpsOff-qpsOn)/qpsOff)
	r.res.Attempted = 2 * scanTargets
	r.res.Failed = int64(len(s.failed))
	if len(s.failed) > 0 {
		r.fail("%d probes failed: %v", len(s.failed), s.failed[0])
	}

	// Spans: job self time is the job minus its pipeline exchange;
	// dnsserver's is the exchange minus the authority call inside it,
	// matched to the probe by its unique name.
	jobs, pipes, auths := s.jobs.all(), s.pipes.all(), s.tAuth.spans.all()
	pipeByJob := map[int64]span{}
	for _, p := range pipes {
		pipeByJob[p.job] = p
	}
	authByName := indexSpans(auths, func(s span) string { return s.name })
	var jobSelf, pipeMean, dnsSelf, authMean mean
	for _, j := range jobs {
		p, ok := pipeByJob[j.job]
		if !ok {
			continue
		}
		jobSelf.add(float64(j.dur()-p.dur()) / 1e3)
		pipeMean.add(float64(p.dur()) / 1e3)
		if a, n := authByName.within(p.name, p.start, p.end); n == 1 {
			dnsSelf.add(float64(p.dur()-a) / 1e3)
		}
	}
	for _, a := range auths {
		authMean.add(float64(a.dur()) / 1e3)
	}
	r.setLayer("scanner.job_self_us", jobSelf.value())
	r.setLayer("pipeline.exchange_us", pipeMean.value())
	r.setLayer("dnsserver.self_us", dnsSelf.value())
	r.info["linked_requests"] = dnsSelf.n
	r.setLayer("authority.handle_us", authMean.value())
	spanFile := filepath.Join(e.work, fmt.Sprintf("spans-scan-%d.tsv", e.seed))
	if err := writeSpans(spanFile, s.jobs, s.pipes, s.tAuth.spans); err != nil {
		return nil, err
	}
	r.info["span_file"] = spanFile

	st := s.pipe.Stats()
	r.setLayer("pipeline.retries", float64(st.Retries))
	r.setLayer("pipeline.timeouts", float64(st.Timeouts))
	if st.Sent != st.Received+st.Timeouts+st.Aborted+st.SendErrors {
		r.fail("pipeline accounting: sent %d != received %d + timeouts %d + aborted %d + send errors %d",
			st.Sent, st.Received, st.Timeouts, st.Aborted, st.SendErrors)
	}

	if err := scanSerialPasses(r, s); err != nil {
		return nil, err
	}
	authStats := s.close()
	closed = true
	if !authStats.Balanced() {
		r.fail("in-process authdns does not balance: %v", authStats)
	}
	return r, externalScanWatch(e, r)
}

func scanSerialPasses(r *run, s *scanStack) error {
	ctx := context.Background()
	from := netip.MustParseAddr("127.0.0.1")
	queries := make([][]byte, serialCalls)
	upq := make([]*dnswire.Message, serialCalls)
	responses := make([]*dnswire.Message, serialCalls)
	for i := range queries {
		name, err := s.base.Prepend(fmt.Sprintf("serial%d", i))
		if err != nil {
			return err
		}
		q := dnswire.NewQuery(uint16(i), name, dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		if queries[i], err = q.Pack(); err != nil {
			return err
		}
		upq[i] = q
	}
	qname0, err := wireName(string(upq[0].Question().Name))
	if err != nil {
		return err
	}
	dsAllocs, err := dnsserverAllocs(qname0)
	if err != nil {
		return err
	}
	r.setLayer("dnsserver.allocs_per_q", dsAllocs)
	authA := allocsOf(serialCalls, func(i int) { responses[i] = s.auth.HandleDNS(from, upq[i]) })
	r.setLayer("authority.allocs_per_q", authA)
	codecMetrics(r, queries, responses)

	// Pipeline.Exchange serially, with the authority's share metered.
	s.tAuth.allocs.reset()
	s.tAuth.allocs.on.Store(true)
	var exErr error
	window := allocsOf(serialCalls, func(i int) {
		q := upq[i]
		if _, err := s.pipe.Exchange(ctx, s.target, q); err != nil && exErr == nil {
			exErr = err
		}
	})
	s.tAuth.allocs.on.Store(false)
	if exErr != nil {
		r.fail("serial pipeline pass: %v", exErr)
	}
	pipeA := window - s.tAuth.allocs.perCall() - dsAllocs
	r.setLayer("pipeline.allocs_per_q", pipeA)

	// The job's own work before the exchange: naming the probe and
	// building its query, as ecsscan does.
	jobA := allocsOf(serialCalls, func(i int) {
		name, err := s.base.Prepend(fmt.Sprintf("bulk%d", scanTargets*3+i))
		if err == nil {
			q := dnswire.NewQuery(0, name, dnswire.TypeA)
			q.EDNS = dnswire.NewEDNS()
		}
	})
	r.setLayer("scanner.job_allocs", jobA)

	// The whole stack per probe: ecsscan's job, serially.
	stack := allocsOf(serialCalls, func(i int) { _ = s.job(ctx, scanTargets*2+i) })
	r.setLayer("stack.allocs_per_q", stack)
	r.setLayer("stack.layer_allocs_sum", jobA+pipeA+dsAllocs+authA)
	return nil
}

// externalScanWatch runs one real ecsscan sweep against a real authdns,
// sampling authdns's FDs and RSS, for the leak watch and the
// generator's (ecsscan's) own CPU per probe.
func externalScanWatch(e env, r *run) error {
	auth, addr, _, err := startAuth(e)
	if err != nil {
		return err
	}
	defer auth.kill()
	targets := filepath.Join(e.work, fmt.Sprintf("targets-%d.txt", os.Getpid()))
	if err := os.WriteFile(targets, []byte(strings.Repeat(addr.String()+"\n", scanTargets)), 0o644); err != nil {
		return err
	}
	defer os.Remove(targets)
	after, err := sampleProc(auth.pid())
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fdsMax int64
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
				if x, err := sampleProc(auth.pid()); err == nil && x.fds > fdsMax {
					fdsMax = x.fds
				}
			}
		}
	}()
	sw, err := runSweep(e, targets, scanProbeName(e.seed))
	close(stop)
	wg.Wait()
	if err != nil {
		r.fail("leak-watch sweep: %v", err)
	}
	end, err := sampleProc(auth.pid())
	if err != nil {
		return err
	}
	r.setLayer("authdns.fds_max", float64(max(fdsMax, end.fds)))
	r.setLayer("authdns.rss_growth_mb", float64(end.rssKB-after.rssKB)/1024)
	r.setLayer("loadgen.cpu_us_per_q", float64(sw.cpu)/float64(time.Microsecond)/scanTargets)
	if _, err := auth.stop(15 * time.Second); err != nil {
		return err
	}
	return nil
}
