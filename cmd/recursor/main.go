// Command recursor runs the module's ECS recursive resolver on real
// UDP+TCP sockets with a selectable behavior profile, forwarding cache
// misses to a configured authoritative server over one long-lived
// dnsclient.Pipeline (shared sockets, in-flight demux, TCP fallback on
// truncation). Pointing it at authdns gives a two-process, real-socket
// replica of the paper's measurement setup.
//
// Usage:
//
//	recursor [-listen 127.0.0.1:5301] [-zone scan.example.org] \
//	         [-upstream 127.0.0.1:5300] [-profile compliant] \
//	         [-cache-entries 100000] [-cache-shards 8] \
//	         [-negative-ttl 30s] [-min-ttl 0] [-max-ttl 0] [-no-coalesce]
//
// With -upstreams, cache misses go through the resilient upstream
// pool instead of the -upstream pipeline: health-gated failover
// across the listed servers, optional request hedging (-hedge),
// per-upstream circuit breakers (-breaker), and the adaptive EDNS
// payload ladder (-edns-ladder) that steps 4096 → 1232 → TCP on
// truncation.
//
// Profiles: compliant, google, jammed, ignore-scope, cap22,
// long-prefix, private-prefix, loopback-prober, none.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/resolver"
	"ecsdns/internal/upstreams"
)

// pipelineTransport adapts one long-lived dnsclient.Pipeline to the
// resolver's Transport interface, sending every query to the single
// configured upstream whatever simulation address the directory routed
// it to. Each answer decodes into a fresh Message: the resolver caches
// the answer's records, so a reused decode target would rewrite
// entries already in the cache.
type pipelineTransport struct {
	pipe     *dnsclient.Pipeline
	upstream string
}

// newPipelineTransport opens the upstream pipeline with its default
// shards, timeout and retries.
func newPipelineTransport(upstream netip.AddrPort) (*pipelineTransport, error) {
	pipe, err := dnsclient.NewPipeline(dnsclient.PipelineConfig{})
	if err != nil {
		return nil, err
	}
	return &pipelineTransport{pipe: pipe, upstream: upstream.String()}, nil
}

func (t *pipelineTransport) Exchange(_, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	start := time.Now() //ecslint:ignore wallclock measures real upstream RTT
	resp, err := t.pipe.Exchange(context.Background(), t.upstream, q)
	return resp, time.Since(start), err
}

// parseUpstream resolves the -upstream address once, at start-up, so a
// bad address stops the recursor instead of failing every cache miss.
func parseUpstream(spec string) (netip.AddrPort, error) {
	raddr, err := net.ResolveUDPAddr("udp", spec)
	if err != nil {
		return netip.AddrPort{}, err
	}
	ap := raddr.AddrPort()
	addr := ap.Addr().Unmap()
	if !addr.IsValid() || addr.IsUnspecified() || ap.Port() == 0 {
		return netip.AddrPort{}, fmt.Errorf("%q needs a host and a nonzero port", spec)
	}
	return netip.AddrPortFrom(addr, ap.Port()), nil
}

// poolTransport adapts the upstream pool's exchange primitives onto
// real sockets: each synthetic pool address maps to one configured
// host:port. UDP attempts are single-shot with no client-side retries
// or fallback — the pool's ladder owns transport escalation — and TCP
// goes straight to a framed connection.
type poolTransport struct {
	udp     *dnsclient.Client
	tcp     *dnsclient.Client
	targets map[netip.Addr]string
}

func (t *poolTransport) Exchange(_, to netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	server, ok := t.targets[to]
	if !ok {
		return nil, 0, fmt.Errorf("recursor: no socket for pool address %v", to)
	}
	start := time.Now() //ecslint:ignore wallclock measures real upstream RTT
	resp, err := t.udp.ExchangeUDP(server, q)
	return resp, time.Since(start), err
}

func (t *poolTransport) ExchangeTCP(_, to netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	server, ok := t.targets[to]
	if !ok {
		return nil, 0, fmt.Errorf("recursor: no socket for pool address %v", to)
	}
	start := time.Now() //ecslint:ignore wallclock measures real upstream RTT
	resp, err := t.tcp.Exchange(server, q)
	return resp, time.Since(start), err
}

// parsePoolSpec parses "host:port[/priority[/weight]],..." into pool
// upstreams on synthetic 192.0.2.x addresses plus the socket map the
// poolTransport routes by.
func parsePoolSpec(spec string) ([]upstreams.Upstream, map[netip.Addr]string, error) {
	parts := strings.Split(spec, ",")
	if len(parts) > 254 {
		return nil, nil, fmt.Errorf("pool spec lists %d upstreams; max 254", len(parts))
	}
	targets := make(map[netip.Addr]string, len(parts))
	ups := make([]upstreams.Upstream, 0, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		fields := strings.Split(part, "/")
		if part == "" || len(fields) > 3 {
			return nil, nil, fmt.Errorf("bad pool upstream %q: want host:port[/priority[/weight]]", part)
		}
		if _, _, err := net.SplitHostPort(fields[0]); err != nil {
			return nil, nil, fmt.Errorf("bad pool upstream %q: %v", part, err)
		}
		u := upstreams.Upstream{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)})}
		if len(fields) > 1 {
			p, err := strconv.Atoi(fields[1])
			if err != nil || p < 0 {
				return nil, nil, fmt.Errorf("bad priority in pool upstream %q", part)
			}
			u.Priority = p
		}
		if len(fields) > 2 {
			wt, err := strconv.Atoi(fields[2])
			if err != nil || wt < 1 {
				return nil, nil, fmt.Errorf("bad weight in pool upstream %q", part)
			}
			u.Weight = wt
		}
		targets[u.Addr] = fields[0]
		ups = append(ups, u)
	}
	return ups, targets, nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:5301", "UDP+TCP listen address")
	zoneName := flag.String("zone", "scan.example.org", "zone served by the upstream authority")
	upstream := flag.String("upstream", "127.0.0.1:5300", "authoritative server address")
	upstreamsSpec := flag.String("upstreams", "", "resilient upstream pool, host:port[/priority[/weight]] comma-separated (empty = single -upstream)")
	hedgeSpec := flag.String("hedge", "", "request hedging: off, on, or p=0.95,min=10ms,max=2s (requires -upstreams)")
	breakerSpec := flag.String("breaker", "", "circuit breaker: off or fails=5,open=30s,probes=2 (requires -upstreams)")
	ladderSpec := flag.String("edns-ladder", "", "EDNS payload ladder: off, or sizes like 4096,1232 with optional decay=5m (requires -upstreams)")
	profileName := flag.String("profile", "compliant", "ECS behavior profile")
	maxInflight := flag.Int("max-inflight", dnsserver.DefaultMaxInflight, "UDP queries handled concurrently (admission control)")
	maxConns := flag.Int("max-conns", dnsserver.DefaultMaxConns, "simultaneous TCP connections (-1 = unlimited)")
	overflow := flag.String("overflow", "drop", "admission overflow policy: drop or servfail")
	rrlSpec := flag.String("rrl", "", "response-rate limit, e.g. rate=20,burst=40,slip=2 (empty = off)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-drain budget on SIGTERM before force close")
	cacheEntries := flag.Int("cache-entries", 0, "cache capacity in entries, LRU-evicted over the bound (0 = unbounded)")
	cacheShards := flag.Int("cache-shards", 8, "independently locked cache shards (rounded up to a power of two)")
	negTTL := flag.Duration("negative-ttl", 0, "cap on cached negative-answer lifetime (0 = 30s default)")
	minTTL := flag.Duration("min-ttl", 0, "floor on cached positive-answer lifetime (0 = off)")
	maxTTL := flag.Duration("max-ttl", 0, "cap on every cached lifetime (0 = off)")
	noCoalesce := flag.Bool("no-coalesce", false, "disable singleflight deduplication of concurrent identical misses")
	flag.Parse()

	if flag.NArg() > 0 {
		log.Fatalf("recursor: unexpected arguments %q", flag.Args())
	}
	zone, err := dnswire.ParseName(*zoneName)
	if err != nil {
		log.Fatalf("recursor: bad zone: %v", err)
	}
	profile, err := profileByName(*profileName)
	if err != nil {
		log.Fatalf("recursor: %v", err)
	}
	if *maxInflight <= 0 {
		log.Fatalf("recursor: -max-inflight must be positive, got %d", *maxInflight)
	}
	if *maxConns == 0 || *maxConns < -1 {
		log.Fatalf("recursor: -max-conns must be positive or -1 (unlimited), got %d", *maxConns)
	}
	policy, err := parseOverflow(*overflow)
	if err != nil {
		log.Fatalf("recursor: %v", err)
	}
	rrl, err := dnsserver.ParseRRL(*rrlSpec)
	if err != nil {
		log.Fatalf("recursor: bad -rrl: %v", err)
	}
	if *drain <= 0 {
		log.Fatalf("recursor: -drain must be positive, got %v", *drain)
	}
	if *cacheEntries < 0 {
		log.Fatalf("recursor: -cache-entries must be non-negative, got %d", *cacheEntries)
	}
	if *cacheShards < 1 {
		log.Fatalf("recursor: -cache-shards must be positive, got %d", *cacheShards)
	}
	if *negTTL < 0 || *minTTL < 0 || *maxTTL < 0 {
		log.Fatal("recursor: TTL clamps must be non-negative")
	}
	upstreamAddr, err := parseUpstream(*upstream)
	if err != nil {
		log.Fatalf("recursor: bad -upstream: %v", err)
	}

	// The directory routes the configured zone (and everything else) to
	// a placeholder address; the pipeline transport ignores it and talks
	// to the upstream socket.
	placeholder := netip.MustParseAddr("192.0.2.1")
	dir := resolver.NewDirectory()
	dir.Add(zone, placeholder)
	dir.Add(dnswire.Root, placeholder)

	host, _, err := net.SplitHostPort(*listen)
	if err != nil {
		log.Fatalf("recursor: bad listen address: %v", err)
	}
	selfAddr, err := netip.ParseAddr(host)
	if err != nil {
		log.Fatalf("recursor: bad listen host: %v", err)
	}

	resCfg := resolver.Config{
		Addr:              selfAddr,
		Now:               time.Now, //ecslint:ignore wallclock live server: cache ages on the real clock
		Directory:         dir,
		Profile:           profile,
		Seed:              time.Now().UnixNano(), //ecslint:ignore wallclock live server wants unpredictable IDs, not replay
		CacheEntries:      *cacheEntries,
		CacheShards:       *cacheShards,
		NegativeTTL:       *negTTL,
		MinTTL:            *minTTL,
		MaxTTL:            *maxTTL,
		DisableCoalescing: *noCoalesce,
	}
	var pool *upstreams.Pool
	var upstreamPipe *pipelineTransport
	if *upstreamsSpec != "" {
		ups, targets, err := parsePoolSpec(*upstreamsSpec)
		if err != nil {
			log.Fatalf("recursor: bad -upstreams: %v", err)
		}
		hedge, err := upstreams.ParseHedge(*hedgeSpec)
		if err != nil {
			log.Fatalf("recursor: bad -hedge: %v", err)
		}
		breaker, err := upstreams.ParseBreaker(*breakerSpec)
		if err != nil {
			log.Fatalf("recursor: bad -breaker: %v", err)
		}
		ladder, err := upstreams.ParseLadder(*ladderSpec)
		if err != nil {
			log.Fatalf("recursor: bad -edns-ladder: %v", err)
		}
		pool, err = upstreams.New(upstreams.Config{
			Upstreams: ups,
			Transport: &poolTransport{
				udp:     &dnsclient.Client{Retries: dnsclient.NoRetries},
				tcp:     &dnsclient.Client{ForceTCP: true},
				targets: targets,
			},
			Now:        time.Now, //ecslint:ignore wallclock live pool: health, breakers, and the ladder age on the real clock
			Hedge:      hedge,
			Breaker:    breaker,
			Ladder:     ladder,
			Concurrent: true,
			After:      time.After, //ecslint:ignore wallclock live hedge timer
		})
		if err != nil {
			log.Fatalf("recursor: pool: %v", err)
		}
		resCfg.Pool = pool
	} else {
		if *hedgeSpec != "" || *breakerSpec != "" || *ladderSpec != "" {
			log.Fatal("recursor: -hedge, -breaker, and -edns-ladder require -upstreams")
		}
		upstreamPipe, err = newPipelineTransport(upstreamAddr)
		if err != nil {
			log.Fatalf("recursor: %v", err)
		}
		resCfg.Transport = upstreamPipe
	}
	res := resolver.New(resCfg)

	srv := dnsserver.New(res)
	srv.MaxInflight = *maxInflight
	srv.MaxConns = *maxConns
	srv.Overflow = policy
	srv.RRL = rrl
	bound, err := srv.Start(*listen)
	if err != nil {
		log.Fatalf("recursor: %v", err)
	}
	if pool != nil {
		log.Printf("recursor: %s profile on %s, pool of %d upstreams [%s]", *profileName, bound, strings.Count(*upstreamsSpec, ",")+1, *upstreamsSpec)
	} else {
		log.Printf("recursor: %s profile on %s, upstream %s", *profileName, bound, *upstream)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("recursor: shutting down (draining up to %v)", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("recursor: drain incomplete, force-closed: %v", err)
	}
	client, up := res.Counters()
	log.Printf("recursor: served %d client queries, sent %d upstream", client, up)
	log.Printf("recursor: %s", srv.Stats())
	log.Printf("recursor: cache %s", res.Cache().Stats())
	if pool != nil {
		pool.Wait()
		c := pool.Counters()
		log.Printf("recursor: pool issued=%d won=%d lost=%d cancelled=%d failed=%d picks=%d granted=%d refused=%d balanced=%v",
			c.Issued, c.Won, c.Lost, c.Cancelled, c.Failed, c.Picks, c.Granted, c.Refused, c.Balanced())
		log.Printf("recursor: pool hedges=%d failovers=%d breaker-trips=%d ladder-steps=%d tcp-fallbacks=%d fast-fails=%d",
			c.Hedges, c.Failovers, c.BreakerTrips, c.LadderSteps, c.TCPFallbacks, c.FastFails)
	}
	if upstreamPipe != nil {
		// The drain above let in-flight misses finish, so the pipeline's
		// books can balance before it closes.
		st := upstreamPipe.pipe.Stats()
		log.Printf("recursor: upstream pipeline sent=%d received=%d timeouts=%d aborted=%d send-errors=%d retries=%d tcp-fallbacks=%d balanced=%v",
			st.Sent, st.Received, st.Timeouts, st.Aborted, st.SendErrors, st.Retries, st.TCPFallbacks, st.Balanced())
		upstreamPipe.pipe.Close()
	}
}

func parseOverflow(spec string) (dnsserver.OverflowPolicy, error) {
	switch spec {
	case "drop":
		return dnsserver.OverflowDrop, nil
	case "servfail":
		return dnsserver.OverflowServFail, nil
	}
	return 0, fmt.Errorf("bad -overflow %q (want drop or servfail)", spec)
}

func profileByName(name string) (resolver.Profile, error) {
	switch name {
	case "compliant":
		return resolver.CompliantProfile(), nil
	case "google":
		return resolver.GoogleLikeProfile(), nil
	case "jammed":
		return resolver.JammedProfile(), nil
	case "ignore-scope":
		return resolver.IgnoreScopeProfile(), nil
	case "cap22":
		return resolver.Cap22Profile(), nil
	case "long-prefix":
		return resolver.LongPrefixProfile(), nil
	case "private-prefix":
		return resolver.PrivatePrefixProfile(), nil
	case "loopback-prober":
		return resolver.LoopbackProberProfile(), nil
	case "none":
		return resolver.NonECSProfile(), nil
	}
	return resolver.Profile{}, fmt.Errorf("unknown profile %q", name)
}
