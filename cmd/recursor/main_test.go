package main

import (
	"context"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/resolver"
)

// testStack is the serving stack main builds, in process: an authority
// behind one dnsserver, and a compliant resolver forwarding over the
// pipeline transport behind another.
type testStack struct {
	addr string // the recursor's UDP+TCP address
	res  *resolver.Resolver
	tr   *pipelineTransport
	stop func()
}

// startStack wires auth and a recursor for zone the way main does. stop
// drains the recursor before it closes the pipeline, in main's SIGTERM
// order; it is safe to call more than once.
func startStack(t *testing.T, auth *authority.Server, zone dnswire.Name) *testStack {
	t.Helper()
	authSrv := dnsserver.New(auth)
	authAddr, err := authSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { authSrv.Close() })

	upstream, err := parseUpstream(authAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newPipelineTransport(upstream)
	if err != nil {
		t.Fatal(err)
	}
	placeholder := netip.MustParseAddr("192.0.2.1")
	dir := resolver.NewDirectory()
	dir.Add(zone, placeholder)
	dir.Add(dnswire.Root, placeholder)
	res := resolver.New(resolver.Config{
		Addr:      netip.MustParseAddr("127.0.0.1"),
		Now:       time.Now, //ecslint:ignore wallclock the stack runs on real sockets, as in main
		Directory: dir,
		Profile:   resolver.CompliantProfile(),
		Seed:      1,
		Transport: tr,
	})
	srv := dnsserver.New(res)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		tr.pipe.Close()
		t.Fatal(err)
	}
	var once sync.Once
	st := &testStack{addr: bound.String(), res: res, tr: tr}
	st.stop = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("recursor drain: %v", err)
			}
			tr.pipe.Close()
		})
	}
	t.Cleanup(st.stop)
	return st
}

// aliasName, aliasAddr and aliasScope give miss i its own name, answer
// and scope, so an answer that a later decode rewrote cannot pass for
// the one first cached.
func aliasName(i int) dnswire.Name { return dnswire.Name(fmt.Sprintf("n%d.alias.test.", i)) }

func aliasAddr(i int) netip.Addr { return netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}) }

func aliasScope(i int) uint8 { return uint8(16 + i%9) }

// aliasSubnet is miss i's client /24.
func aliasSubnet(i int) ecsopt.ClientSubnet {
	return ecsopt.MustNew(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24)
}

// TestCachedAnswerDoesNotAliasLaterResponse sends several hundred
// distinct misses from different /24s through the recursor, many of
// them concurrently, then asks the first ones again: each must come
// back from the cache with the A record and ECS scope of its own
// upstream answer. A transport that decoded every upstream response
// into one reused Message would rewrite the cached records in place.
func TestCachedAnswerDoesNotAliasLaterResponse(t *testing.T) {
	const (
		serial     = 64
		concurrent = 256
		workers    = 8
		recheck    = 96
	)
	var upstreamQueries atomic.Int64
	auth := authority.NewServer(authority.Config{ECSEnabled: true})
	auth.SetDynamic(func(q dnswire.Question, _ ecsopt.ClientSubnet, hasECS bool, _ netip.Addr) ([]dnswire.RR, uint8, bool, bool) {
		label := strings.TrimPrefix(strings.SplitN(string(q.Name), ".", 2)[0], "n")
		i, err := strconv.Atoi(label)
		if err != nil || q.Type != dnswire.TypeA || !hasECS {
			return nil, 0, false, false
		}
		upstreamQueries.Add(1)
		rr := dnswire.RR{Name: q.Name, Class: dnswire.ClassINET, TTL: 300, Data: &dnswire.ARData{Addr: aliasAddr(i)}}
		return []dnswire.RR{rr}, aliasScope(i), true, true
	})
	st := startStack(t, auth, "alias.test.")
	client := &dnsclient.Client{Timeout: 5 * time.Second}

	ask := func(i int) error {
		cs := aliasSubnet(i)
		resp, err := client.Query(st.addr, aliasName(i), dnswire.TypeA, &cs)
		if err != nil {
			return fmt.Errorf("query %d: %v", i, err)
		}
		if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
			return fmt.Errorf("query %d: rcode %s, %d answers", i, resp.RCode, len(resp.Answers))
		}
		a, ok := resp.Answers[0].Data.(*dnswire.ARData)
		if !ok || a.Addr != aliasAddr(i) {
			return fmt.Errorf("query %d: answer %v, want A %v", i, resp.Answers[0].Data, aliasAddr(i))
		}
		echo, ok := dnsclient.ECSFromResponse(resp)
		if !ok || echo.ScopePrefix != aliasScope(i) {
			return fmt.Errorf("query %d: ECS %v (present %v), want scope %d", i, echo, ok, aliasScope(i))
		}
		return nil
	}

	for i := 0; i < serial; i++ {
		if err := ask(i); err != nil {
			t.Fatal(err)
		}
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ask(i); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := serial; i < serial+concurrent; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := upstreamQueries.Load(); got != serial+concurrent {
		t.Fatalf("authority answered %d queries, want one per miss (%d)", got, serial+concurrent)
	}

	hits := st.res.Cache().Stats().Hits
	for i := 0; i < recheck; i++ {
		if err := ask(i); err != nil {
			t.Fatalf("cache hit: %v", err)
		}
	}
	if got := st.res.Cache().Stats().Hits - hits; got != recheck {
		t.Errorf("repeat queries made %d cache hits, want %d", got, recheck)
	}
	if got := upstreamQueries.Load(); got != serial+concurrent {
		t.Errorf("repeat queries reached the authority: %d queries, want %d", got, serial+concurrent)
	}

	st.stop()
	if ps := st.tr.pipe.Stats(); !ps.Balanced() || ps.Sent < serial+concurrent {
		t.Errorf("pipeline stats after drain: %+v, want balanced with Sent >= %d", ps, serial+concurrent)
	}
}

// TestPipelineTransportTCPFallback serves an answer too big for the
// resolver's advertised 4096-byte UDP payload: the authority's server
// truncates it over UDP (TC=1) and sends it whole over TCP. The client
// must get the whole answer, through exactly one TCP fallback.
func TestPipelineTransportTCPFallback(t *testing.T) {
	const records = 300 // about 16 bytes each with compression: well past 4096
	zone := authority.NewZone("tc.test.", 60)
	for i := 0; i < records; i++ {
		zone.MustAdd(dnswire.RR{Name: "big.tc.test.", Data: &dnswire.ARData{
			Addr: netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}),
		}})
	}
	auth := authority.NewServer(authority.Config{ECSEnabled: true})
	auth.AddZone(zone)
	st := startStack(t, auth, "tc.test.")

	client := &dnsclient.Client{Timeout: 5 * time.Second, ForceTCP: true}
	resp, err := client.Query(st.addr, "big.tc.test.", dnswire.TypeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || resp.Truncated || len(resp.Answers) != records {
		t.Fatalf("rcode %s, truncated %v, %d answers; want NOERROR with all %d", resp.RCode, resp.Truncated, len(resp.Answers), records)
	}

	st.stop()
	ps := st.tr.pipe.Stats()
	if ps.TCPFallbacks != 1 || ps.Truncated != 1 {
		t.Errorf("pipeline TCPFallbacks=%d Truncated=%d, want 1 and 1", ps.TCPFallbacks, ps.Truncated)
	}
	if !ps.Balanced() {
		t.Errorf("pipeline stats do not balance after drain: %+v", ps)
	}
}

// TestParseUpstream checks the start-up validation of -upstream.
func TestParseUpstream(t *testing.T) {
	for _, tc := range []struct {
		spec, want string
	}{
		{"127.0.0.1:5300", "127.0.0.1:5300"},
		{"[::1]:53", "[::1]:53"},
		{"[::ffff:192.0.2.7]:53", "192.0.2.7:53"},
		{"127.0.0.1", ""},
		{"127.0.0.1:0", ""},
		{"127.0.0.1:99999", ""},
		{":53", ""},
		{"0.0.0.0:53", ""},
		{"", ""},
	} {
		ap, err := parseUpstream(tc.spec)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("parseUpstream(%q) = %v, want an error", tc.spec, ap)
		case tc.want != "" && err != nil:
			t.Errorf("parseUpstream(%q): %v", tc.spec, err)
		case tc.want != "" && ap.String() != tc.want:
			t.Errorf("parseUpstream(%q) = %v, want %s", tc.spec, ap, tc.want)
		}
	}
}
