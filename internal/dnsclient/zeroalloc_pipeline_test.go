package dnsclient

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// startEchoResponder starts a raw UDP responder that reflects every
// datagram back with the QR bit set — the cheapest wire-valid DNS
// "response" to the query that was sent. The loop performs no heap
// allocations, which matters because testing.AllocsPerRun counts
// mallocs across every goroutine, responder included.
func startEchoResponder(t *testing.T) netip.AddrPort {
	t.Helper()
	pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := make([]byte, 2048)
		for {
			n, src, err := pc.ReadFromUDPAddrPort(b)
			if err != nil {
				return
			}
			if n < 12 {
				continue
			}
			b[2] |= 0x80 // set QR: the echoed query becomes its own response
			pc.WriteToUDPAddrPort(b[:n], src)
		}
	}()
	t.Cleanup(func() {
		pc.Close()
		wg.Wait()
	})
	return pc.LocalAddr().(*net.UDPAddr).AddrPort()
}

// allocGateQuery builds the scan-shaped query the throughput path
// carries: one question plus an EDNS OPT with an ECS option.
func allocGateQuery() *dnswire.Message {
	q := dnswire.NewQuery(0, dnswire.MustParseName("gate.pipeline.test."), dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	ecsopt.Attach(q, ecsopt.ClientSubnet{
		Family:       ecsopt.FamilyIPv4,
		SourcePrefix: 24,
		Addr:         netip.MustParseAddr("203.0.113.0"),
	})
	return q
}

// gatePipelineExchange is the shared body of the pipeline allocation
// gates: after warmup, a full ExchangeInto round trip (AppendPack into
// a pooled buffer, register, UDP send, demux, UnpackInto) must not
// allocate.
func gatePipelineExchange(t *testing.T, cfg PipelineConfig) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	server := startEchoResponder(t).String()
	p := newTestPipeline(t, cfg)
	q := allocGateQuery()
	resp := &dnswire.Message{}
	exchange := func() {
		if err := p.ExchangeInto(context.Background(), server, q, resp); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools and the waiter buffer.
	for i := 0; i < 64; i++ {
		exchange()
	}
	if avg := testing.AllocsPerRun(200, exchange); avg != 0 {
		t.Fatalf("ExchangeInto allocates %.2f allocs/op, want 0", avg)
	}
	st := p.Stats()
	if st.Received == 0 || st.Sent != st.Received {
		t.Fatalf("stats after clean run: %+v, want Sent == Received > 0", st)
	}
}

// TestAllocGatePipelineExchange is the send/receive half of the
// allocation regression gate: the single-packet pipeline hot path stays
// at zero allocations per query.
func TestAllocGatePipelineExchange(t *testing.T) {
	gatePipelineExchange(t, PipelineConfig{
		Shards: 1, Timeout: 2 * time.Second,
		Retries: NoRetries, NoTCPFallback: true,
	})
}

// TestAllocGatePipelineExchangeBatch is the same gate over the batched
// (sendmmsg/recvmmsg) path where the platform has it; elsewhere Batch
// falls back to single-packet I/O and the gate still must hold.
func TestAllocGatePipelineExchangeBatch(t *testing.T) {
	gatePipelineExchange(t, PipelineConfig{
		Shards: 1, Timeout: 2 * time.Second,
		Retries: NoRetries, NoTCPFallback: true, Batch: true,
	})
}

// BenchmarkPipelineExchange measures a full UDP round trip against the
// zero-alloc loopback echo responder.
func BenchmarkPipelineExchange(b *testing.B) {
	pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	defer func() {
		pc.Close()
		wg.Wait()
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 2048)
		for {
			n, src, err := pc.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n < 12 {
				continue
			}
			buf[2] |= 0x80
			pc.WriteToUDPAddrPort(buf[:n], src)
		}
	}()
	server := pc.LocalAddr().(*net.UDPAddr).AddrPort().String()
	p, err := NewPipeline(PipelineConfig{
		Shards: 1, Timeout: 2 * time.Second,
		Retries: NoRetries, NoTCPFallback: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	q := allocGateQuery()
	resp := &dnswire.Message{}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ExchangeInto(ctx, server, q, resp); err != nil {
			b.Fatal(err)
		}
	}
}
