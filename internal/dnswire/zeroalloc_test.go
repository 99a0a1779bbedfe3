package dnswire

import (
	"net/netip"
	"testing"
)

// scanQuery builds the message shape the scan pipeline encodes on every
// probe: one question plus an EDNS OPT carrying an ECS-sized option.
func scanQuery() *Message {
	m := NewQuery(0x1234, "p-7.scan.example.org.", TypeA)
	e := NewEDNS()
	e.SetOption(Option{
		Code: OptionCodeECS,
		Data: []byte{0x00, 0x01, 0x18, 0x00, 0xc0, 0x00, 0x02},
	})
	m.EDNS = e
	return m
}

// scanResponse builds a typical authoritative answer to scanQuery: the
// shape the pipeline decodes on every receive.
func scanResponse(t testing.TB) []byte {
	q := scanQuery()
	r := NewResponse(q)
	r.RecursionAvailable = true
	r.Answers = append(r.Answers, RR{
		Name: q.Question().Name, Class: ClassINET, TTL: 300,
		Data: &ARData{Addr: netip.MustParseAddr("192.0.2.53")},
	})
	r.EDNS = NewEDNS()
	r.EDNS.SetOption(Option{
		Code: OptionCodeECS,
		Data: []byte{0x00, 0x01, 0x18, 0x18, 0xc0, 0x00, 0x02},
	})
	wire, err := r.Pack()
	if err != nil {
		t.Fatalf("pack response: %v", err)
	}
	return wire
}

// The allocation gates below are regression tests, not benchmarks: they
// fail the build the moment a future change makes the steady-state
// encode or decode path allocate, which is the property the scan
// pipeline's throughput rests on.

func TestAllocGateAppendPack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := scanQuery()
	buf := make([]byte, 0, 512)
	// Warm the builder pool and verify the path works at all.
	out, err := m.AppendPack(buf[:0])
	if err != nil {
		t.Fatalf("AppendPack: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("AppendPack produced no bytes")
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = m.AppendPack(buf[:0])
		if err != nil {
			t.Errorf("AppendPack: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendPack allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestAllocGateUnpackInto(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	wire := scanResponse(t)
	m := &Message{}
	// First decode populates the Message; every following decode of the
	// same shape must reuse it entirely.
	if err := UnpackInto(m, wire); err != nil {
		t.Fatalf("UnpackInto: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := UnpackInto(m, wire); err != nil {
			t.Errorf("UnpackInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state UnpackInto allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestAllocGateRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// The combined hot loop the pipeline runs per attempt: patch the ID
	// of the packed query, then decode the response in place.
	wire := scanResponse(t)
	query, err := scanQuery().Pack()
	if err != nil {
		t.Fatalf("pack query: %v", err)
	}
	m := &Message{}
	if err := UnpackInto(m, wire); err != nil {
		t.Fatalf("UnpackInto: %v", err)
	}
	id := uint16(1)
	allocs := testing.AllocsPerRun(200, func() {
		id++
		if !PatchID(query, id) {
			t.Error("PatchID failed")
		}
		if err := UnpackInto(m, wire); err != nil {
			t.Errorf("UnpackInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state patch+decode allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkPack(b *testing.B) {
	m := scanQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendPack(b *testing.B) {
	m := scanQuery()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = m.AppendPack(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	wire := scanResponse(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackInto(b *testing.B) {
	wire := scanResponse(b)
	m := &Message{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := UnpackInto(m, wire); err != nil {
			b.Fatal(err)
		}
	}
}
