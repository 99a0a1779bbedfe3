package main

import (
	"errors"
	"math"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed, so percentile must sort
		}
		return v
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{10, 0.5, 5}, {100, 0.99, 99}, {100, 1, 100}, {1000, 0.99, 990},
		{1, 0.99, 1}, {3, 0.01, 1}, {200, 0.5, 100},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	// A failed query is +Inf: one failure in 100 is the p100, two move
	// the p99.
	v := seq(100)
	v[0] = math.Inf(1)
	if got := percentile(v, 0.99); got != 99 {
		t.Errorf("one failure: p99 = %v, want 99", got)
	}
	v[1] = math.Inf(1)
	if got := percentile(v, 0.99); !math.IsInf(got, 1) {
		t.Errorf("two failures: p99 = %v, want +Inf", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestDueTimeAndIndex(t *testing.T) {
	if got := dueTime(11000, 11000); got != time.Second {
		t.Errorf("dueTime(11000 at 11000/s) = %v, want 1s", got)
	}
	if got := dueTime(3, 2000); got != 1500*time.Microsecond {
		t.Errorf("dueTime(3 at 2000/s) = %v, want 1.5ms", got)
	}
	cases := []struct {
		id     uint16
		newest int64
		want   int64
	}{
		{5, 5, 5},
		{3, 5, 3},
		{65535, 65536 + 10, 65535},          // sent just before the ID wrapped
		{4, 65536 + 10, 65536 + 4},          // sent after it
		{100, 3*65536 + 200, 3*65536 + 100}, // many wraps in
	}
	for _, c := range cases {
		if got := indexForID(c.id, c.newest); got != c.want {
			t.Errorf("indexForID(%d, %d) = %d, want %d", c.id, c.newest, got, c.want)
		}
	}
	// The latency of a query answered after its due time is counted
	// from the due time, whatever the sender's delay.
	lat := float64(time.Duration(7*time.Millisecond)-dueTime(10, 2000)) / float64(time.Millisecond)
	if lat != 2 {
		t.Errorf("latency from due time = %v ms, want 2", lat)
	}
}

// response builds an answer with the program's own codec, so the
// validator is tested against wire the servers really produce.
func response(t *testing.T, id uint16, name string, client [3]byte, mutate func(*dnswire.Message)) []byte {
	t.Helper()
	q := dnswire.NewQuery(id, dnswire.MustParseName(name), dnswire.TypeA)
	q.RecursionDesired = true
	resp := dnswire.NewResponse(q)
	resp.RecursionAvailable = true
	resp.Answers = []dnswire.RR{{Name: q.Question().Name, Class: dnswire.ClassINET, TTL: 60, Data: &dnswire.ARData{Addr: netip.AddrFrom4(answerAddr)}}}
	resp.EDNS = dnswire.NewEDNS()
	cs := ecsopt.MustNew(netip.AddrFrom4([4]byte{client[0], client[1], client[2], 0}), 24)
	ecsopt.Attach(resp, cs.WithScope(ecsScope))
	if mutate != nil {
		mutate(resp)
	}
	b, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestValidateAnswer(t *testing.T) {
	const name = "h0007.cdn.example.net."
	client := [3]byte{12, 34, 56}
	qname, err := wireName(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateAnswer(response(t, 77, name, client, nil), 77, qname, client); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	cases := []struct {
		desc   string
		id     uint16
		mutate func(*dnswire.Message)
		wire   func([]byte) []byte
		want   error
	}{
		{desc: "wrong ID", id: 78, want: errID},
		{desc: "wrong scope", id: 77, mutate: func(m *dnswire.Message) {
			ecsopt.Attach(m, ecsopt.MustNew(netip.AddrFrom4([4]byte{12, 34, 56, 0}), 24).WithScope(24))
		}, want: errScope},
		{desc: "missing ECS", id: 77, mutate: func(m *dnswire.Message) { m.EDNS = dnswire.NewEDNS() }, want: errNoECS},
		{desc: "missing OPT", id: 77, mutate: func(m *dnswire.Message) { m.EDNS = nil }, want: errNoECS},
		{desc: "other /24 echoed", id: 77, mutate: func(m *dnswire.Message) {
			ecsopt.Attach(m, ecsopt.MustNew(netip.AddrFrom4([4]byte{12, 34, 57, 0}), 24).WithScope(ecsScope))
		}, want: errECS},
		{desc: "wrong A record", id: 77, mutate: func(m *dnswire.Message) {
			m.Answers[0].Data = &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.54")}
		}, want: errAnswer},
		{desc: "no answer", id: 77, mutate: func(m *dnswire.Message) { m.Answers = nil }, want: errAnswer},
		{desc: "SERVFAIL", id: 77, mutate: func(m *dnswire.Message) { m.RCode = dnswire.RCodeServFail }, want: errFlags},
		{desc: "truncated", id: 77, mutate: func(m *dnswire.Message) { m.Truncated = true }, want: errTruncated},
		{desc: "other question", id: 77, mutate: func(m *dnswire.Message) {
			m.Questions[0].Name = dnswire.MustParseName("h0008.cdn.example.net.")
		}, want: errQuestion},
		{desc: "cut short", id: 77, wire: func(b []byte) []byte { return b[:len(b)-3] }, want: errShort},
	}
	for _, c := range cases {
		b := response(t, 77, name, client, c.mutate)
		if c.wire != nil {
			b = c.wire(b)
		}
		if err := validateAnswer(b, c.id, qname, client); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.desc, err, c.want)
		}
	}
}

func TestQueryEncoding(t *testing.T) {
	qname, err := wireName("Ux7.CDN.example.net")
	if err != nil {
		t.Fatal(err)
	}
	b := appendQuery(nil, 4242, qname, [3]byte{10, 20, 30})
	m, err := dnswire.Unpack(b)
	if err != nil {
		t.Fatalf("program's codec rejects the generator's query: %v", err)
	}
	if m.ID != 4242 || !m.RecursionDesired || m.Question().Name != "ux7.cdn.example.net." || m.Question().Type != dnswire.TypeA {
		t.Errorf("decoded %+v", m)
	}
	cs, ok, err := ecsopt.FromMessage(m)
	if err != nil || !ok || cs.Prefix().String() != "10.20.30.0/24" || cs.ScopePrefix != 0 {
		t.Errorf("ECS = %v %v %v", cs, ok, err)
	}
	if got := nameFromWire(qname); got != "ux7.cdn.example.net." {
		t.Errorf("nameFromWire = %q", got)
	}
}

func TestColdNamesUnique(t *testing.T) {
	zone, _ := wireName(serveZone)
	c := &coldQueries{tag: "k", zone: zone, clients: [][3]byte{{1, 2, 3}, {4, 5, 6}}, order: []int32{1, 0}}
	seen := map[string]bool{}
	scratch := make([]byte, 0, 256)
	for i := int64(0); i < 1000; i++ {
		q, client := c.query(i, scratch)
		if _, err := dnswire.Unpack(appendQuery(nil, 1, q, client)); err != nil {
			t.Fatalf("query %d does not parse: %v", i, err)
		}
		if seen[string(q)] {
			t.Fatalf("name %q repeats", nameFromWire(q))
		}
		seen[string(q)] = true
	}
}

func TestExitStatsParsing(t *testing.T) {
	out := `2026/01/01 00:00:00 recursor: served 1200 client queries, sent 40 upstream
2026/01/01 00:00:00 recursor: received=1201 answered=1200 shed=1 (rrl-dropped=0) slipped=0 malformed=0 panics=0 conns=0/0 (rejected=0)
2026/01/01 00:00:00 recursor: cache lookups=1200 hits=1160 misses=40 (96.7% hit) evictions=3 expiries=0 coalesced=0 rejected=0 live=37 high=40`
	st, err := parseServerStats(out)
	if err != nil || !st.balanced() || st.received != 1201 || st.shed != 1 {
		t.Errorf("server stats %+v %v", st, err)
	}
	st.answered--
	if st.balanced() {
		t.Error("unbalanced stats reported balanced")
	}
	cs, err := parseCacheStats(out)
	if err != nil || cs.lookups != 1200 || cs.hits != 1160 || cs.misses != 40 || cs.evictions != 3 || cs.live != 37 {
		t.Errorf("cache stats %+v %v", cs, err)
	}
	client, up, err := parseServed(out)
	if err != nil || client != 1200 || up != 40 {
		t.Errorf("served %d %d %v", client, up, err)
	}
}

func readReference(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../" + referenceFile)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSections(t *testing.T) {
	out := "== a — first ==\nx 1\n\n== b — second ==\ny 2\n\n\n"
	got := sections(out)
	if len(got) != 2 || got["a"] != "== a — first ==\nx 1\n" || got["b"] != "== b — second ==\ny 2\n" {
		t.Errorf("sections = %q", got)
	}
	ref := sections(readReference(t))
	for _, id := range replayExperiments {
		if !strings.HasPrefix(ref[id], "== "+id+" — ") {
			t.Errorf("reference section %s not found", id)
		}
	}
	// ecslab prints each report followed by a blank line; the two
	// experiments' output at seed 1 is the reference's sections.
	seed1 := ref["ext_evictions"] + "\n" + ref["ext_scale"] + "\n"
	if p := checkReplay(seed1, 1, readReference(t)); len(p) > 0 {
		t.Errorf("reference sections fail their own check: %v", p)
	}
	// One changed digit fails seed 1 but keeps the structure.
	changed := strings.Replace(seed1, "98.89", "98.88", 1)
	if p := checkReplay(changed, 1, readReference(t)); len(p) != 1 {
		t.Errorf("changed digit at seed 1: problems %v", p)
	}
	if p := checkReplay(changed, 2, readReference(t)); len(p) != 0 {
		t.Errorf("changed digit at seed 2: problems %v", p)
	}
	// A dropped table row breaks the structure at any seed.
	dropped := strings.Replace(seed1, "16384     71.90       0.00              28.04     5.92\n", "", 1)
	if p := checkReplay(dropped, 2, readReference(t)); len(p) == 0 {
		t.Error("dropped row not detected")
	}
	if p := checkReplay(ref["ext_scale"], 2, readReference(t)); len(p) == 0 {
		t.Error("missing report not detected")
	}
}

func TestReplayRecords(t *testing.T) {
	n, err := replayRecords(readReference(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3*(28000+280000+2800000) + 16*280000); n != want {
		t.Errorf("replayRecords = %d, want %d", n, want)
	}
}

func TestSpanIndex(t *testing.T) {
	spans := []span{
		{name: "a", start: 10, end: 20},
		{name: "a", start: 30, end: 45},
		{name: "a", start: 50, end: 70},
		{name: "b", start: 12, end: 18},
	}
	ix := indexSpans(spans, func(s span) string { return s.name })
	if total, n := ix.within("a", 25, 60); total != 15 || n != 1 {
		t.Errorf("within = %d, %d; want 15, 1", total, n)
	}
	if total, n := ix.within("a", 0, 100); total != 45 || n != 3 {
		t.Errorf("within = %d, %d; want 45, 3", total, n)
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	defer func(p []float64) { hostSpeed.probes = p }(hostSpeed.probes)
	hostSpeed.probes = []float64{2 * referenceProbe, 2 * referenceProbe, 9 * referenceProbe}
	r := newRun()
	r.set("qps", "1/s", 100)
	r.set("wall_s", "s", 10)
	r.set("p50_ms", "ms", 4)
	r.set("cpu_us_per_q", "us", 30)
	r.set("rss_mb", "MB", 50)
	r.set("answered_ratio", "ratio", 1)
	atReferenceSpeed(r)
	want := map[string]float64{"qps": 200, "wall_s": 5, "p50_ms": 2, "cpu_us_per_q": 15, "rss_mb": 50, "answered_ratio": 1}
	for name, v := range want {
		if got := r.res.Metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if r.info["raw.qps"] != 100.0 || r.info["raw.wall_s"] != 10.0 || r.info["raw.rss_mb"] != nil {
		t.Errorf("raw figures in the info line: %v", r.info)
	}
	if got := speedProbe(); !(got > 0) {
		t.Errorf("speedProbe = %v, want a positive CPU time", got)
	}
}
