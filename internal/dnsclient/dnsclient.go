// Package dnsclient is a DNS stub client over real sockets: UDP with
// retries and automatic TCP fallback on truncation, EDNS0 negotiation,
// and ECS helpers. It is the measurement probe the ecsscan binary and the
// live-wire example use against real servers.
package dnsclient

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// NoRetries disables UDP retries when assigned to Client.Retries or
// PipelineConfig.Retries. Any negative value works; the zero value keeps
// the default of 2.
const NoRetries = -1

// Client issues DNS queries. The zero value is usable.
type Client struct {
	// Timeout bounds each network attempt (default 3 s).
	Timeout time.Duration
	// Retries is the number of additional UDP attempts after the first.
	// 0 means the default of 2; NoRetries (or any negative value)
	// disables retries.
	Retries int
	// UDPSize is the advertised EDNS0 buffer (default 4096; 0 keeps the
	// query EDNS-less unless it already has an OPT).
	UDPSize uint16
	// ForceTCP skips UDP entirely.
	ForceTCP bool

	mu  sync.Mutex
	rng *rand.Rand
}

// Exchange errors.
var (
	ErrIDMismatch = errors.New("dnsclient: response ID mismatch")
	ErrMismatch   = errors.New("dnsclient: response question mismatch")
)

func (c *Client) timeout() time.Duration {
	if c.Timeout == 0 {
		return 3 * time.Second
	}
	return c.Timeout
}

func (c *Client) retries() int {
	switch {
	case c.Retries < 0:
		return 0
	case c.Retries == 0:
		return 2
	default:
		return c.Retries
	}
}

func (c *Client) randID() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return uint16(c.rng.Intn(1 << 16))
}

// Query builds and exchanges a recursion-desired query for (name, type)
// against server ("host:port"). ecs, when non-nil, is attached as the
// client subnet option.
func (c *Client) Query(server string, name dnswire.Name, t dnswire.Type, ecs *ecsopt.ClientSubnet) (*dnswire.Message, error) {
	q := dnswire.NewQuery(c.randID(), name, t)
	size := c.UDPSize
	if size == 0 {
		size = 4096
	}
	q.EDNS = &dnswire.EDNS{UDPSize: size}
	if ecs != nil {
		ecsopt.Attach(q, *ecs)
	}
	return c.Exchange(server, q)
}

// Exchange sends q to server and returns the validated response,
// retrying over UDP and falling back to TCP when the response is
// truncated. q is sent exactly as given — including an ID of 0, which is
// a legitimate transaction ID; use Query for automatic ID assignment.
func (c *Client) Exchange(server string, q *dnswire.Message) (*dnswire.Message, error) {
	data, err := q.Pack()
	if err != nil {
		return nil, err
	}
	if !c.ForceTCP {
		for attempt := 0; attempt <= c.retries(); attempt++ {
			resp, err := c.exchangeUDP(server, q, data)
			if err != nil {
				continue
			}
			if resp.Truncated {
				break // retry the whole query over TCP
			}
			return resp, nil
		}
		// UDP exhausted or truncated: fall through to TCP.
	}
	return c.exchangeTCP(server, q, data)
}

// ExchangeUDP sends q in a single UDP attempt with no retries and no
// TCP fallback, returning truncated responses as-is. It exists for
// callers that own transport-escalation policy themselves — the
// upstreams pool's EDNS payload ladder steps payload sizes and falls
// back to TCP on its own schedule.
func (c *Client) ExchangeUDP(server string, q *dnswire.Message) (*dnswire.Message, error) {
	data, err := q.Pack()
	if err != nil {
		return nil, err
	}
	return c.exchangeUDP(server, q, data)
}

// readBufPool holds the 64 KiB datagram buffers exchangeUDP reads
// into. Unpack copies everything it keeps, so a buffer goes back to the
// pool as soon as its exchange ends.
var readBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 65535)
		return &b
	},
}

func (c *Client) exchangeUDP(server string, q *dnswire.Message, data []byte) (*dnswire.Message, error) {
	conn, err := net.DialTimeout("udp", server, c.timeout())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(c.timeout()))
	if _, err := conn.Write(data); err != nil {
		return nil, err
	}
	bp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bp)
	buf := *bp
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		resp, err := dnswire.Unpack(buf[:n])
		if err != nil {
			continue // garbage datagram; keep waiting for the real one
		}
		if err := validate(q, resp); err != nil {
			continue // mismatched datagram (spoof/stale); keep waiting
		}
		return resp, nil
	}
}

func (c *Client) exchangeTCP(server string, q *dnswire.Message, data []byte) (*dnswire.Message, error) {
	conn, err := net.DialTimeout("tcp", server, c.timeout())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(c.timeout()))
	resp, err := tcpRoundTrip(conn, data)
	if err != nil {
		return nil, err
	}
	m, err := dnswire.Unpack(resp)
	if err != nil {
		return nil, err
	}
	if err := validate(q, m); err != nil {
		return nil, err
	}
	return m, nil
}

// tcpRoundTrip writes one length-prefixed DNS message over conn and reads
// one framed response. The caller owns connection deadlines.
func tcpRoundTrip(conn net.Conn, data []byte) ([]byte, error) {
	out := make([]byte, 2+len(data))
	binary.BigEndian.PutUint16(out, uint16(len(data)))
	copy(out[2:], data)
	if _, err := conn.Write(out); err != nil {
		return nil, err
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	resp := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

func validate(q, resp *dnswire.Message) error {
	if resp.ID != q.ID {
		return ErrIDMismatch
	}
	if !resp.Response {
		return fmt.Errorf("dnsclient: QR bit not set")
	}
	if len(q.Questions) > 0 {
		if len(resp.Questions) == 0 || resp.Questions[0] != q.Questions[0] {
			return ErrMismatch
		}
	}
	return nil
}

// ECSFromResponse extracts the ECS option from a response, leniently.
// The bool reports presence.
func ECSFromResponse(m *dnswire.Message) (ecsopt.ClientSubnet, bool) {
	if m.EDNS == nil {
		return ecsopt.ClientSubnet{}, false
	}
	opt, ok := m.EDNS.Option(dnswire.OptionCodeECS)
	if !ok {
		return ecsopt.ClientSubnet{}, false
	}
	cs, err := ecsopt.DecodeLenient(opt)
	if err != nil {
		return ecsopt.ClientSubnet{}, false
	}
	return cs, true
}
