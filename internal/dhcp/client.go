package dhcp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rdnsprivacy/internal/dhcpwire"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
)

// ClientConfig configures a DHCP client.
type ClientConfig struct {
	// CHAddr is the client hardware address.
	CHAddr dhcpwire.HardwareAddr
	// HostName is sent as option 12 on every DISCOVER/REQUEST; "" sends
	// none. Phone and laptop DHCP clients commonly fill this with the
	// device name ("Brians-iPhone"), which is the root of the leak.
	HostName string
	// ClientFQDN, if non-nil, is sent as option 81.
	ClientFQDN *dhcpwire.ClientFQDN
	// SendRelease controls whether Leave sends a DHCPRELEASE. Clients
	// that go out of range or get unplugged never do; the paper ties
	// the ~5-minute PTR removal peak to clients that release and the
	// hourly peaks to lease expiry (Section 6.2).
	SendRelease bool
}

// Client is a DHCPv4 client state machine. Create one with NewClient. It
// exchanges wire-encoded messages with a Server over the local segment and
// renews its lease automatically at half the lease time.
type Client struct {
	clock  simclock.Clock
	server *Server
	cfg    ClientConfig

	mu      sync.Mutex
	bound   bool
	ip      dnswire.IPv4
	lease   time.Duration
	renewal simclock.Timer
	xid     uint32
}

// Client errors.
var (
	ErrAlreadyBound = errors.New("dhcp: client already bound")
	ErrNotBound     = errors.New("dhcp: client not bound")
	ErrNoOffer      = errors.New("dhcp: no usable offer")
	ErrNAK          = errors.New("dhcp: request NAKed")
)

// NewClient creates a client that talks to server.
func NewClient(clock simclock.Clock, server *Server, cfg ClientConfig) *Client {
	return &Client{clock: clock, server: server, cfg: cfg}
}

// Bound reports whether the client currently holds a lease, and on what.
func (c *Client) Bound() (dnswire.IPv4, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ip, c.bound
}

// Join runs the DISCOVER → OFFER → REQUEST → ACK exchange and starts the
// renewal cycle. It returns the allocated address.
func (c *Client) Join() (dnswire.IPv4, error) {
	c.mu.Lock()
	if c.bound {
		c.mu.Unlock()
		return c.ip, ErrAlreadyBound
	}
	c.xid++
	xid := c.xid
	c.mu.Unlock()

	discover := &dhcpwire.Message{
		XID:        xid,
		CHAddr:     c.cfg.CHAddr,
		Type:       dhcpwire.Discover,
		HostName:   c.cfg.HostName,
		ClientFQDN: c.cfg.ClientFQDN,
		Broadcast:  true,
	}
	offer, err := c.exchange(discover)
	if err != nil {
		return dnswire.IPv4{}, fmt.Errorf("%w: %v", ErrNoOffer, err)
	}
	if offer == nil || offer.Type != dhcpwire.Offer || offer.YIAddr == (dnswire.IPv4{}) {
		return dnswire.IPv4{}, ErrNoOffer
	}

	request := &dhcpwire.Message{
		XID:         xid,
		CHAddr:      c.cfg.CHAddr,
		Type:        dhcpwire.Request,
		HostName:    c.cfg.HostName,
		ClientFQDN:  c.cfg.ClientFQDN,
		RequestedIP: offer.YIAddr,
		ServerID:    offer.ServerID,
		Broadcast:   true,
	}
	ack, err := c.exchange(request)
	if err != nil {
		return dnswire.IPv4{}, err
	}
	if ack == nil || ack.Type != dhcpwire.ACK {
		return dnswire.IPv4{}, ErrNAK
	}

	c.mu.Lock()
	c.bound = true
	c.ip = ack.YIAddr
	c.lease = ack.LeaseTime
	c.scheduleRenewalLocked()
	ip := c.ip
	c.mu.Unlock()
	return ip, nil
}

// Leave takes the client off the network. If configured with SendRelease it
// sends a DHCPRELEASE (the "clean leave"); otherwise it simply goes silent
// and lets the lease expire server-side.
func (c *Client) Leave() error {
	c.mu.Lock()
	if !c.bound {
		c.mu.Unlock()
		return ErrNotBound
	}
	c.bound = false
	ip := c.ip
	c.ip = dnswire.IPv4{}
	if c.renewal != nil {
		c.renewal.Stop()
		c.renewal = nil
	}
	sendRelease := c.cfg.SendRelease
	c.mu.Unlock()

	if sendRelease {
		release := &dhcpwire.Message{
			XID:      c.xid,
			CIAddr:   ip,
			CHAddr:   c.cfg.CHAddr,
			Type:     dhcpwire.Release,
			ServerID: c.server.cfg.ServerIP,
		}
		var req [maxMessage]byte
		wire, err := release.AppendTo(req[:0])
		if err != nil {
			return err
		}
		// RELEASE gets no reply.
		if _, err := c.server.Receive(wire, nil); err != nil {
			return err
		}
	}
	return nil
}

// renew extends the lease in place (REQUEST with ciaddr set).
func (c *Client) renew() {
	c.mu.Lock()
	if !c.bound {
		c.mu.Unlock()
		return
	}
	c.xid++
	xid := c.xid
	ip := c.ip
	c.mu.Unlock()

	request := &dhcpwire.Message{
		XID:        xid,
		CIAddr:     ip,
		CHAddr:     c.cfg.CHAddr,
		Type:       dhcpwire.Request,
		HostName:   c.cfg.HostName,
		ClientFQDN: c.cfg.ClientFQDN,
		ServerID:   c.server.cfg.ServerIP,
	}
	ack, err := c.exchange(request)

	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.bound {
		return
	}
	if err != nil || ack == nil || ack.Type != dhcpwire.ACK {
		// Renewal failed; the lease will expire server-side and the
		// client is effectively off the network.
		c.bound = false
		c.ip = dnswire.IPv4{}
		return
	}
	c.lease = ack.LeaseTime
	c.scheduleRenewalLocked()
}

func (c *Client) scheduleRenewalLocked() {
	if c.renewal != nil {
		c.renewal.Stop()
	}
	// T1 = half the lease time (RFC 2131 §4.4.5).
	c.renewal = c.clock.AfterFunc(c.lease/2, c.renew)
}

// maxMessage is the DHCP message every client must accept (RFC 2131
// §2), and the size of the buffers exchange encodes into.
const maxMessage = 576

// exchange marshals a request, hands it to the server, and parses the
// reply. Both are encoded into buffers on this stack: the server keeps
// neither, and Parse copies out what it returns.
func (c *Client) exchange(msg *dhcpwire.Message) (*dhcpwire.Message, error) {
	var req, rep [maxMessage]byte
	wire, err := msg.AppendTo(req[:0])
	if err != nil {
		return nil, err
	}
	reply, err := c.server.Receive(wire, rep[:0])
	if err != nil {
		return nil, err
	}
	if reply == nil {
		return nil, nil
	}
	parsed, err := dhcpwire.Parse(reply)
	if err != nil {
		return nil, err
	}
	if parsed.XID != msg.XID || !parsed.BootReply {
		return nil, fmt.Errorf("dhcp: reply does not match request")
	}
	return parsed, nil
}
