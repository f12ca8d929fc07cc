package dnsclient

import (
	"fmt"
	"time"

	"rdnsprivacy/internal/fabric"
)

// Option tunes a Resolver at construction.
type Option func(*config)

// WithBind sets the local fabric address queries are sent from.
func WithBind(addr fabric.Addr) Option {
	return func(c *config) { c.Bind = addr }
}

// WithServer sets the name server queried.
func WithServer(addr fabric.Addr) Option {
	return func(c *config) { c.Server = addr }
}

// WithTimeout sets the per-attempt wait. Default 2s.
func WithTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.Timeout = d
		}
	}
}

// WithRetries sets how many additional attempts follow a timeout.
// Default 2.
func WithRetries(n int) Option {
	return func(c *config) {
		if n >= 0 {
			c.Retries = n
		}
	}
}

// WithSeed fixes the seed the correlation IDs of traced attempts are
// derived from (see WithTracer), so they replay deterministically.
func WithSeed(seed int64) Option {
	return func(c *config) { c.Seed = seed }
}

// NewResolver creates a resolver on fab configured by opts and binds it to
// the WithBind address. At minimum WithBind and WithServer must be supplied.
func NewResolver(fab *fabric.Fabric, opts ...Option) (*Resolver, error) {
	cfg := config{Timeout: 2 * time.Second, Retries: 2}
	for _, o := range opts {
		o(&cfg)
	}
	r := &Resolver{
		fab:      fab,
		clock:    fab.Clock(),
		cfg:      cfg,
		inflight: make(map[uint16]*pendingQuery),
	}
	if cfg.Telemetry != nil {
		r.met = newClientMetrics(cfg.Telemetry)
	}
	ep, err := fab.Bind(cfg.Bind, r.handleResponse)
	if err != nil {
		return nil, fmt.Errorf("dnsclient: %w", err)
	}
	r.ep = ep
	return r, nil
}
