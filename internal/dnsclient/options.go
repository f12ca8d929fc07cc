package dnsclient

import (
	"fmt"
	"math/rand"
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

// WithRate caps transmission rate in queries per second (token bucket);
// zero means unlimited. The paper rate-limits "to reduce the impact of our
// measurement on the DNS name servers" (Section 6.1).
func WithRate(qps int) Option {
	return func(c *config) {
		if qps >= 0 {
			c.QueriesPerSecond = qps
		}
	}
}

// WithBackoff enables exponential backoff with full jitter between retry
// attempts: the nth retry waits uniform[0, min(max, base<<n)). A max of zero
// or less defaults to 16x base. Without this option retries retransmit
// immediately after each timeout, which against an overloaded server
// synchronizes the retry storm with the failure.
func WithBackoff(base, max time.Duration) Option {
	return func(c *config) {
		if base > 0 {
			c.BackoffBase = base
			c.BackoffMax = max
		}
	}
}

// WithServFailRetry makes SERVFAIL responses retryable like timeouts (with
// backoff), consuming the same retry budget. SERVFAIL is usually transient
// (the paper's supplemental measurement observes name-server failures
// clearing between sweeps), so sweeps aiming for completeness want this on.
// NXDOMAIN/NODATA/REFUSED are never retried: they are authoritative answers,
// not transient faults.
func WithServFailRetry() Option {
	return func(c *config) { c.RetryServFail = true }
}

// WithSeed fixes the backoff-jitter PRNG seed so delay schedules replay
// deterministically under the simulated clock.
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
	if cfg.BackoffBase > 0 && cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 16 * cfg.BackoffBase
	}
	r := &Resolver{
		fab:      fab,
		clock:    fab.Clock(),
		cfg:      cfg,
		inflight: make(map[uint16]*pendingQuery),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
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
