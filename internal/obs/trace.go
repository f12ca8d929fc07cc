package obs

import (
	"fmt"
	"sort"
	"strings"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/telemetry"
)

// Chain is one probe attempt's stitched causal path: the client span that
// originated the correlation ID, the fabric hops the query (and any
// reply) took, and the server span that answered. Layers that did not
// trace (e.g. a sink-only run) simply leave their slot empty.
type Chain struct {
	// Corr is the shared correlation ID (telemetry.CorrID keying).
	Corr uint64
	// Name is the query name, taken from the client span's attr (or the
	// server span's when no client traced).
	Name string
	// Client is the dnsclient "attempt" span, nil if the client layer
	// did not trace this correlation.
	Client *telemetry.SpanRecord
	// Hops are the fabric "hop" spans in completion order — the query
	// leg first, then the reply leg when one was sent.
	Hops []telemetry.SpanRecord
	// Server is the dnsserver "server" span, nil if the query never
	// reached a traced server.
	Server *telemetry.SpanRecord

	// The fleet-level layers (PR 9): an rdnsd query carries its
	// X-Rdns-Corr correlation ID from the rdnsclient span through the
	// daemon's server-side spans, and — when a replica served it — joins
	// the replication sync that delivered its data via matching "gen"
	// events.

	// Query is the rdnsclient "rdnsq.client" span, nil when no traced
	// API client originated this correlation.
	Query *telemetry.SpanRecord
	// Daemon is the rdnsserve "rdnsd.query" root span.
	Daemon *telemetry.SpanRecord
	// Phases are the daemon's "rdnsd.parse"/"rdnsd.store" child spans in
	// completion order.
	Phases []telemetry.SpanRecord
	// Sync is the "repl.sync" span of the catch-up that delivered the
	// store generation this query read — a *different* correlation ID,
	// joined through the generation stamped on both sides. Nil for
	// primary-served queries (or when the replica did not trace).
	Sync *telemetry.SpanRecord
	// Fetches are the "repl.fetch" spans recorded under Sync.
	Fetches []telemetry.SpanRecord

	// Other holds correlated spans from layers outside the taxonomy
	// (future-proofing; empty today).
	Other []telemetry.SpanRecord
}

// Complete reports whether the chain crosses all three layers: a client
// attempt, at least one fabric hop, and a server verdict.
func (c Chain) Complete() bool {
	return c.Client != nil && len(c.Hops) > 0 && c.Server != nil
}

// Generation returns the store generation stamped on the chain's daemon
// spans ("gen" events; ok false when none — a rejected request, or an
// untraced store phase).
func (c Chain) Generation() (uint64, bool) {
	for i := range c.Phases {
		if g, ok := genEvent(c.Phases[i]); ok {
			return g, true
		}
	}
	if c.Daemon != nil {
		return genEvent(*c.Daemon)
	}
	return 0, false
}

// genEvent finds a span's "gen" event code.
func genEvent(rec telemetry.SpanRecord) (uint64, bool) {
	for _, ev := range rec.Events {
		if ev.Kind == "gen" {
			return ev.Code, true
		}
	}
	return 0, false
}

// Stitch groups correlated span records into causal chains, ordered by
// correlation ID. Uncorrelated spans (corr 0 — shard spans, sweep spans)
// are ignored. Records may come from any number of per-process dumps
// concatenated together: the correlation IDs key the grouping, not the
// dump of origin.
//
// Chains whose daemon spans carry a "gen" event are additionally joined
// to the "repl.sync" chain whose own "gen" event names the same serving
// generation — the cross-correlation link from a replica-served query
// back through the feed pull that delivered its segment. The sync chain
// also remains in the output under its own correlation ID. Generation
// numbers are scoped to one daemon: when joining sync chains, stitch
// the replica's dump (its serving spans and its syncer's spans share a
// process) together with the clients' — folding a *different* daemon's
// spans into the same call can alias generation numbers across daemons.
func Stitch(records []telemetry.SpanRecord) []Chain {
	byCorr := make(map[uint64]*Chain)
	var order []uint64
	for i := range records {
		rec := records[i]
		corr := rec.CorrID()
		if corr == 0 {
			continue
		}
		c := byCorr[corr]
		if c == nil {
			c = &Chain{Corr: corr}
			byCorr[corr] = c
			order = append(order, corr)
		}
		switch rec.Name {
		case "attempt":
			if c.Client == nil {
				c.Client = &records[i]
			} else {
				c.Other = append(c.Other, rec)
			}
		case "hop":
			c.Hops = append(c.Hops, rec)
		case "server":
			if c.Server == nil {
				c.Server = &records[i]
			} else {
				c.Other = append(c.Other, rec)
			}
		case "rdnsq.client":
			if c.Query == nil {
				c.Query = &records[i]
			} else {
				c.Other = append(c.Other, rec)
			}
		case "rdnsd.query":
			if c.Daemon == nil {
				c.Daemon = &records[i]
			} else {
				c.Other = append(c.Other, rec)
			}
		case "rdnsd.parse", "rdnsd.store":
			c.Phases = append(c.Phases, rec)
		case "repl.sync":
			if c.Sync == nil {
				c.Sync = &records[i]
			} else {
				c.Other = append(c.Other, rec)
			}
		case "repl.fetch":
			c.Fetches = append(c.Fetches, rec)
		default:
			c.Other = append(c.Other, rec)
		}
	}
	// Generation join: map each serving generation to the sync chain
	// that produced it, then attach that sync (and its fetches) to every
	// query chain stamped with the same generation.
	genToSync := make(map[uint64]*Chain)
	for _, corr := range order {
		c := byCorr[corr]
		if c.Sync == nil {
			continue
		}
		if g, ok := genEvent(*c.Sync); ok {
			genToSync[g] = c
		}
	}
	for _, corr := range order {
		c := byCorr[corr]
		if c.Daemon == nil || c.Sync != nil {
			continue
		}
		if g, ok := c.Generation(); ok {
			if sc := genToSync[g]; sc != nil {
				c.Sync = sc.Sync
				c.Fetches = sc.Fetches
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	chains := make([]Chain, 0, len(order))
	for _, corr := range order {
		c := byCorr[corr]
		switch {
		case c.Client != nil:
			c.Name = c.Client.Attr
		case c.Server != nil:
			c.Name = c.Server.Attr
		case c.Query != nil:
			c.Name = c.Query.Attr
		case c.Daemon != nil:
			c.Name = c.Daemon.Attr
		case c.Sync != nil:
			c.Name = c.Sync.Attr
		}
		chains = append(chains, *c)
	}
	return chains
}

// hopVerdict names a hop span's terminal event code.
func hopVerdict(code uint64) string {
	switch code {
	case fabric.HopSend:
		return "in-flight"
	case fabric.HopDeliver:
		return "deliver"
	case fabric.HopDrop:
		return "drop"
	case fabric.HopVanish:
		return "vanish"
	}
	return fmt.Sprintf("hop?%d", code)
}

// serverVerdict names a server span's terminal event code (an RCode, or
// the dropped sentinel).
func serverVerdict(code uint64) string {
	if code == dnsserver.ServerDropped {
		return "DROPPED"
	}
	return dnswire.RCode(code).String()
}

// Render formats the chain as one line:
//
//	corr 6e3a…: 10.2.0.192.in-addr.arpa. attempt#1 → hop a>b deliver → hop b>a deliver → server NOERROR → client SUCCESS
//
// Fleet-level API chains render their own vocabulary:
//
//	corr 9b2c…: /v1/at client try#1 status 200 → rdnsd at [gen 2] → sync via 41d0… (2 fetches)
func (c Chain) Render() string {
	if c.Query != nil || c.Daemon != nil || c.Sync != nil {
		return c.renderFleet()
	}
	var parts []string
	attempt := "?"
	if c.Client != nil {
		for _, ev := range c.Client.Events {
			if ev.Kind == "tx" {
				attempt = fmt.Sprintf("%d", ev.Code)
			}
		}
	}
	parts = append(parts, "attempt#"+attempt)
	for _, hop := range c.Hops {
		verdict := "?"
		if n := len(hop.Events); n > 0 {
			verdict = hopVerdict(hop.Events[n-1].Code)
		}
		parts = append(parts, "hop "+hop.Attr+" "+verdict)
	}
	if c.Server != nil {
		verdict := "?"
		if n := len(c.Server.Events); n > 0 {
			verdict = serverVerdict(c.Server.Events[n-1].Code)
		}
		parts = append(parts, "server "+verdict)
	}
	if c.Client != nil {
		for _, ev := range c.Client.Events {
			if ev.Kind == "client" {
				parts = append(parts, "client "+dnsclient.Outcome(ev.Code).String())
			}
		}
	}
	return fmt.Sprintf("corr %016x: %s %s", c.Corr, c.Name, strings.Join(parts, " → "))
}

// renderFleet formats a client→daemon→replica-sync API chain.
func (c Chain) renderFleet() string {
	var parts []string
	if c.Query != nil {
		try, status := "?", "?"
		for _, ev := range c.Query.Events {
			switch ev.Kind {
			case "tx":
				try = fmt.Sprintf("%d", ev.Code)
			case "status":
				status = fmt.Sprintf("%d", ev.Code)
			}
		}
		parts = append(parts, "client try#"+try+" status "+status)
	}
	if c.Daemon != nil {
		d := "rdnsd " + c.Daemon.Attr
		for _, ev := range c.Daemon.Events {
			if ev.Kind == "error" {
				d += fmt.Sprintf(" error %d", ev.Code)
			}
		}
		if g, ok := c.Generation(); ok {
			d += fmt.Sprintf(" [gen %d]", g)
		}
		parts = append(parts, d)
	}
	if c.Sync != nil {
		syncCorr := c.Sync.Corr
		if len(syncCorr) > 4 {
			syncCorr = syncCorr[:4] + "…"
		}
		s := "sync via " + syncCorr
		if n := len(c.Fetches); n > 0 {
			s += fmt.Sprintf(" (%d fetches)", n)
		}
		parts = append(parts, s)
	}
	return fmt.Sprintf("corr %016x: %s %s", c.Corr, c.Name, strings.Join(parts, " → "))
}
