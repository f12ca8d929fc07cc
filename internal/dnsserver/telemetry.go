package dnsserver

import "rdnsprivacy/internal/telemetry"

// SetTracer makes the server emit one "server" span per correlated query
// handled via HandleQueryCorr (see that method for the event taxonomy).
// Pass nil to detach. Safe to call while the server is answering queries.
func (s *Server) SetTracer(tr *telemetry.Tracer) {
	s.tracer.Store(tr)
}
