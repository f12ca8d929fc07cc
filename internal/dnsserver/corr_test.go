package dnsserver

import (
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

func TestHandleQueryCorrEmitsServerSpan(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.10")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("host.example.edu"))
	tr := telemetry.NewTracer(5, 64)
	s.SetTracer(tr)

	name := dnswire.ReverseName(ip)
	corr := telemetry.CorrID(5, string(name), 1)
	qw, _ := dnswire.NewQuery(9, name, dnswire.TypePTR).Marshal()
	if resp := s.HandleQueryCorr(qw, corr); resp == nil {
		t.Fatal("no response")
	}
	// NXDOMAIN on a second correlated query for an absent name.
	missing := dnswire.ReverseName(dnswire.MustIPv4("192.0.2.99"))
	corr2 := telemetry.CorrID(5, string(missing), 1)
	qw2, _ := dnswire.NewQuery(10, missing, dnswire.TypePTR).Marshal()
	if resp := s.HandleQueryCorr(qw2, corr2); resp == nil {
		t.Fatal("no NXDOMAIN response")
	}
	// Uncorrelated handling must stay untraced.
	if resp := s.HandleQuery(qw); resp == nil {
		t.Fatal("no uncorrelated response")
	}

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d server spans, want 2", len(spans))
	}
	if spans[0].Name != "server" || spans[0].Corr != corr ||
		spans[0].Attr != string(name) {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if len(spans[0].Events) != 1 || spans[0].Events[0].Code != uint64(dnswire.RCodeNoError) {
		t.Fatalf("span 0 events = %+v, want [NOERROR]", spans[0].Events)
	}
	if spans[1].Corr != corr2 ||
		len(spans[1].Events) != 1 || spans[1].Events[0].Code != uint64(dnswire.RCodeNXDomain) {
		t.Fatalf("span 1 = %+v, want NXDOMAIN with corr2", spans[1])
	}
}

func TestHandleQueryCorrDroppedEvents(t *testing.T) {
	s := NewServer()
	s.AddZone(testZone(t))
	tr := telemetry.NewTracer(5, 64)
	s.SetTracer(tr)

	// Malformed packet.
	if resp := s.HandleQueryCorr([]byte{1, 2, 3}, 42); resp != nil {
		t.Fatal("malformed packet answered")
	}
	// Injected drop.
	s.SetInjector(dropping(1.0, 0))
	name := dnswire.ReverseName(dnswire.MustIPv4("192.0.2.1"))
	qw, _ := dnswire.NewQuery(1, name, dnswire.TypePTR).Marshal()
	if resp := s.HandleQueryCorr(qw, 43); resp != nil {
		t.Fatal("Loss=1 still answered")
	}

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	for i, sp := range spans {
		if len(sp.Events) != 1 || sp.Events[0].Code != ServerDropped {
			t.Fatalf("span %d events = %+v, want [ServerDropped]", i, sp.Events)
		}
	}
	if spans[1].Attr != string(name) {
		t.Fatalf("injected-drop span attr = %q, want the question name", spans[1].Attr)
	}
}

// TestFabricCorrChainEndToEnd drives a correlated query over the fabric
// and asserts the full causal chain materialises: the query hop, the
// server span, and the reply hop all share one correlation ID.
func TestFabricCorrChainEndToEnd(t *testing.T) {
	clock := simclock.NewSimulated(time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC))
	fab := fabric.New(clock, fabric.Config{Latency: time.Millisecond})
	tr := telemetry.NewTracer(7, 64)
	fab.SetTracer(tr)

	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.10")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("host.example.edu"))
	s.SetTracer(tr)

	srvAddr := fabric.Addr{IP: dnswire.MustIPv4("192.0.2.53"), Port: 53}
	if _, err := s.AttachFabric(fab, srvAddr); err != nil {
		t.Fatal(err)
	}
	var gotReply bool
	cl, err := fab.Bind(fabric.Addr{IP: dnswire.MustIPv4("198.51.100.1"), Port: 4000},
		func(dg fabric.Datagram) { gotReply = true })
	if err != nil {
		t.Fatal(err)
	}
	name := dnswire.ReverseName(ip)
	corr := telemetry.CorrID(7, string(name), 1)
	qw, _ := dnswire.NewQuery(9, name, dnswire.TypePTR).Marshal()
	if err := cl.SendCorr(srvAddr, qw, corr); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Millisecond)
	if !gotReply {
		t.Fatal("no reply delivered")
	}

	var hops, servers int
	for _, sp := range tr.Snapshot() {
		if sp.Corr != corr {
			t.Fatalf("span %q has corr %016x, want %016x", sp.Name, sp.Corr, corr)
		}
		switch sp.Name {
		case "hop":
			hops++
		case "server":
			servers++
		}
	}
	if hops != 2 || servers != 1 {
		t.Fatalf("chain = %d hops + %d server spans, want 2 + 1", hops, servers)
	}
}
