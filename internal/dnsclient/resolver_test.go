package dnsclient

import (
	"context"
	"net"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

var (
	epoch      = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	serverAddr = fabric.Addr{IP: dnswire.MustIPv4("192.0.2.53"), Port: 53}
	clientAddr = fabric.Addr{IP: dnswire.MustIPv4("198.51.100.1"), Port: 40001}
)

type testEnv struct {
	clock  *simclock.Simulated
	fab    *fabric.Fabric
	server *dnsserver.Server
	zone   *dnsserver.Zone
	res    *Resolver
}

func newEnv(t *testing.T, fcfg fabric.Config, opts ...Option) *testEnv {
	t.Helper()
	clock := simclock.NewSimulated(epoch)
	fab := fabric.New(clock, fcfg)
	srv := dnsserver.NewServer()
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    dnswire.MustName("2.0.192.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns1.example.edu"),
		Mbox:      dnswire.MustName("hostmaster.example.edu"),
	})
	srv.AddZone(zone)
	if _, err := srv.AttachFabric(fab, serverAddr); err != nil {
		t.Fatal(err)
	}
	res, err := NewResolver(fab, append([]Option{WithBind(clientAddr), WithServer(serverAddr)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{clock: clock, fab: fab, server: srv, zone: zone, res: res}
}

func TestLookupPTRSuccess(t *testing.T) {
	env := newEnv(t, fabric.Config{Latency: 5 * time.Millisecond})
	ip := dnswire.MustIPv4("192.0.2.10")
	env.zone.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("brians-iphone.dyn.example.edu"))

	var got *Response
	env.res.LookupPTR(context.Background(), ip, func(r Response) { got = &r })
	env.clock.Advance(time.Second)
	if got == nil {
		t.Fatal("lookup never completed")
	}
	if got.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %v", got.Outcome)
	}
	if got.PTR != dnswire.MustName("brians-iphone.dyn.example.edu") {
		t.Fatalf("PTR = %q", got.PTR)
	}
	if got.RTT != 10*time.Millisecond {
		t.Fatalf("RTT = %v, want 10ms", got.RTT)
	}
	if got.Attempts != 1 {
		t.Fatalf("attempts = %d", got.Attempts)
	}
}

func TestLookupPTRNXDomain(t *testing.T) {
	env := newEnv(t, fabric.Config{})
	var got *Response
	env.res.LookupPTR(context.Background(), dnswire.MustIPv4("192.0.2.77"), func(r Response) { got = &r })
	env.clock.Advance(time.Second)
	if got == nil || got.Outcome != OutcomeNXDomain {
		t.Fatalf("got %+v, want NXDOMAIN", got)
	}
}

func TestLookupTimeoutAfterRetries(t *testing.T) {
	env := newEnv(t, fabric.Config{LossRate: 1.0, Seed: 9}, WithTimeout(time.Second), WithRetries(2))
	var got *Response
	env.res.LookupPTR(context.Background(), dnswire.MustIPv4("192.0.2.10"), func(r Response) { got = &r })
	env.clock.Advance(2 * time.Second)
	if got != nil {
		t.Fatalf("completed after %v despite retries pending", got.RTT)
	}
	env.clock.Advance(2 * time.Second)
	if got == nil {
		t.Fatal("lookup never timed out")
	}
	if got.Outcome != OutcomeTimeout || got.Attempts != 3 {
		t.Fatalf("got %+v, want timeout after 3 attempts", got)
	}
}

func TestRetryRecoversFromLoss(t *testing.T) {
	// 50% loss: with 4 retries the query should almost surely complete.
	env := newEnv(t, fabric.Config{LossRate: 0.5, Seed: 7}, WithTimeout(500*time.Millisecond), WithRetries(4))
	ip := dnswire.MustIPv4("192.0.2.10")
	env.zone.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("h.example.edu"))
	var got *Response
	env.res.LookupPTR(context.Background(), ip, func(r Response) { got = &r })
	env.clock.Advance(time.Minute)
	if got == nil {
		t.Fatal("lookup never completed")
	}
	if got.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %v", got.Outcome)
	}
}

func TestLookupServFail(t *testing.T) {
	env := newEnv(t, fabric.Config{})
	env.server.SetInjector(faultsim.New(nil, 0, faultsim.Profile{ServFailRate: 1.0}))
	var got *Response
	env.res.LookupPTR(context.Background(), dnswire.MustIPv4("192.0.2.10"), func(r Response) { got = &r })
	env.clock.Advance(time.Second)
	if got == nil || got.Outcome != OutcomeServFail {
		t.Fatalf("got %+v, want SERVFAIL", got)
	}
}

func TestLookupRefusedOutOfZone(t *testing.T) {
	env := newEnv(t, fabric.Config{})
	var got *Response
	env.res.LookupPTR(context.Background(), dnswire.MustIPv4("203.0.113.5"), func(r Response) { got = &r })
	env.clock.Advance(time.Second)
	if got == nil || got.Outcome != OutcomeRefused {
		t.Fatalf("got %+v, want REFUSED", got)
	}
}

func TestLookupPTRCompleteAndClassified(t *testing.T) {
	env := newEnv(t, fabric.Config{Latency: time.Millisecond})
	prefix := dnswire.MustPrefix("192.0.2.0/24")
	// Populate every tenth address.
	for i := 0; i < 256; i += 10 {
		ip := prefix.Nth(i)
		env.zone.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("h.example.edu"))
	}
	// The whole /24 in flight at once: every lookup completes exactly once,
	// matched to its own question.
	outcomes := make(map[dnswire.IPv4]Outcome)
	for i := 0; i < prefix.NumAddresses(); i++ {
		ip := prefix.Nth(i)
		env.res.LookupPTR(context.Background(), ip, func(r Response) {
			if _, dup := outcomes[ip]; dup {
				t.Errorf("%v completed twice", ip)
			}
			if r.Question.Name != dnswire.ReverseName(ip) {
				t.Errorf("%v completed with the answer for %q", ip, r.Question.Name)
			}
			outcomes[ip] = r.Outcome
		})
	}
	env.clock.Advance(time.Minute)
	if len(outcomes) != 256 {
		t.Fatalf("results = %d, want 256", len(outcomes))
	}
	success, nx := 0, 0
	for ip, o := range outcomes {
		switch o {
		case OutcomeSuccess:
			success++
		case OutcomeNXDomain:
			nx++
		default:
			t.Fatalf("unexpected outcome %v for %v", o, ip)
		}
	}
	if success != 26 || nx != 230 {
		t.Fatalf("success=%d nx=%d, want 26/230", success, nx)
	}
}

// An empty target set is a complete sweep: Scan returning is the done signal,
// with an empty snapshot that is not partial and no query sent.
func TestScanEmptySetCallsDone(t *testing.T) {
	srv := dnsserver.NewServer()
	sc := scanengine.New(&ServerSource{Server: srv})
	snap, err := sc.Scan(context.Background(), scanengine.Request{})
	if err != nil || snap.Partial || len(snap.Records) != 0 {
		t.Fatalf("empty scan: snapshot %+v, err %v", snap, err)
	}
	if q := srv.Stats().Queries; q != 0 {
		t.Fatalf("empty scan sent %d queries", q)
	}
}

func TestStatsAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	env := newEnv(t, fabric.Config{}, WithTelemetry(reg))
	ip := dnswire.MustIPv4("192.0.2.10")
	env.zone.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("h.example.edu"))
	env.res.LookupPTR(context.Background(), ip, func(Response) {})
	env.res.LookupPTR(context.Background(), dnswire.MustIPv4("192.0.2.11"), func(Response) {})
	env.clock.Advance(time.Second)
	st := reg.Snapshot().Counters
	if st[MetricQueries] != 2 || st[MetricOutcome(OutcomeSuccess)] != 1 || st[MetricOutcome(OutcomeNXDomain)] != 1 {
		t.Fatalf("counters = %+v", st)
	}
}

func TestOutcomeStrings(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeSuccess:   "NOERROR",
		OutcomeNXDomain:  "NXDOMAIN",
		OutcomeNoData:    "NODATA",
		OutcomeServFail:  "SERVFAIL",
		OutcomeRefused:   "REFUSED",
		OutcomeTimeout:   "TIMEOUT",
		OutcomeMalformed: "MALFORMED",
		Outcome(42):      "OUTCOME42",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
}

func TestUDPClientAgainstRealServer(t *testing.T) {
	srv := dnsserver.NewServer()
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    dnswire.MustName("2.0.192.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns1.example.edu"),
		Mbox:      dnswire.MustName("hostmaster.example.edu"),
	})
	srv.AddZone(zone)
	ip := dnswire.MustIPv4("192.0.2.10")
	zone.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("brians-ipad.dyn.example.edu"))

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer conn.Close()
	go srv.Serve(conn)

	client := &UDPClient{Server: conn.LocalAddr().String(), Timeout: 2 * time.Second, Retries: 1}
	resp, err := client.LookupPTRContext(context.Background(), ip)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != OutcomeSuccess || resp.PTR != dnswire.MustName("brians-ipad.dyn.example.edu") {
		t.Fatalf("resp = %+v", resp)
	}
	// An absent record yields NXDOMAIN.
	resp, err = client.LookupPTRContext(context.Background(), dnswire.MustIPv4("192.0.2.11"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != OutcomeNXDomain {
		t.Fatalf("outcome = %v, want NXDOMAIN", resp.Outcome)
	}
}
