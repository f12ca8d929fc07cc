package dnsclient

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/testutil"
)

// The truth the lying name server lies about: every address of 192.0.2.0/24
// has its own PTR, and a decoy address outside it has one nobody asks for.
var (
	lyingPrefix = dnswire.MustPrefix("192.0.2.0/24")
	decoyIP     = dnswire.MustIPv4("192.0.3.77")
	decoyName   = dnswire.MustName("decoy.evil.example")
)

func trueName(ip dnswire.IPv4) dnswire.Name {
	return dnswire.MustName(fmt.Sprintf("host-%d.dyn.example.edu", ip[3]))
}

// startLyingDNS serves the truth above through a LyingDNS set up by cfg.
func startLyingDNS(t *testing.T, cfg func(*testutil.LyingDNS)) *testutil.LyingDNS {
	t.Helper()
	srv := dnsserver.NewServer()
	zone, decoys := hotPathZone(2), hotPathZone(3)
	srv.AddZone(zone)
	srv.AddZone(decoys)
	for i := 0; i < lyingPrefix.NumAddresses(); i++ {
		ip := lyingPrefix.Nth(i)
		if err := zone.SetPTR(dnswire.ReverseName(ip), trueName(ip)); err != nil {
			t.Fatal(err)
		}
	}
	if err := decoys.SetPTR(dnswire.ReverseName(decoyIP), decoyName); err != nil {
		t.Fatal(err)
	}
	decoy, err := dnswire.AppendQuery(nil, 1, dnswire.ReverseName(decoyIP), dnswire.TypePTR)
	if err != nil {
		t.Fatal(err)
	}
	l := &testutil.LyingDNS{
		Answer: func(query []byte, tcp bool) []byte {
			if tcp {
				return srv.HandleQuery(query)
			}
			return srv.HandleQueryUDP(query)
		},
		Decoy: decoy,
		Seed:  42,
	}
	cfg(l)
	if err := l.Start(); err != nil {
		t.Skipf("no loopback UDP+TCP: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

// Every lie, told to LookupContext (a window of one) and to a full window,
// once — the retransmission is then answered truthfully — or for as long as
// the client asks. Whatever the server does, a PTR only ever lands on the
// address that asked for it, the outcome is the documented one, and the
// lookup is back within its retry budget.
func TestLyingNameServer(t *testing.T) {
	const (
		timeout = 150 * time.Millisecond
		retries = 1
		slack   = time.Second // scheduling under -race, and 16 TCP fallbacks
	)
	cases := []struct {
		name     string
		lie      testutil.Lie
		always   bool // lie to retransmissions too
		tcpLies  bool // TC over TCP as well
		collides bool // the lie's ID may be another slot's: see below
		want     Outcome
		attempts int
	}{
		{name: "silent-once", lie: testutil.Silent, want: OutcomeSuccess, attempts: 2},
		{name: "wrong-id-once", lie: testutil.WrongID, collides: true, want: OutcomeSuccess, attempts: 2},
		{name: "wrong-id-always", lie: testutil.WrongID, always: true, collides: true, want: OutcomeTimeout, attempts: 2},
		{name: "wrong-question", lie: testutil.WrongQuestion, want: OutcomeMalformed, attempts: 1},
		{name: "echo-once", lie: testutil.EchoQuery, want: OutcomeSuccess, attempts: 2},
		{name: "echo-always", lie: testutil.EchoQuery, always: true, want: OutcomeTimeout, attempts: 2},
		{name: "late-duplicate", lie: testutil.LateDuplicate, always: true, want: OutcomeSuccess, attempts: 1},
		{name: "other-source-once", lie: testutil.OtherSource, want: OutcomeSuccess, attempts: 2},
		{name: "other-source-always", lie: testutil.OtherSource, always: true, want: OutcomeTimeout, attempts: 2},
		{name: "runt", lie: testutil.Runt, want: OutcomeMalformed, attempts: 1},
		{name: "oversized", lie: testutil.Oversized, want: OutcomeMalformed, attempts: 1},
		{name: "reversed", lie: testutil.Reversed, want: OutcomeSuccess, attempts: 1},
		{name: "truncated", lie: testutil.Truncated, want: OutcomeSuccess, attempts: 2},
		{name: "truncated-forever", lie: testutil.Truncated, tcpLies: true, want: OutcomeMalformed, attempts: 2},
	}
	for _, tc := range cases {
		for _, width := range []int{1, scanengine.Window} {
			t.Run(fmt.Sprintf("%s/window-%d", tc.name, width), func(t *testing.T) {
				// One truthful exchange first, so that the socket under test is
				// a reused one and "the previous answer" exists.
				const warmup = 1
				l := startLyingDNS(t, func(l *testutil.LyingDNS) {
					l.TruncateTCP = tc.tcpLies
					l.Script = func(i int) testutil.Lie {
						if i >= warmup && (tc.always || i < warmup+width) {
							return tc.lie
						}
						return testutil.Honest
					}
				})
				client := &UDPClient{Server: l.Addr(), Timeout: timeout, Retries: retries}
				defer client.Close()
				src := UDPSource{Client: client}
				ctx := context.Background()
				if res := src.LookupPTR(ctx, lyingPrefix.Nth(255)); !res.Found {
					t.Fatalf("warm-up lookup = %+v", res)
				}

				ips := make([]dnswire.IPv4, width)
				for i := range ips {
					ips[i] = lyingPrefix.Nth(10 + i)
				}
				out := make([]scanengine.Result, width)
				began := time.Now()
				if width == 1 {
					out[0] = src.LookupPTR(ctx, ips[0])
				} else {
					src.LookupPTRs(ctx, ips, out)
				}
				if took := time.Since(began); took > (retries+1)*timeout+slack {
					t.Errorf("took %v, budget %v", took, (retries+1)*timeout)
				}
				for i, res := range out {
					resp, ok := res.Meta.(Response)
					if !ok {
						t.Fatalf("%s: %+v carries no Response", ips[i], res)
					}
					if res.IP != ips[i] || resp.Question.Name != dnswire.ReverseName(ips[i]) {
						t.Errorf("slot %d asked %s, result is for %s (%s)", i, ips[i], res.IP, resp.Question.Name)
					}
					if tc.collides && width > 1 && resp.Outcome == OutcomeMalformed {
						// One time in a few thousand the server's wrong ID is the
						// ID of another slot of the window, which makes it that
						// slot's wrong-question lie, with that lie's outcome.
						t.Logf("%s: a wrong ID hit this slot", ips[i])
					} else if resp.Outcome != tc.want || resp.Attempts != tc.attempts {
						t.Errorf("%s: %v after %d attempts, want %v after %d", ips[i], resp.Outcome, resp.Attempts, tc.want, tc.attempts)
					}
					if res.Found != (resp.Outcome == OutcomeSuccess) || (res.Found && res.Name != trueName(ips[i])) ||
						(!res.Found && (res.Name != "" || resp.PTR != "")) {
						t.Errorf("%s: found=%v name=%q ptr=%q, its record is %q", ips[i], res.Found, res.Name, resp.PTR, trueName(ips[i]))
					}
				}
				if dials := client.Dials(); tc.want != OutcomeTimeout && tc.attempts == 1 && dials != 1 {
					t.Errorf("%d sockets dialled: an exchange answered in time keeps its socket", dials)
				}
			})
		}
	}
}

// A seeded storm of every lie at once, under a sweep, down both engine
// paths: some probes fail, and that is all that happens — no record is
// attributed to an address it does not belong to, the decoy's least of all.
func TestLyingNameServerNeverMisattributes(t *testing.T) {
	lies := []testutil.Lie{
		testutil.Honest, testutil.Honest, testutil.Honest, testutil.Honest,
		testutil.Honest, testutil.Honest, testutil.Honest, testutil.Honest,
		testutil.Silent, testutil.WrongID, testutil.WrongQuestion, testutil.EchoQuery,
		testutil.LateDuplicate, testutil.OtherSource, testutil.Runt, testutil.Oversized,
		testutil.Reversed, testutil.Reversed, testutil.Truncated,
	}
	targets := []dnswire.Prefix{
		dnswire.MustPrefix("192.0.2.0/26"), dnswire.MustPrefix("192.0.2.64/26"),
		dnswire.MustPrefix("192.0.2.128/26"), dnswire.MustPrefix("192.0.2.192/26"),
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, path := range []string{"window", "per-probe"} {
			t.Run(fmt.Sprintf("seed-%d/%s", seed, path), func(t *testing.T) {
				t.Parallel()
				l := startLyingDNS(t, func(l *testutil.LyingDNS) {
					l.Seed = seed
					l.Script = testutil.RandomLies(seed, lies...)
				})
				client := &UDPClient{Server: l.Addr(), Timeout: 20 * time.Millisecond, Retries: 2}
				defer client.Close()
				var src scanengine.Source = UDPSource{Client: client}
				if path == "per-probe" {
					src = scanengine.SourceFunc(UDPSource{Client: client}.LookupPTR)
				}
				probed := 0
				sc := scanengine.New(src, scanengine.WithWorkers(4), scanengine.WithResultFunc(func(res scanengine.Result) {
					probed++
					if res.Found && res.Name != trueName(res.IP) {
						t.Errorf("%s was given %q, its record is %q", res.IP, res.Name, trueName(res.IP))
					}
				}))
				snap, err := sc.Scan(context.Background(), scanengine.Request{Targets: targets})
				if err != nil {
					t.Fatal(err)
				}
				for ip, name := range snap.Records {
					if name != trueName(ip) {
						t.Errorf("snapshot holds %s -> %q, its record is %q", ip, name, trueName(ip))
					}
				}
				if probed != 256 || snap.Stats.Probes != 256 || snap.Stats.Found == 0 || snap.Stats.Absent != 0 {
					t.Errorf("stats = %+v over %d results: every address has a record, so none may read absent", snap.Stats, probed)
				}
				t.Logf("%d found, %d errors, %d datagrams, %d streams, %d dials",
					snap.Stats.Found, snap.Stats.Errors, l.Datagrams(), l.Streams(), client.Dials())
			})
		}
	}
}
