package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/testutil"
)

// serveLoopback runs srv on a loopback UDP socket until the test ends.
func serveLoopback(t *testing.T, srv *dnsserver.Server) string {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(conn) }()
	t.Cleanup(func() {
		conn.Close()
		<-served
	})
	return conn.LocalAddr().String()
}

// sparseZone answers for 192.0.2.0/24 with a record on every third address.
func sparseZone(t *testing.T) *dnsserver.Server {
	t.Helper()
	srv := dnsserver.NewServer()
	zone := hotPathZone(2)
	srv.AddZone(zone)
	for i := 0; i < 256; i += 3 {
		ip := lyingPrefix.Nth(i)
		if err := zone.SetPTR(dnswire.ReverseName(ip), trueName(ip)); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// The engine's two ways through a socket source are one sweep. A server
// that drops a quarter of its queries — by a hash of (seed, name, nth time
// asked), so both paths meet the same losses — is swept through UDPSource,
// windows of 16 in flight, and through the same client behind a SourceFunc,
// one probe at a time: records, tallies and changes must be equal, timeouts
// and all. The timeout is generous: the losses are scripted, so it changes
// no verdict, and a reply that is merely slow on a loaded host stays a reply.
// A sweep spends most of its time waiting out those timeouts, so all twenty
// run at once, each against a server of its own, before the per-seed
// subtests compare them.
func TestWindowAndPerProbeSweepsAgree(t *testing.T) {
	// Two full windows, one, and half of one.
	targets := []dnswire.Prefix{dnswire.MustPrefix("192.0.2.0/27"), dnswire.MustPrefix("192.0.2.64/28"), dnswire.MustPrefix("192.0.2.128/29")}
	baseline := scanengine.RecordSet{
		dnswire.MustIPv4("192.0.2.3"):  trueName(dnswire.MustIPv4("192.0.2.3")), // unchanged
		dnswire.MustIPv4("192.0.2.6"):  "old-name.dyn.example.edu.",             // changed
		dnswire.MustIPv4("192.0.2.7"):  "gone.dyn.example.edu.",                 // removed
		dnswire.MustIPv4("192.0.2.70"): "gone-too.dyn.example.edu.",             // removed
	}
	type sweep struct {
		client *UDPClient
		src    scanengine.Source
		snap   *scanengine.Snapshot
		err    error
	}
	var sweeps [10][2]sweep // per seed: the window path, then the per-probe path
	for i := range sweeps {
		for path := range sweeps[i] {
			// A server of its own per path: the loss verdicts count how often
			// each name has been asked.
			srv := sparseZone(t)
			srv.SetInjector(faultsim.New(nil, int64(i+1), faultsim.Profile{Loss: 0.25}))
			client := &UDPClient{Server: serveLoopback(t, srv), Timeout: 500 * time.Millisecond, Retries: 1}
			t.Cleanup(func() { client.Close() })
			var src scanengine.Source = UDPSource{Client: client}
			if path == 1 {
				src = scanengine.SourceFunc(UDPSource{Client: client}.LookupPTR)
			}
			sweeps[i][path] = sweep{client: client, src: src}
		}
	}
	var wg sync.WaitGroup
	for i := range sweeps {
		for path := range sweeps[i] {
			sw := &sweeps[i][path]
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw.snap, sw.err = scanengine.New(sw.src, scanengine.WithWorkers(3)).
					Scan(context.Background(), scanengine.Request{Targets: targets, Baseline: baseline})
			}()
		}
	}
	wg.Wait()
	for i := range sweeps {
		t.Run(fmt.Sprintf("seed-%d", i+1), func(t *testing.T) {
			for _, sw := range sweeps[i] {
				if sw.err != nil {
					t.Fatal(sw.err)
				}
			}
			win, one, winClient := sweeps[i][0].snap, sweeps[i][1].snap, sweeps[i][0].client
			if !reflect.DeepEqual(win.Records, one.Records) {
				t.Errorf("records differ:\n window    %v\n per-probe %v", win.Records, one.Records)
			}
			if win.Stats != one.Stats {
				t.Errorf("stats differ:\n window    %+v\n per-probe %+v", win.Stats, one.Stats)
			}
			if !reflect.DeepEqual(win.Changes, one.Changes) {
				t.Errorf("changes differ:\n window    %v\n per-probe %v", win.Changes, one.Changes)
			}
			if win.Stats.Probes != 56 || win.Stats.Found == 0 || win.Stats.Absent == 0 || len(win.Changes) == 0 {
				t.Errorf("stats = %+v, %d changes: the sweep should have found, missed and changed something", win.Stats, len(win.Changes))
			}
			t.Logf("%+v, %d changes, %d dials", win.Stats, len(win.Changes), winClient.Dials())
			// A window that timed out gives its socket up, so losses cost dials —
			// but per window, not per probe.
			if dials := winClient.Dials(); dials > 3+4 {
				t.Errorf("window path dialled %d sockets for 56 probes in 4 windows", dials)
			}
		})
	}
}

// A healthy sweep dials a socket per worker and no more, however many
// probes it sends.
func TestSweepDialsAtMostOneSocketPerWorker(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const workers = 4
	client := &UDPClient{Server: serveLoopback(t, sparseZone(t)), Timeout: 2 * time.Second, Retries: 1}
	defer client.Close()
	sc := scanengine.New(UDPSource{Client: client}, scanengine.WithWorkers(workers), scanengine.WithShardBits(24))
	var targets []dnswire.Prefix
	for i := 0; i < 8; i++ { // the zone's /24 and seven the server refuses
		targets = append(targets, dnswire.Prefix{Addr: dnswire.IPv4{192, 0, byte(2 + i), 0}, Bits: 24})
	}
	snap, err := sc.Scan(context.Background(), scanengine.Request{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.Probes != 8*256 || snap.Stats.Found != 86 || snap.Stats.Absent != 170 || snap.Stats.Errors != 7*256 {
		t.Fatalf("stats = %+v", snap.Stats)
	}
	if dials := client.Dials(); dials == 0 || dials > workers {
		t.Errorf("%d sockets dialled for %d probes by %d workers", dials, snap.Stats.Probes, workers)
	}
}

// Cancelling a window in flight returns at once: the slots already answered
// keep their answers, every other one is KindCanceled wrapping the cause.
func TestCancelMidWindow(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const answered = 6
	lies := make([]testutil.Lie, scanengine.Window)
	for i := answered; i < len(lies); i++ {
		lies[i] = testutil.Silent
	}
	l := startLyingDNS(t, func(l *testutil.LyingDNS) { l.Script = testutil.Script(lies...) })
	client := &UDPClient{Server: l.Addr(), Timeout: 30 * time.Second, Retries: 3}
	defer client.Close()
	ips := make([]dnswire.IPv4, scanengine.Window)
	for i := range ips {
		ips[i] = lyingPrefix.Nth(i)
	}
	out := make([]scanengine.Result, len(ips))
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	began := time.Now()
	UDPSource{Client: client}.LookupPTRs(ctx, ips, out)
	if took := time.Since(began); took > 5*time.Second {
		t.Fatalf("a cancelled window took %v", took)
	}
	for i, res := range out {
		switch {
		case i < answered:
			if !res.Found || res.Name != trueName(ips[i]) {
				t.Errorf("slot %d was answered before the cancel, got %+v", i, res)
			}
		case !errors.Is(res.Err, &Error{Kind: KindCanceled}) || !errors.Is(res.Err, context.Canceled) || res.Found:
			t.Errorf("slot %d = %+v, want KindCanceled wrapping context.Canceled", i, res)
		}
	}
	// A window cancelled before it starts sends nothing.
	before := l.Datagrams()
	UDPSource{Client: client}.LookupPTRs(ctx, ips, out)
	for i, res := range out {
		if !errors.Is(res.Err, &Error{Kind: KindCanceled}) {
			t.Errorf("slot %d of a window under a dead context = %+v", i, res)
		}
	}
	if l.Datagrams() != before {
		t.Errorf("a window under a dead context sent %d datagrams", l.Datagrams()-before)
	}
}

// lateCancel is a context cancelled between a round's writes and its read
// deadline, with the cancel hook already spent: Done is nil, so nothing
// moves the socket's deadline but roundTrips itself.
type lateCancel struct {
	context.Context
	asked int
}

func (c *lateCancel) Done() <-chan struct{} { return nil }
func (c *lateCancel) Err() error {
	if c.asked++; c.asked > 1 { // the first ask is exchange's, before anything is sent
		return context.Canceled
	}
	return nil
}

// A cancellation that lands while a round's queries are being written is
// not overwritten by that round's read deadline.
func TestCancelDuringWritesDoesNotWaitOutTheTimeout(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	l := startLyingDNS(t, func(l *testutil.LyingDNS) {
		l.Script = func(int) testutil.Lie { return testutil.Silent }
	})
	client := &UDPClient{Server: l.Addr(), Timeout: 30 * time.Second, Retries: 3}
	defer client.Close()
	ips := make([]dnswire.IPv4, scanengine.Window)
	for i := range ips {
		ips[i] = lyingPrefix.Nth(i)
	}
	out := make([]scanengine.Result, len(ips))
	began := time.Now()
	UDPSource{Client: client}.LookupPTRs(&lateCancel{Context: context.Background()}, ips, out)
	if took := time.Since(began); took > 5*time.Second {
		t.Fatalf("a window cancelled during its writes took %v", took)
	}
	for i, res := range out {
		if !errors.Is(res.Err, &Error{Kind: KindCanceled}) || !errors.Is(res.Err, context.Canceled) {
			t.Errorf("slot %d = %+v, want KindCanceled wrapping context.Canceled", i, res)
		}
	}
	if len(client.idle) != 0 {
		t.Errorf("the cancelled window's socket went back to the pool")
	}
}

// Close is safe while lookups run and after them: lookups in flight finish
// on the sockets they hold, nothing stays pooled from before a Close, and a
// closed client dials afresh on its next lookup.
func TestCloseDuringAndAfterLookups(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	client := &UDPClient{Server: serveLoopback(t, sparseZone(t)), Timeout: 2 * time.Second, Retries: 1}
	src := UDPSource{Client: client}
	ctx := context.Background()

	var wg, closer sync.WaitGroup
	stop := make(chan struct{})
	closer.Add(1)
	go func() {
		defer closer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				client.Close()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ips := make([]dnswire.IPv4, scanengine.Window)
			out := make([]scanengine.Result, len(ips))
			for round := 0; round < 40; round++ {
				for i := range ips {
					ips[i] = lyingPrefix.Nth((g*64 + round + i) % 256)
				}
				n := len(ips)
				if round%2 == 0 {
					src.LookupPTRs(ctx, ips, out)
				} else {
					n, out[0] = 1, src.LookupPTR(ctx, ips[0])
				}
				for i, res := range out[:n] {
					if res.Err != nil || res.Found != (ips[i][3]%3 == 0) {
						t.Errorf("%s under a concurrent Close = %+v", ips[i], res)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	closer.Wait()

	client.Close()
	client.Close() // idempotent
	if n := len(client.idle); n != 0 {
		t.Fatalf("%d sockets pooled after Close", n)
	}
	dialled := client.Dials()
	if res := src.LookupPTR(ctx, lyingPrefix.Nth(3)); !res.Found {
		t.Fatalf("lookup after Close = %+v", res)
	}
	if client.Dials() != dialled+1 || len(client.idle) != 1 {
		t.Fatalf("after Close the next lookup dialled %d sockets and pooled %d, want 1 and 1",
			client.Dials()-dialled, len(client.idle))
	}
	client.Close()
}

// The truncation fallback honours its context: with the stream side of the
// name server hung, a cancelled lookup is back at once, as a cancellation.
func TestTCPFallbackHonoursContext(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	hang := make(chan struct{})
	l := startLyingDNS(t, func(l *testutil.LyingDNS) {
		l.Script = func(int) testutil.Lie { return testutil.Truncated }
		answer := l.Answer
		l.Answer = func(query []byte, tcp bool) []byte {
			if tcp {
				<-hang
				return nil
			}
			return answer(query, tcp)
		}
	})
	t.Cleanup(func() { close(hang) }) // before the server's own cleanup waits for its streams
	client := &UDPClient{Server: l.Addr(), Timeout: 30 * time.Second}
	defer client.Close()
	q := ptrQuestion(lyingPrefix.Nth(9))
	for name, lookup := range map[string]func(context.Context) (Response, error){
		"LookupTCP":     func(ctx context.Context) (Response, error) { return client.LookupTCP(ctx, q) },
		"LookupContext": func(ctx context.Context) (Response, error) { return client.LookupContext(ctx, q) },
	} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(100*time.Millisecond, cancel)
		began := time.Now()
		resp, err := lookup(ctx)
		if took := time.Since(began); took > 5*time.Second {
			t.Errorf("%s: a cancelled stream lookup took %v", name, took)
		}
		if resp.Outcome != OutcomeCanceled || !errors.Is(err, &Error{Kind: KindCanceled}) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s = %+v, %v, want OutcomeCanceled wrapping context.Canceled", name, resp, err)
		}
		cancel()
	}
	// Dead on arrival: no dial at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	streams := l.Streams()
	if resp, err := client.LookupTCP(ctx, q); resp.Outcome != OutcomeCanceled || !errors.Is(err, context.Canceled) {
		t.Errorf("LookupTCP under a dead context = %+v, %v", resp, err)
	}
	if l.Streams() != streams {
		t.Errorf("LookupTCP under a dead context opened a stream")
	}
}

// TestFreshIDSkipsHeldIDs: a window's query IDs key its in-flight table,
// so freshID draws again when the socket's stream repeats an ID an
// earlier probe of the window holds, and takes the next draw.
func TestFreshIDSkipsHeldIDs(t *testing.T) {
	var seed [32]byte
	stream := rand.NewChaCha8(seed)
	held, next := uint16(stream.Uint64()), uint16(stream.Uint64())
	s := &udpSock{ids: rand.NewChaCha8(seed)}
	if got := s.freshID([]probe{{id: held}}); got != next {
		t.Fatalf("freshID with %#04x held = %#04x, want the next draw %#04x", held, got, next)
	}
}
