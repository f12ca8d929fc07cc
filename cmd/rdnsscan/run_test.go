package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/testutil"
)

// syncBuffer is an output sink that run may write while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serveZone serves 0.0.10.in-addr.arpa with PTR records for 10.0.0.1-3 on
// loopback UDP and, on the same port, TCP; transfers are open. It returns
// the server's address and the zone.
func serveZone(t *testing.T) (string, *dnsserver.Zone) {
	t.Helper()
	srv := dnsserver.NewServer()
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    dnswire.MustName("0.0.10.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns1.campus.example"),
		Mbox:      dnswire.MustName("hostmaster.campus.example"),
	})
	srv.AddZone(zone)
	srv.SetTransferPolicy(true)
	for _, h := range []string{"brians-iphone", "emmas-ipad", "printer"} {
		setPTR(t, zone, byte(zone.Len()+1), h)
	}
	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	tcp, err := net.Listen("tcp", udp.LocalAddr().String())
	if err != nil {
		udp.Close()
		t.Skipf("no loopback TCP on %s: %v", udp.LocalAddr(), err)
	}
	go srv.Serve(udp)
	go srv.ServeTCP(tcp)
	t.Cleanup(func() {
		udp.Close()
		tcp.Close()
	})
	return udp.LocalAddr().String(), zone
}

func setPTR(t *testing.T, zone *dnsserver.Zone, last byte, host string) {
	t.Helper()
	if err := zone.SetPTR(dnswire.ReverseName(dnswire.IPv4{10, 0, 0, last}), dnswire.MustName(host+".dyn.campus.example")); err != nil {
		t.Fatal(err)
	}
}

// TestRunSweep sweeps a /24 through run with every output on: the found
// rows on stdout, the tally and the health report on stderr, one snapshot
// in the store, and the span log and frame series on disk.
func TestRunSweep(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	addr, _ := serveZone(t)
	dir := t.TempDir()
	storeDir, spans, frames := filepath.Join(dir, "hist"), filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "frames.jsonl")
	var stdout, stderr syncBuffer
	code := run(context.Background(), []string{"-server", addr, "-prefix", "10.0.0.0/24", "-only-found",
		"-resilient", "-store", storeDir, "-trace-out", spans, "-obs-out", frames, "-metrics-addr", "127.0.0.1:0"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "ip,outcome,ptr,rtt_ms\n") || strings.Count(out, ",NOERROR,") != 3 ||
		!strings.Contains(out, "10.0.0.1,NOERROR,brians-iphone.dyn.campus.example.,") {
		t.Errorf("rows:\n%s", out)
	}
	for _, want := range []string{"telemetry: http://", "scanned 256 addresses: 3 records, 0 errors", "health: ", "trace: wrote", "obs: wrote 1 frames"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	for _, p := range []string{spans, frames} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a JSONL dump", p, err)
		}
	}
	st, err := histstore.Open(storeDir, histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 1 {
		t.Errorf("store holds %d snapshots, want 1", st.Len())
	}
}

// TestRunLookupAndTransfer: -ip looks up one address, and -axfr dumps the
// zone as CSV over TCP.
func TestRunLookupAndTransfer(t *testing.T) {
	addr, _ := serveZone(t)
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-server", addr, "-ip", "10.0.0.2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-ip: exit %d:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "10.0.0.2,NOERROR,emmas-ipad.dyn.campus.example.,") {
		t.Errorf("-ip rows:\n%s", stdout.String())
	}
	stdout.Reset()
	if code := run(context.Background(), []string{"-server", addr, "-axfr", "0.0.10.in-addr.arpa"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-axfr: exit %d:\n%s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "name,type,data\n") || !strings.Contains(stdout.String(), "printer.dyn.campus.example.") {
		t.Errorf("-axfr rows:\n%s", stdout.String())
	}
}

// TestRunWatch: -watch prints a record that appears between sweeps, and
// cancelling the context ends the loop with exit 0.
func TestRunWatch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	addr, zone := serveZone(t)
	var stdout, stderr syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-server", addr, "-prefix", "10.0.0.0/24", "-watch", "-interval", "20ms"}, &stdout, &stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(stderr.String(), "baseline: 3 records") {
		if time.Now().After(deadline) {
			t.Fatalf("no baseline sweep:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	setPTR(t, zone, 9, "olivias-macbook")
	for !strings.Contains(stdout.String(), "+ 10.0.0.9") {
		if time.Now().After(deadline) {
			t.Fatalf("the new record never showed:\n%s", stdout.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if code := <-exit; code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
}

// TestRunUsage: -h exits 0; bad flags and missing or malformed targets
// exit 2; a zone the server will not transfer exits 1.
func TestRunUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nope"}, 2},
		{nil, 2},
		{[]string{"-ip", "10.0.0.300"}, 2},
		{[]string{"-prefix", "10.0.0.0/33"}, 2},
		{[]string{"-ip", "10.0.0.1", "-watch"}, 2},
		{[]string{"-axfr", "bad..zone"}, 2},
		{[]string{"-server", "127.0.0.1:1", "-timeout", "50ms", "-axfr", "0.0.10.in-addr.arpa"}, 1},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), c.args, io.Discard, &stderr); code != c.code {
			t.Errorf("rdnsscan %q exited %d, want %d:\n%s", c.args, code, c.code, stderr.String())
		}
	}
}
