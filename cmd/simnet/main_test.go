package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/testutil"
)

// syncBuffer is an output sink that run's client goroutines may write
// while the test reads it.
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

// buildRdnsscan builds the scanner binary into a temporary directory.
func buildRdnsscan(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	bin := filepath.Join(t.TempDir(), "rdnsscan")
	if out, err := exec.Command(goBin, "build", "-o", bin, "rdnsprivacy/cmd/rdnsscan").CombinedOutput(); err != nil {
		t.Fatalf("building rdnsscan: %v\n%s", err, out)
	}
	return bin
}

// TestScanTheLeakingNetwork runs simnet on an ephemeral loopback port with
// fast clients and points the rdnsscan binary at it: a sweep of the /24
// finds rows under simnet's suffix, and -axfr dumps the zone over TCP on
// the port the UDP answers came from. Cancelling simnet stops its clients
// and servers, and run returns 0.
func TestScanTheLeakingNetwork(t *testing.T) {
	scanner := buildRdnsscan(t)
	testutil.VerifyNoLeaks(t)

	var stdout, stderr syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-listen", "127.0.0.1:0", "-period", "2s", "-lease", "5s",
			"-suffix", "dyn.test-campus.example", "-allow-axfr"}, &stdout, &stderr)
	}()
	addr := awaitLine(t, &stdout, exit, `authoritative DNS for \S+ on (\S+)`)
	if !strings.Contains(stdout.String(), "AXFR transfers OPEN on "+addr) {
		t.Fatalf("TCP is not on the UDP port %s:\n%s", addr, stdout.String())
	}

	scan := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(scanner, append([]string{"-server", addr, "-timeout", "500ms"}, args...)...).Output()
		if err != nil {
			t.Fatalf("rdnsscan %q: %v\n%s", args, err, out)
		}
		return string(out)
	}
	// Every device joins as its goroutine starts and stays at least a
	// second; sweep until the first joins have landed.
	found := regexp.MustCompile(`(?m)^10\.0\.0\.\d+,NOERROR,[^,]+\.dyn\.test-campus\.example\.,`)
	rows := scan("-prefix", "10.0.0.0/24", "-only-found")
	for deadline := time.Now().Add(10 * time.Second); !found.MatchString(rows) && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		rows = scan("-prefix", "10.0.0.0/24", "-only-found")
	}
	if !found.MatchString(rows) {
		t.Errorf("no row under simnet's suffix:\n%s", rows)
	}
	zone := scan("-axfr", "0.0.10.in-addr.arpa")
	if !strings.HasPrefix(zone, "name,type,data\n") || !strings.Contains(zone, ".dyn.test-campus.example.") {
		t.Errorf("-axfr did not dump the zone:\n%s", zone)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("simnet exited %d:\n%s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("simnet did not stop with its context")
	}
}

// awaitLine returns the first submatch of pattern once it shows in out;
// run exiting first fails the test.
func awaitLine(t *testing.T, out *syncBuffer, exit chan int, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.After(10 * time.Second)
	for {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		select {
		case code := <-exit:
			t.Fatalf("simnet exited %d before %q:\n%s", code, pattern, out.String())
		case <-deadline:
			t.Fatalf("no %q in simnet's output:\n%s", pattern, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestRunUsage: -h exits 0, bad flags exit 2, and a socket that cannot be
// bound exits 1: the UDP one, or the TCP one on its port (which
// -allow-axfr needs).
func TestRunUsage(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer taken.Close()
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nope"}, 2},
		{[]string{"-prefix", "10.0.0.0/16"}, 2},
		{[]string{"-suffix", "bad..suffix"}, 2},
		{[]string{"-period", "0s"}, 2},
		{[]string{"-policy", "sometimes"}, 2},
		{[]string{"-listen", "127.0.0.1:99999"}, 1},
		{[]string{"-listen", taken.Addr().String(), "-allow-axfr", "-clients", "1"}, 1},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), c.args, io.Discard, &stderr); code != c.code {
			t.Errorf("simnet %q exited %d, want %d:\n%s", c.args, code, c.code, stderr.String())
		}
	}
}
