package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

func TestParsePrefixList(t *testing.T) {
	got, err := parsePrefixList("10.0.0.0/8, 192.168.1.0/24,")
	if err != nil || len(got) != 2 {
		t.Fatalf("parse: %v err=%v", got, err)
	}
	if got[0] != dnswire.MustPrefix("10.0.0.0/8") || got[1] != dnswire.MustPrefix("192.168.1.0/24") {
		t.Fatalf("prefixes: %v", got)
	}
	if got, err := parsePrefixList(""); err != nil || got != nil {
		t.Fatalf("empty list: %v err=%v", got, err)
	}
	if _, err := parsePrefixList("10.0.0.0/33"); err == nil {
		t.Fatal("bad prefix accepted")
	}
	if _, err := parsePrefixList("banana"); err == nil {
		t.Fatal("non-CIDR accepted")
	}
}

func TestBuildConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.log")
	st, err := histstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC), scanengine.RecordSet{
		dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	o := options{
		storePath:   path,
		cacheSize:   64,
		seed:        7,
		rate:        50,
		burst:       100,
		maxInFlight: 32,
		aclAllow:    "10.0.0.0/8",
		aclDeny:     "10.9.0.0/16",
	}
	reg := telemetry.NewRegistry()
	cfg, err := buildConfig(o, reg, telemetry.NewTracer(7, 16))
	if err != nil {
		t.Fatal(err)
	}
	a := cfg.Admission
	if a.RatePerSec != 50 || a.Burst != 100 || a.MaxInFlight != 32 ||
		len(a.Allow) != 1 || len(a.Deny) != 1 {
		t.Fatalf("admission config: %+v", a)
	}
	if cfg.Seed != 7 || cfg.Sink == nil {
		t.Fatalf("config: %+v", cfg)
	}
	if cfg.Reopen == nil {
		t.Fatal("Reopen is nil: the daemon always hot-reloads")
	}
	reopened, err := cfg.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if reopened.Len() != 1 {
		t.Fatalf("reopened store has %d snapshots, want 1", reopened.Len())
	}
	reopened.Close()

	// ACL parse errors surface with the flag name.
	o.aclAllow = "nonsense"
	if _, err := buildConfig(o, reg, nil); err == nil {
		t.Fatal("bad -acl-allow accepted")
	}
}

// logCollector is a concurrency-safe logf sink for the loop tests.
type logCollector struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCollector) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logCollector) joined() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

func TestReplicaBootstrap(t *testing.T) {
	// Two failures, then success: the loop retries on the poll interval
	// and reports nil once a generation committed.
	var logs logCollector
	calls := 0
	sync := func(context.Context) (bool, error) {
		calls++
		if calls < 3 {
			return false, errors.New("primary unreachable")
		}
		return true, nil
	}
	if err := replicaBootstrap(context.Background(), sync, time.Millisecond, logs.logf); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if calls != 3 {
		t.Fatalf("sync attempts = %d, want 3", calls)
	}
	if got := logs.joined(); !strings.Contains(got, "primary unreachable") {
		t.Fatalf("failures not logged: %q", got)
	}

	// A dead context stops a never-succeeding bootstrap with its error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := replicaBootstrap(ctx, func(context.Context) (bool, error) {
		return false, errors.New("still down")
	}, time.Millisecond, logs.logf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context bootstrap: %v", err)
	}
}

func TestReplicaCatchup(t *testing.T) {
	// Scripted syncs: an error, a no-op, then a change — only the change
	// triggers a reload; the error is logged and the loop keeps going.
	var logs logCollector
	script := []struct {
		changed bool
		err     error
	}{
		{false, errors.New("flaky pull")},
		{false, nil},
		{true, nil},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	step := 0
	syncFn := func(context.Context) (bool, error) {
		if step >= len(script) {
			return false, nil
		}
		s := script[step]
		step++
		return s.changed, s.err
	}
	reloads := 0
	done := make(chan struct{})
	reload := func() (rdnsclient.ReloadResponse, error) {
		reloads++
		close(done)
		return rdnsclient.ReloadResponse{Generation: 4, Snapshots: 12}, nil
	}
	// The loop logs the new generation after reload returns: wait for the
	// line, not only for the reload.
	logged := make(chan struct{})
	logf := func(format string, args ...any) {
		logs.logf(format, args...)
		if strings.Contains(format, "generation") {
			close(logged)
		}
	}
	go replicaCatchup(ctx, syncFn, reload, time.Millisecond, logf)
	for _, ev := range []chan struct{}{done, logged} {
		select {
		case <-ev:
		case <-time.After(5 * time.Second):
			t.Fatal("reload never fired")
		}
	}
	cancel()
	if reloads != 1 {
		t.Fatalf("reloads = %d, want 1", reloads)
	}
	got := logs.joined()
	if !strings.Contains(got, "flaky pull") || !strings.Contains(got, "generation 4 (12 snapshots)") {
		t.Fatalf("catchup log: %q", got)
	}
}

func TestReplicaCatchupReloadError(t *testing.T) {
	// A reload failure leaves the loop running (the previous generation
	// keeps serving) and logs the error.
	var logs logCollector
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	var once sync.Once
	syncFn := func(context.Context) (bool, error) { return true, nil }
	reload := func() (rdnsclient.ReloadResponse, error) {
		once.Do(func() { close(done) })
		return rdnsclient.ReloadResponse{}, errors.New("store vanished")
	}
	go replicaCatchup(ctx, syncFn, reload, time.Millisecond, logs.logf)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reload never attempted")
	}
	cancel()
	// The loop must exit on cancellation; give it a beat, then check the
	// error surfaced.
	time.Sleep(10 * time.Millisecond)
	if got := logs.joined(); !strings.Contains(got, "store vanished") {
		t.Fatalf("reload error not logged: %q", got)
	}
}
