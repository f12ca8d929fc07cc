package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/testutil"
)

// syncBuffer is a log sink that run may write from several goroutines
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

// daemon is one rdnsd run in the background.
type daemon struct {
	url    string
	log    *syncBuffer
	exit   chan int
	cancel context.CancelFunc
}

// startDaemon runs rdnsd with args until the test stops it, and waits for
// the line that names the bound API address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{log: &syncBuffer{}, exit: make(chan int, 1), cancel: cancel}
	go func() { d.exit <- run(ctx, args, io.Discard, d.log) }()
	d.url = "http://" + d.await(t, `serving \d+ snapshots across \d+ blocks on http://(\S+)`)
	return d
}

// await returns the first submatch of pattern in the daemon's log once it
// appears; the daemon exiting first fails the test.
func (d *daemon) await(t *testing.T, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.After(30 * time.Second)
	for {
		if m := re.FindStringSubmatch(d.log.String()); m != nil {
			return m[1]
		}
		select {
		case code := <-d.exit:
			t.Fatalf("rdnsd exited %d before %q:\n%s", code, pattern, d.log)
		case <-deadline:
			t.Fatalf("no %q in rdnsd's log:\n%s", pattern, d.log)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// stop cancels the daemon and returns its exit status.
func (d *daemon) stop(t *testing.T) int {
	t.Helper()
	d.cancel()
	select {
	case code := <-d.exit:
		return code
	case <-time.After(30 * time.Second):
		t.Fatalf("rdnsd did not stop:\n%s", d.log)
		return -1
	}
}

// campaignStore writes a short seeded campaign over the validation campus
// into a fresh store, with sealed segments and a tail, and returns its
// directory.
func campaignStore(t *testing.T) string {
	t.Helper()
	campus, _, err := netsim.BuildValidationCampus(7, time.UTC)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "hist")
	st, err := histstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	res := scan.Run(scan.Campaign{
		Universe:     &netsim.Universe{Networks: []*netsim.Network{campus}},
		Start:        start,
		End:          start.AddDate(0, 0, 9),
		Cadence:      scan.Daily,
		Store:        st,
		CompactEvery: 4,
	})
	if res.StoreErr != nil {
		t.Fatal(res.StoreErr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunPrimaryAndReplica runs a primary and a -replica-of replica
// through run over a campaign's store: both answer /v1/days and a
// /v1/range page with the same bytes, both reload on POST, both exit 0
// when cancelled, and the primary's store is as it was.
func TestRunPrimaryAndReplica(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := campaignStore(t)
	before, err := testutil.DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}

	qlog := filepath.Join(t.TempDir(), "querylog.jsonl")
	primary := startDaemon(t, "-store", dir, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-query-log", "64", "-query-log-out", qlog)
	metrics := primary.await(t, `telemetry on (http://\S+/metrics)`)
	replica := startDaemon(t, "-replica-of", primary.url, "-store", filepath.Join(t.TempDir(), "mirror"),
		"-addr", "127.0.0.1:0", "-repl-poll", "20ms")

	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	fetch := func(method, url string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s, %v", method, url, resp.StatusCode, body, err)
		}
		return body
	}
	for _, path := range []string{"/v1/days", "/v1/range?prefix=0.0.0.0/0&limit=50"} {
		p, r := fetch(http.MethodGet, primary.url+path), fetch(http.MethodGet, replica.url+path)
		if !bytes.Equal(p, r) {
			t.Errorf("GET %s: the primary answered\n%s\nthe replica\n%s", path, p, r)
		}
		if !bytes.Contains(p, []byte(`"count":`)) || bytes.Contains(p, []byte(`"count":0`)) {
			t.Errorf("GET %s: an empty answer from a campaign's store: %s", path, p)
		}
	}
	for _, d := range []*daemon{primary, replica} {
		fetch(http.MethodPost, d.url+"/v1/admin/reload")
	}
	if m := fetch(http.MethodGet, metrics); !bytes.Contains(m, []byte("rdnsd_")) {
		t.Errorf("the primary's metrics carry no rdnsd_ series:\n%s", m)
	}

	hc.CloseIdleConnections()
	for _, d := range []*daemon{replica, primary} {
		if code := d.stop(t); code != 0 {
			t.Errorf("rdnsd exited %d:\n%s", code, d.log)
		}
	}
	if !strings.Contains(replica.log.String(), "shutting down") {
		t.Errorf("the replica's log lacks its shutdown:\n%s", replica.log)
	}
	if b, err := os.ReadFile(qlog); err != nil || !bytes.Contains(b, []byte(`"endpoint":"days"`)) {
		t.Errorf("the primary's query log dump: %v\n%s", err, b)
	}
	after, err := testutil.DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("the primary's store holds %d files after serving, %d before", len(after), len(before))
	}
	for name, sum := range before {
		if after[name] != sum {
			t.Errorf("%s: %q before serving, %q after", name, sum, after[name])
		}
	}
}

// TestRunUsage: -h exits 0, and a bad flag, a missing -store or a bad ACL
// exit 2; a store that is not there exits 1.
func TestRunUsage(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nope"}, 2},
		{nil, 2},
		{[]string{"-store", missing, "-acl-deny", "banana"}, 2},
		{[]string{"-store", missing}, 1},
	} {
		var stderr syncBuffer
		if code := run(context.Background(), c.args, io.Discard, &stderr); code != c.code {
			t.Errorf("rdnsd %q exited %d, want %d:\n%s", c.args, code, c.code, stderr.String())
		}
	}
}
