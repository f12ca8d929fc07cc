package main

import (
	"io"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/scanengine"
)

// TestSlowHeaderIsDisconnected: a client that trickles its request header
// forever loses its connection at the header deadline, and holding it open
// until then does not keep an ordinary /v1/at from answering.
func TestSlowHeaderIsDisconnected(t *testing.T) {
	t.Parallel()
	st, err := histstore.Open(filepath.Join(t.TempDir(), "hist"))
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	if err := st.Append(day, scanengine.RecordSet{
		dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
	}); err != nil {
		t.Fatal(err)
	}
	srv := rdnsserve.New(st, rdnsserve.Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	hs := newHTTPServer(ln.Addr().String(), srv.Handler())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "GET /v1/at?ip=10.0.1.7&t=2020-03-01 HTTP/1.1\r\nHost: rdnsd\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	// The trickler stops at the first failed write: the server hung up.
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		for {
			if _, err := slow.Write([]byte("a")); err != nil {
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
	}()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + ln.Addr().String() + "/v1/at?ip=10.0.1.7&t=2020-03-01")
	if err != nil {
		t.Fatalf("/v1/at beside a trickling client: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/at beside a trickling client: %d %s", resp.StatusCode, body)
	}

	// The server never answers the unfinished request; the read ends when it
	// closes the connection.
	slow.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	if n, err := slow.Read(make([]byte, 1)); err == nil {
		t.Fatalf("trickling client read %d bytes of a reply to an unfinished header", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("trickling client still connected %v after its first byte", time.Since(start))
	}
	if held := time.Since(start); held < readHeaderTimeout-time.Second {
		t.Fatalf("disconnected after %v, before the %v header deadline", held, readHeaderTimeout)
	}
	<-trickled
}
