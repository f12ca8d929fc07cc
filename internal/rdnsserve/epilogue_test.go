package rdnsserve

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/telemetry"
)

// TestEpilogueBytesAndQueryLog pins what the render-and-log epilogue puts on
// the wire and in the query log for each v1 endpoint, one error and one
// admin call: the body bytes are the ones the daemon has always sent, and
// every non-timing QueryLogEntry field is derived from the same request.
func TestEpilogueBytesAndQueryLog(t *testing.T) {
	const seed = 1
	qlog := NewQueryLog(QueryLogConfig{Size: 16})
	path, st, _ := fixture(t, 6)
	srv := New(st, Config{QueryLog: qlog, Seed: seed, Reopen: func() (*histstore.Store, error) {
		return histstore.Open(path, histstore.WithReadOnly())
	}})
	defer srv.Close()
	h := srv.Handler()

	cases := []struct {
		endpoint, url string
		status        int
		code          string
		body          string // without the encoder's trailing newline
	}{
		{"at", "/v1/at?ip=10.0.1.7&t=2020-03-04", 200, "",
			`{"ip":"10.0.1.7","t":"2020-03-04T00:00:00Z","resolved":"2020-03-04T00:00:00Z","found":true,"name":"brians-iphone.lan.example.net."}`},
		{"range", "/v1/range?prefix=10.0.2.0/24&from=2020-03-04&to=2020-03-05", 200, "",
			`{"prefix":"10.0.2.0/24","from":"2020-03-04T00:00:00Z","to":"2020-03-05T00:00:00Z","count":2,"rows":[{"date":"2020-03-04T00:00:00Z","ip":"10.0.2.4","ptr":"printer.example.net."},{"date":"2020-03-05T00:00:00Z","ip":"10.0.2.4","ptr":"printer.example.net."}]}`},
		{"churn", "/v1/churn?prefix=10.0.1.0/24&from=2020-03-01&to=2020-03-03", 200, "",
			`{"prefix":"10.0.1.0/24","from":"2020-03-01T00:00:00Z","to":"2020-03-03T00:00:00Z","days":[{"date":"2020-03-02T00:00:00Z","added":0,"removed":0,"changed":1},{"date":"2020-03-03T00:00:00Z","added":0,"removed":0,"changed":1}]}`},
		{"name", "/v1/name?token=brians", 200, "",
			`{"token":"brians","count":1,"postings":[{"prefix":"10.0.1.0/24","first":"2020-03-01T00:00:00Z","last":"2020-03-06T00:00:00Z"}]}`},
		{"days", "/v1/days", 200, "",
			`{"count":6,"days":["2020-03-01T00:00:00Z","2020-03-02T00:00:00Z","2020-03-03T00:00:00Z","2020-03-04T00:00:00Z","2020-03-05T00:00:00Z","2020-03-06T00:00:00Z"]}`},
		{"at", "/v1/at?ip=banana", 400, "bad_param",
			`{"error":{"code":"bad_param","message":"ip: dnswire: \"banana\" is not a dotted quad"}}`},
	}
	for i, c := range cases {
		req := httptest.NewRequest("GET", c.url, nil)
		req.RemoteAddr = "192.0.2.1:4711"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.status || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, Content-Type %q", c.url, rec.Code, rec.Header().Get("Content-Type"))
		}
		if got := rec.Body.String(); got != c.body+"\n" {
			t.Errorf("%s: body\n got %q\nwant %q", c.url, got, c.body+"\n")
		}
		entries := qlog.Snapshot()
		if len(entries) != i+1 {
			t.Fatalf("%s: query log holds %d entries, want %d", c.url, len(entries), i+1)
		}
		got := entries[i]
		if got.TotalNS <= 0 || got.TotalNS < got.ParseNS+got.StoreNS {
			t.Errorf("%s: timings total=%d parse=%d store=%d", c.url, got.TotalNS, got.ParseNS, got.StoreNS)
		}
		got.ParseNS, got.StoreNS, got.TotalNS = 0, 0, 0
		want := QueryLogEntry{
			Corr:      fmt.Sprintf("%016x", telemetry.CorrID(seed, "rdnsd."+c.endpoint, i+1)),
			Endpoint:  c.endpoint,
			Client:    "addr:192.0.2.1",
			Params:    paramsFingerprint(req.URL.Query()),
			Status:    c.status,
			Code:      c.code,
			Admission: "admitted",
			Bytes:     rec.Body.Len(),
		}
		if got != want {
			t.Errorf("%s: query log entry\n got %+v\nwant %+v", c.url, got, want)
		}
	}

	// Admin routes share the epilogue; their correlation ID is the caller's.
	req := httptest.NewRequest("POST", "/v1/admin/reload", nil)
	req.RemoteAddr = "192.0.2.1:4711"
	req.Header.Set(rdnsclient.CorrHeader, "00000000000000ab")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	const body = `{"reloaded":true,"generation":1,"snapshots":6}` + "\n"
	if rec.Code != 200 || rec.Body.String() != body {
		t.Errorf("admin reload: status %d body %q, want 200 %q", rec.Code, rec.Body, body)
	}
	entries := qlog.Snapshot()
	got := entries[len(entries)-1]
	got.TotalNS = 0
	want := QueryLogEntry{
		Corr: "00000000000000ab", Endpoint: "admin_reload", Client: "addr:192.0.2.1",
		Status: 200, Admission: "admitted", Generation: 1, Bytes: len(body),
	}
	if len(entries) != len(cases)+1 || got != want {
		t.Errorf("admin reload: %d entries, last\n got %+v\nwant %+v", len(entries), got, want)
	}
}

// TestUnknownParamConcurrent: the allowed-parameter list of a route is shared
// by all its requests, so concurrent typos must only read it — every one of
// them gets the same message, and -race sees no write.
func TestUnknownParamConcurrent(t *testing.T) {
	srv, _ := newTestServer(t, 2, Config{})
	h := srv.Handler()
	const want = `{"error":{"code":"bad_param","message":"unknown parameter \"prefx\" (allowed: cursor, from, limit, prefix, to)"}}` + "\n"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/range?prefx=10.0.1.0/24", nil))
				if got := rec.Body.String(); rec.Code != 400 || got != want {
					t.Errorf("status %d body %q, want 400 %q", rec.Code, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
