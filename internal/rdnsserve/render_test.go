package rdnsserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/scanengine"
)

// hostileServer serves two days of a /24 whose PTR names are what a DHCP
// client can plant in a Client-FQDN option: dnswire.Name checks lengths, not
// bytes, so all of these reach the store and must be escaped on the way out
// exactly as encoding/json escapes them. (Invalid UTF-8 is left to
// rdnsclient's differential test: U+FFFD does not survive the round trip
// the test below compares with.)
func hostileServer(t *testing.T) *Server {
	t.Helper()
	st, err := histstore.Open(filepath.Join(t.TempDir(), "hostile.hist"))
	if err != nil {
		t.Fatal(err)
	}
	names := []dnswire.Name{
		"brians-iphone.lan.example.net.", `"quoted".example.`, `back\slash.example.`, "<script>alert(1)</script>.example.",
		"a&b.example.", "ctl\x00\x1f\n.example.", "sep  .example.", "münchen.example.", "del\x7f.example.",
	}
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	for day := 0; day < 2; day++ {
		recs := scanengine.RecordSet{}
		for i, n := range names[:len(names)-day] {
			recs[dnswire.IPv4{10, 0, 1, byte(i + 1)}] = n
		}
		if err := st.Append(start.AddDate(0, 0, day), recs); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(st, Config{Seed: 1})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestBodiesAreWhatEncodingJSONWrites: every body render sends — the typed
// rows of the paged shapes included — is a fixed point of encoding/json:
// decoded into its contract type and encoded again by json.Encoder it is
// the same bytes. With hostile names in every row that pins key order,
// omitempty, instants and each escape at the one encode site, and the
// headers a client sizes its read from.
func TestBodiesAreWhatEncodingJSONWrites(t *testing.T) {
	h := hostileServer(t).Handler()
	cases := []struct {
		url    string
		status int
		shape  func() any
	}{
		{"/v1/at?ip=10.0.1.2&t=2020-03-01", 200, func() any { return new(rdnsclient.AtResponse) }},
		{"/v1/at?ip=10.0.1.4&t=2020-03-02T12:00:00.5%2B05:30", 200, func() any { return new(rdnsclient.AtResponse) }},
		{"/v1/at?ip=10.0.9.9&t=2020-03-02", 200, func() any { return new(rdnsclient.AtResponse) }},
		{"/v1/range?prefix=10.0.1.0/24", 200, func() any { return new(rdnsclient.RangeResponse) }},
		{"/v1/range?prefix=10.0.1.77/24&limit=3", 200, func() any { return new(rdnsclient.RangeResponse) }},
		{"/v1/range?prefix=10.0.1.0/24&to=2019-01-01", 200, func() any { return new(rdnsclient.RangeResponse) }},
		{"/v1/churn?prefix=10.0.0.0/16", 200, func() any { return new(rdnsclient.ChurnResponse) }},
		{"/v1/churn?prefix=10.9.0.0/16&from=2020-03-02&to=2020-03-01", 200, func() any { return new(rdnsclient.ChurnResponse) }},
		{"/v1/name?token=brians", 200, func() any { return new(rdnsclient.NameResponse) }},
		{"/v1/name?token=%3Cscript%3Ealert(1)%3C/script%3E", 200, func() any { return new(rdnsclient.NameResponse) }},
		{"/v1/name?token=nobody", 200, func() any { return new(rdnsclient.NameResponse) }},
		{"/v1/days", 200, func() any { return new(rdnsclient.DaysResponse) }},
		{"/v1/stats", 200, func() any { return new(rdnsclient.StatsResponse) }},
		{"/v1/at?ip=%3Cb%3E", 400, func() any { return new(rdnsclient.ErrorEnvelope) }},
		{"/v1/nowhere", 404, func() any { return new(rdnsclient.ErrorEnvelope) }},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", c.url, nil))
		body := rec.Body.Bytes()
		if rec.Code != c.status || rec.Header().Get("Content-Type") != "application/json" ||
			rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Errorf("%s: status %d, headers %v, %d body bytes", c.url, rec.Code, rec.Header(), len(body))
		}
		v := c.shape()
		if err := json.Unmarshal(body, v); err != nil {
			t.Errorf("%s: %v\n%s", c.url, err, body)
			continue
		}
		var again bytes.Buffer
		if err := json.NewEncoder(&again).Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, again.Bytes()) {
			t.Errorf("%s: body is not what encoding/json writes for its value\n sent %q\nagain %q", c.url, body, again.Bytes())
		}
	}
}

// TestRenderAllocatesPerResponseNotPerRow: whatever the page holds, render
// allocates the Content-Length header (its value and the slice holding it)
// and nothing else — no string per address, prefix or instant.
func TestRenderAllocatesPerResponseNotPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	day := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	rng := &rangeBody{prefix: "10.0.1.0/24", from: day, to: day, next: "cjE6"}
	name := &nameBody{token: "kiosk"}
	for i := 0; i < 250; i++ {
		rng.rows = append(rng.rows, dataset.Row{Date: day, IP: dnswire.IPv4{10, 0, 1, byte(i)}, PTR: "host.dyn.example.net."})
		name.postings = append(name.postings, histstore.Posting{
			Prefix: dnswire.Prefix{Addr: dnswire.IPv4{10, 0, byte(i), 0}, Bits: 24}, First: day, Last: day.AddDate(0, 0, i%9),
		})
	}
	w := &discardWriter{hdr: make(http.Header)}
	for label, body := range map[string]any{"range": rng, "name": name} {
		rep := reply{body: body}
		render(w, rep, nil) // grow the pooled buffer once
		if n := testing.AllocsPerRun(50, func() { render(w, rep, nil) }); n > 2 {
			t.Errorf("%s page of 250 rows: render allocates %v times, want at most 2", label, n)
		}
	}
}
