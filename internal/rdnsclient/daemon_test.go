package rdnsclient_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/scanengine"
)

// TestDaemonBodiesNeedNoFallback: every 200 rdnsd sends for the five query
// shapes is in the canonical form the scanner reads, so json.Unmarshal runs
// on that path only for someone else's daemon — and what the scanner reads
// out of it is what json.Unmarshal would have.
func TestDaemonBodiesNeedNoFallback(t *testing.T) {
	st, err := histstore.Open(filepath.Join(t.TempDir(), "hist"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	for day := 0; day < 5; day++ {
		recs := scanengine.RecordSet{dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net")}
		for h := 0; h < 20+day; h++ {
			recs[dnswire.IPv4{10, 0, 2, byte(h)}] = dnswire.MustName(fmt.Sprintf("host-%d-%d.dyn.example.net", h, day%2))
		}
		if err := st.Append(start.AddDate(0, 0, day), recs); err != nil {
			t.Fatal(err)
		}
	}
	srv := rdnsserve.New(st, rdnsserve.Config{Seed: 1})
	defer srv.Close()
	h := srv.Handler()

	for _, c := range []struct {
		url   string
		shape func() any
	}{
		{"/v1/at?ip=10.0.1.7&t=2020-03-03", func() any { return new(rdnsclient.AtResponse) }},
		{"/v1/at?ip=10.0.1.8&t=2020-03-03T07:30:00.25-08:00", func() any { return new(rdnsclient.AtResponse) }},
		{"/v1/range?prefix=10.0.0.0/16", func() any { return new(rdnsclient.RangeResponse) }},
		{"/v1/range?prefix=10.0.2.0/24&limit=7", func() any { return new(rdnsclient.RangeResponse) }},
		{"/v1/range?prefix=10.0.2.0/24&to=2019-01-01", func() any { return new(rdnsclient.RangeResponse) }},
		{"/v1/churn?prefix=10.0.2.0/24", func() any { return new(rdnsclient.ChurnResponse) }},
		{"/v1/name?token=host&limit=1", func() any { return new(rdnsclient.NameResponse) }},
		{"/v1/name?token=nobody", func() any { return new(rdnsclient.NameResponse) }},
		{"/v1/days", func() any { return new(rdnsclient.DaysResponse) }},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", c.url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", c.url, rec.Code, rec.Body)
		}
		got, want := c.shape(), c.shape()
		if !rdnsclient.Scan(rec.Body.Bytes(), got) {
			t.Errorf("%s: the scanner refused the daemon's body: %s", c.url, rec.Body)
			continue
		}
		if err := json.Unmarshal(rec.Body.Bytes(), want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scanned %+v, json.Unmarshal gives %+v", c.url, got, want)
		}
	}
}
