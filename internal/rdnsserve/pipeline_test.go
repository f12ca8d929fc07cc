package rdnsserve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/telemetry"
)

// views is every per-request view of the serving path, read for one
// endpoint: the numbers observe may move when that endpoint answers.
type views struct {
	queries, errors, canceled     uint64
	ok, failed, aborted, rejected uint64 // rdnsd_requests_total{endpoint}
	seconds, endpointSeconds      uint64 // histogram counts
	logged                        uint64
	spans                         int
	fetches, fetchErrors          uint64
	admitted, denied              uint64
}

func readViews(reg *telemetry.Registry, tracer *telemetry.Tracer, qlog *QueryLog, ep *endpoint) views {
	snap := reg.Snapshot()
	outcome := func(o string) uint64 {
		return snap.Counters[metricRequests+`{endpoint="`+ep.name+`",outcome="`+o+`"}`]
	}
	return views{
		queries: snap.Counters[metricQueries], errors: snap.Counters[metricQueryErrors], canceled: snap.Counters[metricQueryCanceled],
		ok: outcome("ok"), failed: outcome("error"), aborted: outcome("canceled"), rejected: outcome("rejected"),
		seconds:         snap.Histograms[metricQuerySeconds].Count,
		endpointSeconds: snap.Histograms[metricQuerySeconds+`{endpoint="`+ep.name+`"}`].Count,
		logged:          qlog.Total(),
		spans:           tracer.Len(),
		fetches:         snap.Counters[metricReplFetches], fetchErrors: snap.Counters[metricReplErrors],
		admitted: snap.Counters["rdnsd_admission_admitted_total"], denied: snap.Counters["rdnsd_admission_denied_total"],
	}
}

func route(s *Server, name string) *endpoint {
	for _, ep := range s.routes {
		if ep.name == name {
			return ep
		}
	}
	return nil
}

// TestRouteTableContract ranges over every registered endpoint — query,
// admin and feed — and holds each to the front door they share: wrong
// method 405, ACL deny 403, unknown parameter 400, closed server 503, each
// as the v1 envelope, and each recorded exactly once in the views the
// endpoint's class feeds and in no other.
func TestRouteTableContract(t *testing.T) {
	build := func() (*Server, *telemetry.Registry, *telemetry.Tracer) {
		reg, tracer := telemetry.NewRegistry(), telemetry.NewTracer(1, 1024)
		path, st, _ := fixture(t, 4)
		srv := New(st, Config{
			Sink: reg, Tracer: tracer, Seed: 1,
			QueryLog:  NewQueryLog(QueryLogConfig{Size: 256}),
			Admission: AdmissionConfig{Deny: []dnswire.Prefix{dnswire.MustPrefix("203.0.113.0/24")}},
			Reopen:    func() (*histstore.Store, error) { return histstore.Open(path, histstore.WithReadOnly()) },
		})
		t.Cleanup(func() { srv.Close() })
		return srv, reg, tracer
	}
	open, openReg, openTracer := build()
	closed, closedReg, closedTracer := build()
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if len(open.routes) != 10 {
		t.Fatalf("route table has %d rows, want 10", len(open.routes))
	}

	for _, ep := range open.routes {
		other := http.MethodPost
		if ep.method == http.MethodPost {
			other = http.MethodGet
		}
		path := ep.pattern
		if strings.HasSuffix(path, "/") {
			path += "x"
		}
		cases := []struct {
			what, method, url, from string
			closed                  bool
			status                  int
			code, admission         string
		}{
			{"wrong method", other, path, "192.0.2.1:1", false, 405, rdnsclient.CodeMethodNotAllowed, ""},
			{"ACL deny", ep.method, path, "203.0.113.9:1", false, 403, rdnsclient.CodeForbidden, verdictDenied},
			{"unknown parameter", ep.method, path + "?frob=1", "192.0.2.1:1", false, 400, rdnsclient.CodeBadParam, verdictAdmitted},
			{"closed server", ep.method, path, "192.0.2.1:1", true, 503, rdnsclient.CodeOverloaded, verdictAdmitted},
		}
		for _, c := range cases {
			srv, reg, tracer := open, openReg, openTracer
			if c.closed {
				srv, reg, tracer = closed, closedReg, closedTracer
			}
			row := route(srv, ep.name) // the closed server has its own table
			before := readViews(reg, tracer, srv.qlog, row)
			req := httptest.NewRequest(c.method, c.url, nil)
			req.RemoteAddr = c.from
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			name := fmt.Sprintf("%s, %s", ep.name, c.what)
			if rec.Code != c.status || envelopeCode(t, rec) != c.code {
				t.Errorf("%s: %d %s, want %d %s", name, rec.Code, rec.Body, c.status, c.code)
				continue
			}

			want := before
			switch c.admission {
			case verdictAdmitted:
				want.admitted++
			case verdictDenied:
				want.denied++
			}
			if ep.class == classFeed {
				want.fetches++
				want.fetchErrors++
			} else {
				want.queries++
				want.errors++
				want.logged++
				if c.admission == verdictDenied {
					want.rejected++
				} else {
					want.failed++
				}
			}
			if ep.class == classQuery {
				want.seconds++
				want.endpointSeconds++
				want.spans++
			}
			if got := readViews(reg, tracer, srv.qlog, row); got != want {
				t.Errorf("%s: views\n got %+v\nwant %+v", name, got, want)
			}
			if ep.class == classFeed {
				continue
			}
			entries := srv.qlog.Snapshot()
			if e := entries[len(entries)-1]; e.Endpoint != ep.name || e.Status != c.status || e.Code != c.code || e.Admission != c.admission || e.Generation != -1 {
				t.Errorf("%s: logged %+v", name, e)
			}
		}
	}
	// The feed has no outcome family and no latency histogram of its own.
	for name := range openReg.Snapshot().Counters {
		if strings.Contains(name, `endpoint="repl_`) {
			t.Errorf("feed endpoint grew a labelled counter: %s", name)
		}
	}
}

// TestSlowLogAgreesWithHistogramTail: slow-log membership and the latency
// histograms read one duration, so with a threshold set the slow count
// equals the rdnsd_query_seconds observations above SlowBound — also for a
// request whose time goes into writing the response, after the handler.
func TestSlowLogAgreesWithHistogramTail(t *testing.T) {
	const threshold = 20 * time.Millisecond
	reg := telemetry.NewRegistry()
	qlog := NewQueryLog(QueryLogConfig{Size: 32, SlowThreshold: threshold})
	srv, _ := newTestServer(t, 4, Config{Sink: reg, QueryLog: qlog})
	// Two slow requests among the fast ones: one whose handler outlasts the
	// bound (a second row sharing the days endpoint's instruments), one
	// whose response writer does.
	slowDays := *route(srv, "days")
	slowDays.pattern = "/v1/slowdays"
	slowDays.handle = func(rq request) (reply, *apiError) {
		time.Sleep(threshold + 10*time.Millisecond)
		return handleDays(rq)
	}
	srv.routes = append(srv.routes, &slowDays)
	h := srv.Handler()

	for _, url := range []string{"/v1/days", "/v1/slowdays", "/v1/at?ip=10.0.1.7&t=2020-03-02", "/v1/at?ip=banana"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", url, nil))
	}
	h.ServeHTTP(&slowWriter{httptest.NewRecorder(), threshold + 10*time.Millisecond}, httptest.NewRequest("GET", "/v1/days", nil))

	hs := reg.Snapshot().Histograms[metricQuerySeconds]
	bound, tail := SlowBound(threshold.Seconds()), hs.Overflow
	for i, b := range hs.Buckets {
		if b > bound {
			tail += hs.Counts[i]
		}
	}
	// At least the two; a loaded host may push a fast one over as well,
	// and then both views must say so.
	if tail < 2 || qlog.SlowLen() != int(tail) {
		t.Fatalf("slow log holds %d, histogram tail above %.3fs holds %d, want both the same, at least 2", qlog.SlowLen(), bound, tail)
	}
}

// slowWriter delays the body write: time spent after the handler returned.
type slowWriter struct {
	*httptest.ResponseRecorder
	d time.Duration
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.d)
	return w.ResponseRecorder.Write(p)
}

// TestStatsDescribesOneGeneration: /v1/stats builds its store block from
// the handle the pipeline pinned, not from a second one, so a reload that
// lands while the handler runs cannot make the body's store block, its
// divergence block and the logged generation describe different stores.
func TestStatsDescribesOneGeneration(t *testing.T) {
	path, writer, times := fixture(t, 3)
	defer writer.Close()
	serving, err := histstore.Open(path, histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	qlog := NewQueryLog(QueryLogConfig{Size: 8})
	srv := New(serving, Config{QueryLog: qlog, Reopen: func() (*histstore.Store, error) {
		return histstore.Open(path, histstore.WithReadOnly())
	}})
	defer srv.Close()

	// The request pins generation 0; a day is appended and reloaded in
	// before its handler assembles the body.
	hd := srv.acquireHandle()
	defer hd.release()
	if err := writer.Append(times[len(times)-1].AddDate(0, 0, 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	rep, aerr := srv.handleStats(request{ctx: httptest.NewRequest("GET", "/v1/stats", nil).Context(), hd: hd})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if got := rep.body.(rdnsclient.StatsResponse).Store.Snapshots; got != 3 {
		t.Errorf("stats on the pinned generation reports %d snapshots, want its 3", got)
	}
	if got := srv.StatsSnapshot().Store.Snapshots; got != 4 {
		t.Errorf("StatsSnapshot reports %d snapshots, want the current generation's 4", got)
	}
}
