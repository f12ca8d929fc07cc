package rdnsserve

// Replication feed endpoints: /v1/repl/manifest, /v1/repl/segment/{name},
// /v1/repl/tail/{writer}. A replica daemon (cmd/rdnsd -replica-of) pulls
// these to mirror the primary's histstore file set locally, then swaps
// generations through the same refcounted store-handle path hot reload
// uses. The three endpoints are the route table's classFeed rows (see
// pipeline.go): like the admin surface they are exempt from the per-client
// token bucket (a replica must be able to catch up on a primary that is
// busy shedding query traffic) but stay behind the ACL. See
// docs/replication.md for the protocol and failure matrix.

import (
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
)

// Replication feed metric names.
const (
	metricReplFetches = "rdnsd_repl_fetches_total"
	metricReplErrors  = "rdnsd_repl_errors_total"
	metricReplBytes   = "rdnsd_repl_bytes_total"
)

// maxReplChunk caps one feed read; larger requests are clamped, and
// replicas resume by offset.
const maxReplChunk = 1 << 20

// SetReplicaStatus attaches a replica daemon's lag report to /v1/stats:
// fn's result (nil while no sync has resolved yet) is embedded as the
// Replica field of every StatsSnapshot. Primaries leave it unset.
func (s *Server) SetReplicaStatus(fn func() *rdnsclient.ReplicaStats) {
	s.replStatus.Store(fn)
}

// replicaStatus returns the attached lag report, or nil.
func (s *Server) replicaStatus() *rdnsclient.ReplicaStats {
	if fn, ok := s.replStatus.Load().(func() *rdnsclient.ReplicaStats); ok && fn != nil {
		return fn()
	}
	return nil
}

// replError maps a feed failure onto the envelope vocabulary.
func replError(err error) *apiError {
	switch {
	case errors.Is(err, histstore.ErrFeedUnknownFile):
		return errNotFound(err.Error())
	case errors.Is(err, histstore.ErrFeedTailChanged):
		return &apiError{status: http.StatusConflict, code: rdnsclient.CodeReplChanged, msg: err.Error()}
	case errors.Is(err, histstore.ErrFeedBadRange):
		return errBadParam("%v", err)
	default:
		return errInternal(err)
	}
}

// replWindow parses the off/n feed window parameters.
func replWindow(q url.Values) (off int64, n int, aerr *apiError) {
	if v := q.Get("off"); v != "" {
		var err error
		if off, err = strconv.ParseInt(v, 10, 64); err != nil || off < 0 {
			return 0, 0, errBadParam("off: must be a non-negative integer: %q", v)
		}
	}
	n = maxReplChunk
	if v := q.Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n < 1 {
			return 0, 0, errBadParam("n: must be a positive integer: %q", v)
		}
		if n > maxReplChunk {
			n = maxReplChunk
		}
	}
	return off, n, nil
}

// replManifest is GET /v1/repl/manifest: the served store's replicable
// file set plus this daemon's generation and snapshot horizon.
func (s *Server) replManifest(rq request) (reply, *apiError) {
	fm, err := rq.hd.st.FeedManifest()
	if err != nil {
		return reply{}, replError(err)
	}
	return reply{body: rdnsclient.ReplManifest{Generation: s.gen.Load(), FeedManifest: fm}}, nil
}

// replSegment is GET /v1/repl/segment/{name}?off=&n=: one chunk of a
// sealed segment, X-Repl-Size carrying the total.
func replSegment(rq request) (reply, *apiError) {
	name := strings.TrimPrefix(rq.path, "/v1/repl/segment/")
	if name == "" || strings.Contains(name, "/") {
		return reply{}, errBadParam("segment name missing or malformed")
	}
	off, n, aerr := replWindow(rq.q)
	if aerr != nil {
		return reply{}, aerr
	}
	data, size, err := rq.hd.st.FeedReadSegment(name, off, n)
	if err != nil {
		return reply{}, replError(err)
	}
	rq.hdr.Set(rdnsclient.ReplSizeHeader, strconv.FormatInt(size, 10))
	return reply{raw: data}, nil
}

// replTail is GET /v1/repl/tail/{writer}?off=&n=&file=: one chunk of the
// writer's committed tail, X-Repl-Tail-* carrying the tail's identity.
// file pins the expected tail; 409 repl_changed when compaction swapped
// it (the identity headers then point at the successor).
func replTail(rq request) (reply, *apiError) {
	writer := strings.TrimPrefix(rq.path, "/v1/repl/tail/")
	if writer == "" || strings.Contains(writer, "/") {
		return reply{}, errBadParam("writer id missing or malformed")
	}
	off, n, aerr := replWindow(rq.q)
	if aerr != nil {
		return reply{}, aerr
	}
	data, info, err := rq.hd.st.FeedReadTail(writer, rq.q.Get("file"), off, n)
	rq.hdr.Set(rdnsclient.ReplTailFileHeader, info.File)
	rq.hdr.Set(rdnsclient.ReplTailFirstHeader, strconv.Itoa(info.First))
	rq.hdr.Set(rdnsclient.ReplTailSizeHeader, strconv.FormatInt(info.Size, 10))
	if err != nil {
		return reply{}, replError(err)
	}
	return reply{raw: data}, nil
}
