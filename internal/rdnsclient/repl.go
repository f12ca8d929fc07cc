package rdnsclient

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"rdnsprivacy/internal/histstore"
)

// Replication feed wire contract (see docs/replication.md). A primary
// exposes its histstore file set under /v1/repl/*; replicas pull sealed
// segments once (resumable range fetches, content-addressed by trailer
// CRC), tail deltas incrementally, and commit generations locally. The
// manifest and the tail identity are histstore's FeedManifest and
// FeedTailInfo, the documents the store produces about its own file set;
// the envelope adds the serving generation, and the headers carrying a
// chunk's identity are the constants beside CorrHeader.

// ReplManifest is GET /v1/repl/manifest: the primary's serving
// generation, then the store's replicable file set and snapshot horizon,
// so replicas can report lag.
type ReplManifest struct {
	Generation int64 `json:"generation"`
	histstore.FeedManifest
}

// ReplicaStats is a replica daemon's lag report inside /v1/stats: how
// far behind the primary it is, in snapshots and bytes, plus cumulative
// sync counters. Zero BytesBehind with non-zero Syncs means caught up as
// of LastSync.
type ReplicaStats struct {
	Source          string    `json:"source"`
	LastSnap        time.Time `json:"last_snap,omitzero"`
	LastSync        time.Time `json:"last_sync,omitzero"`
	BytesBehind     int64     `json:"bytes_behind"`
	SnapshotsBehind int       `json:"snapshots_behind"`
	Syncs           uint64    `json:"syncs"`
	SyncErrors      uint64    `json:"sync_errors"`
	SegmentsFetched uint64    `json:"segments_fetched"`
	BytesFetched    int64     `json:"bytes_fetched"`
}

// ReplManifest asks GET /v1/repl/manifest.
func (c *Client) ReplManifest(ctx context.Context) (ReplManifest, error) {
	var out ReplManifest
	err := c.do(ctx, http.MethodGet, "/v1/repl/manifest", nil, &out)
	return out, err
}

// ReplSegment fetches up to n bytes of a sealed segment starting at off
// (n <= 0 lets the server pick its chunk cap), returning the chunk and
// the segment's total size. Segments are immutable: any window is
// stable, so interrupted downloads resume by offset.
func (c *Client) ReplSegment(ctx context.Context, name string, off int64, n int) ([]byte, int64, error) {
	q := url.Values{"off": {strconv.FormatInt(off, 10)}}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	body, hdr, err := c.doRaw(ctx, "/v1/repl/segment/"+url.PathEscape(name), q)
	if err != nil {
		return nil, 0, err
	}
	size, err := strconv.ParseInt(hdr.Get(ReplSizeHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("rdnsclient: repl segment %q: bad %s %q", name, ReplSizeHeader, hdr.Get(ReplSizeHeader))
	}
	return body, size, nil
}

// ReplTail fetches up to n bytes of writer's committed tail starting at
// off, plus the tail's identity. A non-empty file pins the expected tail
// file name: if compaction has since started a fresh tail the server
// answers 409 repl_changed (surfaced as *APIError) and the replica must
// refetch the manifest. off == committed size returns an empty chunk.
func (c *Client) ReplTail(ctx context.Context, writer, file string, off int64, n int) ([]byte, histstore.FeedTailInfo, error) {
	q := url.Values{"off": {strconv.FormatInt(off, 10)}}
	if file != "" {
		q.Set("file", file)
	}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	var info histstore.FeedTailInfo
	body, hdr, err := c.doRaw(ctx, "/v1/repl/tail/"+url.PathEscape(writer), q)
	if err != nil {
		return nil, info, err
	}
	info.File = hdr.Get(ReplTailFileHeader)
	if info.First, err = strconv.Atoi(hdr.Get(ReplTailFirstHeader)); err != nil {
		return nil, info, fmt.Errorf("rdnsclient: repl tail %q: bad %s %q", writer, ReplTailFirstHeader, hdr.Get(ReplTailFirstHeader))
	}
	if info.Size, err = strconv.ParseInt(hdr.Get(ReplTailSizeHeader), 10, 64); err != nil {
		return nil, info, fmt.Errorf("rdnsclient: repl tail %q: bad %s %q", writer, ReplTailSizeHeader, hdr.Get(ReplTailSizeHeader))
	}
	return body, info, nil
}

// doRaw GETs one binary feed payload. The chunk is the caller's to keep, so
// it is read into a buffer of its own rather than a pooled one.
func (c *Client) doRaw(ctx context.Context, path string, q url.Values) ([]byte, http.Header, error) {
	body, hdr, _, err := c.roundTrip(ctx, http.MethodGet, path, q, 0, nil, nil)
	return body, hdr, err
}
