package rdnsclient

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Replication feed wire contract (see docs/replication.md). A primary
// exposes its histstore file set under /v1/repl/*; replicas pull sealed
// segments once (resumable range fetches, content-addressed by trailer
// CRC), tail deltas incrementally, and commit generations locally. The
// feed types mirror histstore's FeedManifest — defined here, like every
// other wire type, so the contract cannot drift between the two sides.

// ReplSegment is one sealed segment in a replication manifest. CRC is
// the segment trailer's footer CRC: the content address a replica
// verifies its download against before committing.
type ReplSegment struct {
	File  string `json:"file"`
	First int    `json:"first"`
	Count int    `json:"count"`
	Size  int64  `json:"size"`
	CRC   uint32 `json:"crc"`
}

// ReplWriter is one writer's share of a replication manifest. TailSize
// counts the committed bytes of the active tail; the feed never serves
// past it.
type ReplWriter struct {
	ID        string        `json:"id"`
	FileSeq   int           `json:"file_seq"`
	TailFile  string        `json:"tail_file"`
	TailFirst int           `json:"tail_first"`
	TailSize  int64         `json:"tail_size"`
	Segments  []ReplSegment `json:"segments,omitempty"`
}

// ReplManifest is GET /v1/repl/manifest: a self-consistent point-in-time
// description of the primary's replicable file set, plus the primary's
// serving generation and snapshot horizon so replicas can report lag.
type ReplManifest struct {
	Generation   int64        `json:"generation"`
	BaseInterval int          `json:"base_interval"`
	Snapshots    int          `json:"snapshots"`
	LastSnap     time.Time    `json:"last_snap,omitzero"`
	TotalBytes   int64        `json:"total_bytes"`
	Writers      []ReplWriter `json:"writers"`
}

// ReplTailInfo is the tail identity a /v1/repl/tail response carries in
// its X-Repl-Tail-* headers: which file the writer is appending to, its
// first writer-local snapshot, and the committed size.
type ReplTailInfo struct {
	File  string
	First int
	Size  int64
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
	size, err := strconv.ParseInt(hdr.Get("X-Repl-Size"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("rdnsclient: repl segment %q: bad X-Repl-Size %q", name, hdr.Get("X-Repl-Size"))
	}
	return body, size, nil
}

// ReplTail fetches up to n bytes of writer's committed tail starting at
// off, plus the tail's identity. A non-empty file pins the expected tail
// file name: if compaction has since started a fresh tail the server
// answers 409 repl_changed (surfaced as *APIError) and the replica must
// refetch the manifest. off == committed size returns an empty chunk.
func (c *Client) ReplTail(ctx context.Context, writer, file string, off int64, n int) ([]byte, ReplTailInfo, error) {
	q := url.Values{"off": {strconv.FormatInt(off, 10)}}
	if file != "" {
		q.Set("file", file)
	}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	var info ReplTailInfo
	body, hdr, err := c.doRaw(ctx, "/v1/repl/tail/"+url.PathEscape(writer), q)
	if err != nil {
		return nil, info, err
	}
	info.File = hdr.Get("X-Repl-Tail-File")
	if info.First, err = strconv.Atoi(hdr.Get("X-Repl-Tail-First")); err != nil {
		return nil, info, fmt.Errorf("rdnsclient: repl tail %q: bad X-Repl-Tail-First %q", writer, hdr.Get("X-Repl-Tail-First"))
	}
	if info.Size, err = strconv.ParseInt(hdr.Get("X-Repl-Tail-Size"), 10, 64); err != nil {
		return nil, info, fmt.Errorf("rdnsclient: repl tail %q: bad X-Repl-Tail-Size %q", writer, hdr.Get("X-Repl-Tail-Size"))
	}
	return body, info, nil
}

// doRaw GETs one binary feed payload. The chunk is the caller's to keep, so
// it is read into a buffer of its own rather than a pooled one.
func (c *Client) doRaw(ctx context.Context, path string, q url.Values) ([]byte, http.Header, error) {
	body, hdr, _, err := c.roundTrip(ctx, http.MethodGet, path, q, 0, nil, nil)
	return body, hdr, err
}
