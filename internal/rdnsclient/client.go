package rdnsclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdnsprivacy/internal/telemetry"
)

// APIError is a non-2xx v1 response, carrying the envelope's code and
// message, the HTTP status, and any Retry-After hint.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rdnsd: %s (%d %s)", e.Message, e.Status, e.Code)
}

// IsRateLimited reports whether err is a 429 APIError.
func IsRateLimited(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == http.StatusTooManyRequests
}

// IsOverloaded reports whether err is a load-shedding 503 APIError.
func IsOverloaded(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == http.StatusServiceUnavailable
}

// CorrHeader is the wire header carrying a request's cross-process
// correlation ID (telemetry.CorrID, 16 hex digits). A client configured
// with WithTrace stamps it on every request; the daemon continues the
// span server-side under the same ID, so per-process trace dumps stitch
// back into one causal chain (obs.Stitch). See docs/observability.md.
const CorrHeader = "X-Rdns-Corr"

// The replication feed's headers. A segment chunk carries its segment's
// total size; a tail chunk, and a 409 repl_changed answer to a tail
// fetch, carry the identity of the writer's active tail
// (histstore.FeedTailInfo): its file name, first snapshot and committed
// size. See docs/replication.md.
const (
	ReplSizeHeader      = "X-Repl-Size"
	ReplTailFileHeader  = "X-Repl-Tail-File"
	ReplTailFirstHeader = "X-Repl-Tail-First"
	ReplTailSizeHeader  = "X-Repl-Tail-Size"
)

// RequestInfo describes one completed request (including failed ones)
// to a WithRequestHook observer.
type RequestInfo struct {
	// Corr is the correlation ID the request carried (0 without WithTrace).
	Corr uint64
	// Path is the endpoint path ("/v1/at").
	Path string
	// Attempts counts transmissions, 1 plus any 429/503 retries.
	Attempts int
	// Elapsed spans first transmission to final verdict.
	Elapsed time.Duration
	// Err is the final error, nil on success.
	Err error
}

// Client talks to one rdnsd's v1 API. Methods are safe for concurrent
// use; the zero value is not usable — construct with New.
type Client struct {
	base    string
	hc      *http.Client
	apiKey  string
	retries int           // extra attempts after a 429/503
	maxWait time.Duration // cap on one Retry-After sleep
	sleep   func(ctx context.Context, d time.Duration) error

	traceSeed int64
	traced    bool
	tracer    *telemetry.Tracer
	seq       atomic.Int64
	hook      func(RequestInfo)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// custom transports). cmd/rdnsload uses this to drive an in-process
// handler without sockets.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithAPIKey sends key as the X-API-Key header on every request — the
// identity the daemon's per-client rate limiter buckets on.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// WithRetries sets how many times a 429 or shedding 503 is retried
// (default 3), honoring the server's Retry-After capped at maxWait
// (default 5s; 0 keeps it). WithRetries(0, 0) surfaces every 429
// immediately — what a load generator measuring pushback wants.
func WithRetries(n int, maxWait time.Duration) Option {
	return func(c *Client) {
		c.retries = n
		if maxWait > 0 {
			c.maxWait = maxWait
		}
	}
}

// WithTrace enables cross-process correlation: every request carries an
// X-Rdns-Corr header derived deterministically from (seed, API key,
// path, request sequence) via telemetry.CorrID, and — when tr is non-nil
// — opens a "rdnsq.client" span under that ID recording each
// transmission attempt and the final status. The daemon continues the
// span server-side, so the two processes' trace dumps stitch into one
// chain. A nil tr still sends the header (correlate without tracing).
func WithTrace(seed int64, tr *telemetry.Tracer) Option {
	return func(c *Client) {
		c.traced = true
		c.traceSeed = seed
		c.tracer = tr
	}
}

// WithRequestHook calls hook after every completed request with its
// correlation ID, path, attempt count, elapsed time and final error —
// the tap cmd/rdnsload uses to feed latency exemplars. The hook runs on
// the requesting goroutine and must be safe for concurrent use.
func WithRequestHook(hook func(RequestInfo)) Option {
	return func(c *Client) { c.hook = hook }
}

// New creates a client for the daemon at base (e.g.
// "http://127.0.0.1:8077").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		retries: 3,
		maxWait: 5 * time.Second,
		sleep:   sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do issues one request and decodes a 200 into out, with the span and the
// hook of a traced client around it.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, out any) error {
	var corr uint64
	var span *telemetry.Span
	var start time.Time
	if c.traced {
		// The ID keys on the client identity and a per-client sequence, so
		// two requests to the same path stay distinguishable while a seeded
		// replay of the same request schedule reproduces the same IDs.
		corr = telemetry.CorrID(c.traceSeed, c.apiKey+" "+path, int(c.seq.Add(1)))
		span = c.tracer.StartSpanCorr("rdnsq.client", path, corr)
	}
	if c.traced || c.hook != nil {
		start = time.Now()
	}
	// The body is read into a pooled buffer: everything decoded out of it
	// is a copy, so nothing refers to it once decode returns.
	bp := bodyPool.Get().(*[]byte)
	body, _, attempts, err := c.roundTrip(ctx, method, path, q, corr, span, *bp)
	if err == nil && out != nil {
		if derr := decode(body, out); derr != nil {
			err = fmt.Errorf("rdnsclient: decoding %s: %w", path, derr)
		}
	}
	if cap(body) <= maxPooledBody {
		*bp = body
		bodyPool.Put(bp)
	}
	if span != nil {
		status := uint64(http.StatusOK)
		var ae *APIError
		if errors.As(err, &ae) {
			status = uint64(ae.Status)
		} else if err != nil {
			status = 0 // transport failure: no HTTP verdict
		}
		span.Event("status", status)
		span.End()
	}
	if c.hook != nil {
		c.hook(RequestInfo{Corr: corr, Path: path, Attempts: attempts, Elapsed: time.Since(start), Err: err})
	}
	return err
}

// roundTrip is the one request loop: it sends method path?q — with the API
// key, and corr as X-Rdns-Corr when non-zero — retries a 429 or 503 as the
// server's Retry-After asks, and returns the 200's body, read into buf,
// with its headers and the number of transmissions. Every other verdict is
// an *APIError.
func (c *Client) roundTrip(ctx context.Context, method, path string, q url.Values, corr uint64, span *telemetry.Span, buf []byte) (body []byte, hdr http.Header, attempts int, err error) {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	for {
		req, err := http.NewRequestWithContext(ctx, method, u, nil)
		if err != nil {
			return buf, nil, attempts, fmt.Errorf("rdnsclient: %w", err)
		}
		if c.apiKey != "" {
			req.Header.Set("X-API-Key", c.apiKey)
		}
		if corr != 0 {
			req.Header.Set(CorrHeader, telemetry.CorrHex(corr))
		}
		attempts++
		span.Event("tx", uint64(attempts))
		resp, err := c.hc.Do(req)
		if err != nil {
			return buf, nil, attempts, fmt.Errorf("rdnsclient: %s %s: %w", method, path, err)
		}
		buf, err = readBody(resp, path, buf)
		if err != nil {
			return buf, nil, attempts, err
		}
		if resp.StatusCode == http.StatusOK {
			return buf, resp.Header, attempts, nil
		}
		apiErr := decodeError(resp, buf)
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if !retryable || attempts > c.retries {
			return buf, nil, attempts, apiErr
		}
		wait := apiErr.RetryAfter
		if wait <= 0 {
			wait = 50 * time.Millisecond << (attempts - 1) // no hint: modest backoff
		}
		if wait > c.maxWait {
			wait = c.maxWait
		}
		if err := c.sleep(ctx, wait); err != nil {
			return buf, nil, attempts, err
		}
	}
}

// maxBody caps one response body. A daemon of ours pages its answers and
// caps a feed chunk at 1 MiB, so only a hostile or broken peer gets near it.
const maxBody = 16 << 20

// bodyPool recycles the buffers JSON bodies are read into; one that grew
// past maxPooledBody is dropped instead, so a single huge page does not
// stay resident.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// readBody reads resp's whole body into buf's storage — grown once, from
// Content-Length, when the server sent one — and closes it. A body over
// maxBody is an error, never a silently shortened page or feed chunk.
func readBody(resp *http.Response, path string, buf []byte) ([]byte, error) {
	defer resp.Body.Close()
	tooBig := func() error {
		return fmt.Errorf("rdnsclient: %s: response exceeds %d MiB", path, maxBody>>20)
	}
	if resp.ContentLength > maxBody {
		return buf, tooBig()
	}
	buf = buf[:0]
	// The declared length is a hint, trusted up to the largest body a daemon
	// of ours sends; past that the buffer grows as bytes actually arrive.
	// One byte beyond it lets a reader that reports EOF on its own, after
	// the last byte, do so without growing the buffer.
	need := 512
	if resp.ContentLength >= 0 {
		need = int(min(resp.ContentLength, maxPooledBody)) + 1
	}
	if need > cap(buf) {
		buf = make([]byte, 0, need)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxBody {
			return buf, tooBig()
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, fmt.Errorf("rdnsclient: reading %s: %w", path, err)
		}
	}
}

// decodeError turns a non-200 response into an *APIError, tolerating
// non-envelope bodies (proxies, panics).
func decodeError(resp *http.Response, body []byte) *APIError {
	ae := &APIError{Status: resp.StatusCode, Code: CodeInternal}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
	} else {
		ae.Message = strings.TrimSpace(string(body))
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// At asks /v1/at: the name ip held at instant t (zero t means "now").
func (c *Client) At(ctx context.Context, ip string, t time.Time) (AtResponse, error) {
	q := url.Values{"ip": {ip}}
	if !t.IsZero() {
		q.Set("t", t.UTC().Format(time.RFC3339))
	}
	var out AtResponse
	err := c.do(ctx, http.MethodGet, "/v1/at", q, &out)
	return out, err
}

// RangeQuery parameterizes /v1/range. Zero From/To default to the
// store's full history; Limit 0 uses the server default page size.
type RangeQuery struct {
	Prefix string
	From   time.Time
	To     time.Time
	Limit  int
}

func (q RangeQuery) values(cursor string) url.Values {
	v := url.Values{"prefix": {q.Prefix}}
	if !q.From.IsZero() {
		v.Set("from", q.From.UTC().Format(time.RFC3339))
	}
	if !q.To.IsZero() {
		v.Set("to", q.To.UTC().Format(time.RFC3339))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if cursor != "" {
		v.Set("cursor", cursor)
	}
	return v
}

// RangePage fetches one page of /v1/range, resuming at cursor ("" for the
// first page).
func (c *Client) RangePage(ctx context.Context, q RangeQuery, cursor string) (RangeResponse, error) {
	var out RangeResponse
	err := c.do(ctx, http.MethodGet, "/v1/range", q.values(cursor), &out)
	return out, err
}

// Range returns a pagination iterator over /v1/range:
//
//	it := c.Range(q)
//	for it.Next(ctx) { use(it.Page()) }
//	if err := it.Err(); err != nil { ... }
func (c *Client) Range(q RangeQuery) *RangeIter {
	return &RangeIter{c: c, q: q}
}

// RangeIter walks /v1/range pages. Next fetches the next page and reports
// whether one arrived; it returns false at the end of the scan or on the
// first error (check Err).
type RangeIter struct {
	c       *Client
	q       RangeQuery
	cursor  string
	page    RangeResponse
	err     error
	started bool
	done    bool
}

func (it *RangeIter) Next(ctx context.Context) bool {
	if it.done || it.err != nil {
		return false
	}
	page, err := it.c.RangePage(ctx, it.q, it.cursor)
	if err != nil {
		it.err = err
		return false
	}
	it.started = true
	it.page = page
	it.cursor = page.NextCursor
	if page.NextCursor == "" {
		it.done = true
	}
	return true
}

// Page returns the page the last successful Next fetched.
func (it *RangeIter) Page() RangeResponse { return it.page }

// Err returns the first error the iteration hit, if any.
func (it *RangeIter) Err() error { return it.err }

// RangeAll drains every page of a range scan into one slice — the
// convenience path for bounded answers; prefer the iterator for
// million-row prefixes.
func (c *Client) RangeAll(ctx context.Context, q RangeQuery) ([]RangeRow, error) {
	it := c.Range(q)
	var rows []RangeRow
	for it.Next(ctx) {
		rows = append(rows, it.Page().Rows...)
	}
	return rows, it.Err()
}

// Churn asks /v1/churn for prefix over [from, to] (zero instants default
// to full history).
func (c *Client) Churn(ctx context.Context, prefix string, from, to time.Time) (ChurnResponse, error) {
	q := url.Values{"prefix": {prefix}}
	if !from.IsZero() {
		q.Set("from", from.UTC().Format(time.RFC3339))
	}
	if !to.IsZero() {
		q.Set("to", to.UTC().Format(time.RFC3339))
	}
	var out ChurnResponse
	err := c.do(ctx, http.MethodGet, "/v1/churn", q, &out)
	return out, err
}

// NameQuery parameterizes /v1/name.
type NameQuery struct {
	Token string
	Limit int
}

// NamePage fetches one page of /v1/name postings.
func (c *Client) NamePage(ctx context.Context, q NameQuery, cursor string) (NameResponse, error) {
	v := url.Values{"token": {q.Token}}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if cursor != "" {
		v.Set("cursor", cursor)
	}
	var out NameResponse
	err := c.do(ctx, http.MethodGet, "/v1/name", v, &out)
	return out, err
}

// Name returns a pagination iterator over /v1/name postings.
func (c *Client) Name(q NameQuery) *NameIter {
	return &NameIter{c: c, q: q}
}

// NameIter walks /v1/name pages; same contract as RangeIter.
type NameIter struct {
	c      *Client
	q      NameQuery
	cursor string
	page   NameResponse
	err    error
	done   bool
}

func (it *NameIter) Next(ctx context.Context) bool {
	if it.done || it.err != nil {
		return false
	}
	page, err := it.c.NamePage(ctx, it.q, it.cursor)
	if err != nil {
		it.err = err
		return false
	}
	it.page = page
	it.cursor = page.NextCursor
	if page.NextCursor == "" {
		it.done = true
	}
	return true
}

func (it *NameIter) Page() NameResponse { return it.page }
func (it *NameIter) Err() error         { return it.err }

// NameAll drains every posting page for token.
func (c *Client) NameAll(ctx context.Context, token string) ([]NamePosting, error) {
	it := c.Name(NameQuery{Token: token})
	var out []NamePosting
	for it.Next(ctx) {
		out = append(out, it.Page().Postings...)
	}
	return out, it.Err()
}

// Days asks /v1/days.
func (c *Client) Days(ctx context.Context) (DaysResponse, error) {
	var out DaysResponse
	err := c.do(ctx, http.MethodGet, "/v1/days", nil, &out)
	return out, err
}

// Stats asks /v1/stats.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Reload POSTs /v1/admin/reload: swap the daemon onto a freshly opened
// store handle without dropping in-flight queries.
func (c *Client) Reload(ctx context.Context) (ReloadResponse, error) {
	var out ReloadResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/reload", nil, &out)
	return out, err
}
