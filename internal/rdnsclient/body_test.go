package rdnsclient

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"rdnsprivacy/internal/testutil"
)

// TestOversizedBodyIsAnError: a peer that sends more than the cap gets a
// loud error on both paths through the one body reader — never a JSON page
// cut short into "unexpected end of JSON input", and never a feed chunk
// handed to the replica short as if it were whole. Declared (the length is
// refused unread) and undeclared (the stream is cut at the cap).
func TestOversizedBodyIsAnError(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	pad := bytes.Repeat([]byte(" "), 1<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("declare") != "" || strings.HasSuffix(r.URL.Path, "/declared.seg") {
			w.Header().Set("Content-Length", strconv.Itoa(maxBody+1))
		}
		w.Header().Set("X-Repl-Size", strconv.Itoa(maxBody+1))
		for sent := 0; sent <= maxBody; sent += len(pad) {
			if _, err := w.Write(pad); err != nil {
				return // the client hung up at the cap, as it should
			}
		}
	}))
	defer ts.Close()
	c := New(ts.URL, WithRetries(0, 0))
	ctx := context.Background()

	for _, declare := range []string{"", "1"} {
		var out DaysResponse
		err := c.do(ctx, http.MethodGet, "/v1/days", map[string][]string{"declare": {declare}}, &out)
		if err == nil || err.Error() != "rdnsclient: /v1/days: response exceeds 16 MiB" {
			t.Errorf("JSON page over the cap (declared %q): %v", declare, err)
		}
	}
	for _, seg := range []string{"streamed.seg", "declared.seg"} {
		chunk, _, err := c.ReplSegment(ctx, seg, 0, 0)
		if err == nil || err.Error() != "rdnsclient: /v1/repl/segment/"+seg+": response exceeds 16 MiB" || chunk != nil {
			t.Errorf("feed chunk %s over the cap: %d bytes, %v", seg, len(chunk), err)
		}
	}
}

// TestReadBodySizing: the buffer is sized from Content-Length when there is
// one, grows when there is none or it understated, is reused when it is big
// enough, and never keeps what it held before.
func TestReadBodySizing(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 400) // 6400 B
	resp := func(body io.Reader, declared int64) *http.Response {
		return &http.Response{Body: io.NopCloser(body), ContentLength: declared}
	}
	// Declared: one allocation of the declared size, whether the reader
	// reports EOF with the last byte or after it.
	for name, r := range map[string]io.Reader{"eof after": bytes.NewReader(payload), "eof with": iotest.DataErrReader(bytes.NewReader(payload))} {
		got, err := readBody(resp(r, int64(len(payload))), "/p", nil)
		if err != nil || !bytes.Equal(got, payload) || cap(got) != len(payload)+1 {
			t.Errorf("declared, %s: %d bytes cap %d, %v", name, len(got), cap(got), err)
		}
	}
	// Undeclared, understated, and one byte at a time: all of it arrives.
	for name, r := range map[string]*http.Response{
		"undeclared":  resp(bytes.NewReader(payload), -1),
		"understated": resp(bytes.NewReader(payload), 10),
		"dribbled":    resp(iotest.OneByteReader(bytes.NewReader(payload)), -1),
	} {
		if got, err := readBody(r, "/p", nil); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%s: %d bytes, %v", name, len(got), err)
		}
	}
	// A buffer with room is the one returned, its old content gone.
	old := append(make([]byte, 0, 8192), "stale stale stale"...)
	got, err := readBody(resp(bytes.NewReader(payload[:100]), 100), "/p", old)
	if err != nil || !bytes.Equal(got, payload[:100]) || &got[0] != &old[0] {
		t.Errorf("reuse: %d bytes, same storage %v, %v", len(got), &got[0] == &old[0], err)
	}
	// A read error is reported with the path, not swallowed into a short body.
	_, err = readBody(resp(iotest.TimeoutReader(iotest.OneByteReader(bytes.NewReader(payload))), -1), "/v1/at", nil)
	if err == nil || !strings.HasPrefix(err.Error(), "rdnsclient: reading /v1/at: ") {
		t.Errorf("read error: %v", err)
	}
}
