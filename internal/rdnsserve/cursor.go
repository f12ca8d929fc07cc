package rdnsserve

import (
	"encoding/base64"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"rdnsprivacy/internal/histstore"
)

// Pagination cursors are opaque base64 tokens that bind the resume point
// to a hash of the query parameters that produced it. The binding turns
// "cursor from a different query" — which would otherwise silently return
// wrong-window rows — into a clean invalid_cursor 400.

// cursorBind hashes the raw query parameters a cursor belongs to.
func cursorBind(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// encodeRangeCursor packs a histstore resume point plus the resolved
// upper snapshot instant (Unix seconds). Carrying the resolved "to"
// pins a defaulted window: without it, days appended between pages would
// widen the scan mid-pagination.
func encodeRangeCursor(bind uint64, cur histstore.RangeCursor, toUnix int64) string {
	raw := fmt.Sprintf("r1:%016x:%d:%d:%d:%d", bind, cur.Snap, cur.Block, cur.Octet, toUnix)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

func decodeRangeCursor(s string, bind uint64) (cur histstore.RangeCursor, toUnix int64, err *apiError) {
	f, ok := cursorFields(s, "r1", 6)
	if !ok {
		return cur, 0, errInvalidCursor()
	}
	gotBind, e1 := strconv.ParseUint(f[1], 16, 64)
	snap, e2 := strconv.Atoi(f[2])
	block, e3 := strconv.ParseUint(f[3], 10, 32)
	octet, e4 := strconv.Atoi(f[4])
	toUnix, e5 := strconv.ParseInt(f[5], 10, 64)
	cur = histstore.RangeCursor{Snap: snap, Block: uint32(block), Octet: octet}
	if errors.Join(e1, e2, e3, e4, e5) != nil || encodeRangeCursor(gotBind, cur, toUnix) != s {
		return histstore.RangeCursor{}, 0, errInvalidCursor()
	}
	if gotBind != bind {
		return cur, 0, errCursorMismatch()
	}
	if cur.Snap < 0 || cur.Octet < 0 || cur.Octet > 255 {
		return cur, 0, errInvalidCursor()
	}
	return cur, toUnix, nil
}

// cursorFields splits the decoded token s into its colon-separated
// fields, and reports whether there are n of them behind the tag kind.
// The caller parses the fields and accepts them only if they re-encode to
// s: the daemon mints one spelling per cursor, so a sign, a leading zero,
// an upper-case hex digit or trailing bytes make a token invalid, not a
// second name for the same position.
func cursorFields(s, kind string, n int) ([]string, bool) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, false
	}
	f := strings.Split(string(raw), ":")
	return f, len(f) == n && f[0] == kind
}

// encodeOffsetCursor packs a plain offset (used by /v1/name, whose
// postings list is a stable slice per index generation).
func encodeOffsetCursor(bind uint64, off int) string {
	raw := fmt.Sprintf("n1:%016x:%d", bind, off)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

func decodeOffsetCursor(s string, bind uint64) (int, *apiError) {
	f, ok := cursorFields(s, "n1", 3)
	if !ok {
		return 0, errInvalidCursor()
	}
	gotBind, e1 := strconv.ParseUint(f[1], 16, 64)
	off, e2 := strconv.Atoi(f[2])
	if errors.Join(e1, e2) != nil || encodeOffsetCursor(gotBind, off) != s {
		return 0, errInvalidCursor()
	}
	if gotBind != bind {
		return 0, errCursorMismatch()
	}
	if off < 0 {
		return 0, errInvalidCursor()
	}
	return off, nil
}
