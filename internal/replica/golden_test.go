package replica

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/testutil"
)

// goldenV1Digest is the SHA-256 over every response body of the fixed
// query script below against the fixed store below, recorded at the commit
// before histstore's reads moved onto the forward block walk. Bodies carry
// the rows, the churn counts and the opaque range cursors, so a change in
// any answer or any resume point changes the digest.
const goldenV1Digest = "680d0804efc0883a0e86514ec1e9d9e22b4ce6d6ecd47947e64ea90be7030c59"

// goldenRecords is day's record set of the golden store: three /24s in
// 10.0.0.0/16 whose addresses come and go on a three-day beat and rename
// on a five-day beat, with the third block entirely dark on days 8-14.
func goldenRecords(day int) scanengine.RecordSet {
	mix := func(a, b, c int) uint32 {
		h := uint32(a)*2654435761 ^ uint32(b)*40503 ^ uint32(c)*2246822519
		h ^= h >> 15
		h *= 2654435761
		return h ^ h>>13
	}
	recs := scanengine.RecordSet{}
	for b := 0; b < 3; b++ {
		if b == 2 && day >= 8 && day <= 14 {
			continue
		}
		for o := 0; o < 48; o++ {
			if mix(day/3, b, o)%3 == 0 {
				continue
			}
			name := fmt.Sprintf("host-%d.dyn.example.net", mix(day/5, b, o)%50)
			if o%16 == 3 {
				name = "brians-iphone.lan.example.net"
			}
			recs[dnswire.IPv4{10, 0, byte(b + 1), byte(o * 5)}] = dnswire.MustName(name)
		}
	}
	return recs
}

// goldenScript runs the fixed query script through h, following every
// range cursor to the end, and returns the digest of the bodies.
func goldenScript(t *testing.T, h http.Handler) string {
	t.Helper()
	sum := sha256.New()
	get := func(path string, q url.Values) []byte {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path+"?"+q.Encode(), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s?%s: %d %s", path, q.Encode(), rec.Code, rec.Body)
		}
		fmt.Fprintf(sum, "%s?%s\n", path, q.Encode())
		sum.Write(rec.Body.Bytes())
		return rec.Body.Bytes()
	}
	day := func(d int) string { return campaignStart.AddDate(0, 0, d).Format(time.RFC3339) }

	for d := 0; d < 30; d += 3 {
		for _, ip := range []string{"10.0.1.15", "10.0.2.0", "10.0.3.235", "10.0.3.100", "10.0.9.1"} {
			get("/v1/at", url.Values{"ip": {ip}, "t": {day(d)}})
		}
	}
	windows := []struct {
		prefix   string
		from, to int
		limit    string
	}{
		{"10.0.0.0/16", 0, 29, "1000"},
		{"10.0.0.0/16", 5, 17, "7"},
		{"10.0.3.0/24", 6, 16, "7"},
		{"10.0.2.0/24", 9, 26, "1000"},
		{"10.0.1.64/26", 0, 29, "1"},
		{"10.0.3.128/25", 12, 24, "13"},
	}
	for _, w := range windows {
		q := url.Values{"prefix": {w.prefix}, "from": {day(w.from)}, "to": {day(w.to)}}
		get("/v1/churn", q)
		q.Set("limit", w.limit)
		for {
			var page struct {
				NextCursor string `json:"next_cursor"`
			}
			if err := json.Unmarshal(get("/v1/range", q), &page); err != nil {
				t.Fatal(err)
			}
			if page.NextCursor == "" {
				break
			}
			q.Set("cursor", page.NextCursor)
		}
	}
	for _, token := range []string{"brian", "iphone", "host", "nobody"} {
		get("/v1/name", url.Values{"token": {token}})
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestGoldenV1ResponseBytes pins the serving surface byte for byte: a
// primary over a fixed 30-day store (sealed into segments at days 10 and
// 20) and a replica synced from it must both answer the fixed script with
// exactly the bytes — rows, counts and cursors — the recording commit did.
func TestGoldenV1ResponseBytes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	primary, err := histstore.Open(filepath.Join(dir, "primary"), histstore.WithCache(64), histstore.WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 30; d++ {
		if err := primary.Append(campaignStart.AddDate(0, 0, d), goldenRecords(d)); err != nil {
			t.Fatalf("append day %d: %v", d, err)
		}
		if d == 10 || d == 20 {
			if _, err := primary.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
				t.Fatalf("compact at day %d: %v", d, err)
			}
		}
	}
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()
	if got := goldenScript(t, srv.Handler()); got != goldenV1Digest {
		t.Fatalf("primary responses drifted: digest %s, recorded %s", got, goldenV1Digest)
	}

	y, err := New(Config{
		Source: "http://primary.inproc",
		Dir:    filepath.Join(dir, "replica"),
		Client: feedClient(inprocTransport{srv.Handler()}),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSync(t, y)
	rsrv := rdnsserve.New(openReplica(t, y), rdnsserve.Config{Seed: 1})
	defer rsrv.Close()
	if got := goldenScript(t, rsrv.Handler()); got != goldenV1Digest {
		t.Fatalf("replica responses drifted: digest %s, recorded %s", got, goldenV1Digest)
	}
}
