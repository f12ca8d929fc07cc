package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"slices"
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsserve"
)

// fuzzPrimary builds one shared seeded primary (segments plus a live
// tail) for the fuzz targets. The store is only read during fuzzing.
func fuzzPrimary(f *testing.F) (*histstore.Store, *rdnsserve.Server) {
	f.Helper()
	dir := f.TempDir()
	st, err := histstore.Open(filepath.Join(dir, "primary"),
		histstore.WithCache(256), histstore.WithBaseInterval(4))
	if err != nil {
		f.Fatal(err)
	}
	appendDays(f, st, 0, 9, 2)
	if _, err := st.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
		f.Fatal(err)
	}
	appendDays(f, st, 9, 2, 2)
	srv := rdnsserve.New(st, rdnsserve.Config{Seed: 1})
	f.Cleanup(func() { srv.Close() })
	return st, srv
}

// FuzzReplManifest feeds the syncer arbitrary bytes as the primary's
// manifest response while the segment and tail endpoints stay real. The
// invariant: Sync either fails loudly, or commits a directory that opens
// cleanly and answers queries without panicking — never a half-committed
// or unopenable store.
func FuzzReplManifest(f *testing.F) {
	_, srv := fuzzPrimary(f)
	real := inprocTransport{srv.Handler()}

	fm, err := feedClient(real).ReplManifest(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	valid, err := jsonBytes(fm)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"base_interval":4,"writers":[{"id":"x","tail_file":"tail-x-0.log"}]}`))
	f.Add([]byte(`{"base_interval":4,"writers":[{"id":"x","tail_file":"../../evil","tail_size":64}]}`))
	f.Add([]byte(`{"base_interval":4,"writers":[{"id":"../x","tail_file":"tail-x-0.log","tail_size":64,"segments":[{"file":"..\\evil","size":64}]}]}`))
	f.Add([]byte(`not json`))
	// A second, well-formed writer beside the real one: a store holds one.
	two := fm
	second := fm.Writers[0]
	second.ID = "zulu"
	two.Writers = append(slices.Clone(fm.Writers), second)
	twoWriters, err := jsonBytes(two)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(twoWriters)

	f.Fuzz(func(t *testing.T, data []byte) {
		rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if req.URL.Path == "/v1/repl/manifest" {
				return jsonResponse(req, data), nil
			}
			return real.RoundTrip(req)
		})
		y, err := New(Config{Source: "http://primary.inproc", Dir: t.TempDir(), Client: feedClient(rt), Chunk: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := y.Sync(context.Background()); err != nil {
			return // a loud failure is the contract
		}
		st, err := y.Open()
		if err != nil {
			t.Fatalf("sync committed but the directory does not open: %v", err)
		}
		defer st.Close()
		times := st.Times()
		for _, tm := range times {
			// Queries must not panic; corrupt-data errors would be loud and
			// are acceptable, silent garbage is what the verifier prevents.
			st.At(dnswire.IPv4{10, 0, 1, 10}, tm)
		}
	})
}

// FuzzSegmentFetch flips one byte at a fuzzed position in every segment
// and tail response. The invariant: with a real flip the sync either
// fails loudly, or — if the flipped byte was re-fetched correctly on a
// later chunk — the committed replica answers bit-identically to the
// primary. A silently wrong replica fails the run.
func FuzzSegmentFetch(f *testing.F) {
	primary, srv := fuzzPrimary(f)
	real := inprocTransport{srv.Handler()}

	f.Add(uint32(0), byte(0))
	f.Add(uint32(17), byte(0x01))
	f.Add(uint32(4096), byte(0x80))
	f.Add(uint32(1<<20), byte(0xff))

	f.Fuzz(func(t *testing.T, pos uint32, xor byte) {
		rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
			resp, err := real.RoundTrip(req)
			if err != nil || resp.StatusCode != http.StatusOK || xor == 0 {
				return resp, err
			}
			path := req.URL.Path
			if !hasPrefix(path, "/v1/repl/segment/") && !hasPrefix(path, "/v1/repl/tail/") {
				return resp, err
			}
			body := readAll(t, resp)
			if len(body) > 0 {
				body[int(pos)%len(body)] ^= xor
			}
			resp.Body = newBody(body)
			return resp, nil
		})
		y, err := New(Config{Source: "http://primary.inproc", Dir: t.TempDir(), Client: feedClient(rt), Chunk: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := y.Sync(context.Background()); err != nil {
			return // corruption detected at sync time: the contract held
		}
		st, err := y.Open()
		if err != nil {
			t.Fatalf("sync committed but the directory does not open: %v", err)
		}
		defer st.Close()
		// The sync verified clean — so every answer must match the primary.
		compareStores(t, primary, st, 2)
	})
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

func jsonBytes(v any) ([]byte, error) { return json.Marshal(v) }

func jsonResponse(req *http.Request, data []byte) *http.Response {
	h := make(http.Header)
	h.Set("Content-Type", "application/json")
	return &http.Response{
		Status:        "200 OK",
		StatusCode:    http.StatusOK,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          newBody(bytes.Clone(data)),
		ContentLength: int64(len(data)),
		Request:       req,
	}
}
