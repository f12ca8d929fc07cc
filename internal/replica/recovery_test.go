package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/testutil"
)

// recoveryFixture: a synced replica directory plus a fresh-Syncer
// factory modeling a process restart (no in-memory verified-file state).
func recoveryFixture(t *testing.T) (primary *histstore.Store, dir string, fresh func() *Syncer) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	root := t.TempDir()
	primary = seedPrimary(t, filepath.Join(root, "primary"), 9, 2)
	if _, err := primary.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	appendDays(t, primary, 9, 3, 2)
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	t.Cleanup(func() { srv.Close() })
	dir = filepath.Join(root, "replica")
	fresh = func() *Syncer {
		y, err := New(Config{Source: "http://primary.inproc", Dir: dir,
			Client: feedClient(inprocTransport{srv.Handler()}), Chunk: 512})
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	mustSync(t, fresh())
	return primary, dir, fresh
}

// corruptLocal flips one byte in a replica-local file.
func corruptLocal(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func localFeedFiles(t *testing.T, y *Syncer) (segment, tail string) {
	t.Helper()
	m, err := y.c.ReplManifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w := m.Writers[0]
	return filepath.Join(y.dir, w.Segments[0].File), filepath.Join(y.dir, w.TailFile)
}

// TestRecoveryDamagedSegment: a restarted replica whose local segment
// rotted on disk (right size, wrong bytes) detects the damage against
// the content address and refetches — converging instead of serving
// garbage or failing forever.
func TestRecoveryDamagedSegment(t *testing.T) {
	primary, _, fresh := recoveryFixture(t)
	y := fresh()
	seg, _ := localFeedFiles(t, y)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	corruptLocal(t, seg, fi.Size()/2)

	mustSync(t, y)
	rep := openReplica(t, y)
	defer rep.Close()
	compareStores(t, primary, rep, 2)
	if st := y.Status(); st.SegmentsFetched == 0 {
		t.Fatalf("damaged segment was not refetched: %+v", st)
	}
}

// TestRecoveryTruncatedSegment: a local segment shorter than the
// manifest (torn by a crashed disk) is likewise refetched whole.
func TestRecoveryTruncatedSegment(t *testing.T) {
	primary, _, fresh := recoveryFixture(t)
	y := fresh()
	seg, _ := localFeedFiles(t, y)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	mustSync(t, y)
	rep := openReplica(t, y)
	defer rep.Close()
	compareStores(t, primary, rep, 2)
}

// TestRecoveryCorruptTailAtRest: a restarted replica that is caught up
// byte-wise re-proves its local tail before trusting it; rot is dropped
// and repulled on the next sync.
func TestRecoveryCorruptTailAtRest(t *testing.T) {
	primary, _, fresh := recoveryFixture(t)
	y := fresh()
	_, tail := localFeedFiles(t, y)
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	corruptLocal(t, tail, fi.Size()-3)

	if _, err := y.Sync(context.Background()); err == nil {
		t.Fatal("corrupt local tail synced silently")
	}
	if _, err := os.Stat(tail); !os.IsNotExist(err) {
		t.Fatal("corrupt tail not dropped for repull")
	}
	mustSync(t, y)
	rep := openReplica(t, y)
	defer rep.Close()
	compareStores(t, primary, rep, 2)
}

// TestRecoveryOversizedPart: a stale .part stage larger than the
// manifest's segment (a superseded fetch) is discarded, not resumed
// past the end.
func TestRecoveryOversizedPart(t *testing.T) {
	primary, dir, fresh := recoveryFixture(t)
	y := fresh()
	seg, _ := localFeedFiles(t, y)
	if err := os.Remove(seg); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 1<<20)
	part := seg + ".part"
	if err := os.WriteFile(part, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	mustSync(t, y)
	rep := openReplica(t, y)
	defer rep.Close()
	compareStores(t, primary, rep, 2)
	if _, err := os.Stat(part); !os.IsNotExist(err) {
		t.Fatalf("stale .part survived in %s", dir)
	}
}

// TestRecoveryLocalTailAhead: a local tail longer than the manifest's
// committed size means the replica is tracking a store the primary has
// since rebuilt — an errChanged-class condition that must surface
// loudly rather than commit a manifest pointing inside the local file.
func TestRecoveryLocalTailAhead(t *testing.T) {
	_, _, fresh := recoveryFixture(t)
	y := fresh()
	_, tail := localFeedFiles(t, y)
	f, err := os.OpenFile(tail, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := y.Sync(context.Background()); err == nil {
		t.Fatal("over-long local tail synced silently")
	} else if st := y.Status(); st.SyncErrors == 0 {
		t.Fatalf("sync error not accounted: %+v", st)
	}
}

// TestSyncFeedMisbehavior: a feed that errors mid-pull, over-serves a
// window, or advertises a wrong content address is a loud sync error —
// the previous committed generation stays intact and serving.
func TestSyncFeedMisbehavior(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	root := t.TempDir()
	primary := seedPrimary(t, filepath.Join(root, "primary"), 9, 2)
	if _, err := primary.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	appendDays(t, primary, 9, 2, 2)
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()
	real := inprocTransport{srv.Handler()}

	isSegment := func(req *http.Request) bool {
		return len(req.URL.Path) > len("/v1/repl/segment/") && req.URL.Path[:len("/v1/repl/segment/")] == "/v1/repl/segment/"
	}
	lyingManifest := func(mutate func(*rdnsclient.ReplManifest)) roundTripFunc {
		return func(req *http.Request) (*http.Response, error) {
			resp, err := real.RoundTrip(req)
			if err == nil && req.URL.Path == "/v1/repl/manifest" {
				var fm rdnsclient.ReplManifest
				if jerr := json.Unmarshal(readAll(t, resp), &fm); jerr != nil {
					t.Fatal(jerr)
				}
				mutate(&fm)
				mangled, _ := json.Marshal(fm)
				resp.Body = newBody(mangled)
			}
			return resp, err
		}
	}
	cases := []struct {
		name string
		rt   roundTripFunc
	}{
		{"segment fetch errors", func(req *http.Request) (*http.Response, error) {
			if isSegment(req) {
				return nil, errors.New("connection reset by peer")
			}
			return real.RoundTrip(req)
		}},
		{"segment over-served", func(req *http.Request) (*http.Response, error) {
			resp, err := real.RoundTrip(req)
			if err == nil && resp.StatusCode == 200 && isSegment(req) {
				body := readAll(t, resp)
				resp.Body = newBody(append(body, make([]byte, 64)...))
			}
			return resp, err
		}},
		{"manifest lies about crc", lyingManifest(func(fm *rdnsclient.ReplManifest) { fm.Writers[0].Segments[0].CRC ^= 0xffffffff })},
		// Every file verifies; the commit refuses the manifest itself.
		{"manifest has no base interval", lyingManifest(func(fm *rdnsclient.ReplManifest) { fm.BaseInterval = 0 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			y, err := New(Config{Source: "http://primary.inproc", Dir: filepath.Join(t.TempDir(), "rep"),
				Client: feedClient(tc.rt), Chunk: 512})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := y.Sync(context.Background()); err == nil {
				t.Fatal("misbehaving feed synced silently")
			}
			if y.Synced() {
				t.Fatal("failed sync marked the replica synced")
			}
			if _, err := y.Open(); err == nil {
				t.Fatal("nothing was committed, yet the directory opens")
			}
		})
	}
}

// TestCleanupSupersededTail: after the primary compacts its tail away,
// the replica's next sync removes the superseded local tail file.
func TestCleanupSupersededTail(t *testing.T) {
	primary, _, fresh := recoveryFixture(t)
	y := fresh()
	_, oldTail := localFeedFiles(t, y)

	if _, err := primary.Compact(context.Background(), histstore.CompactOptions{MinSeal: 1}); err != nil {
		t.Fatal(err)
	}
	appendDays(t, primary, 12, 1, 2)
	mustSync(t, y)
	if _, err := os.Stat(oldTail); !os.IsNotExist(err) {
		t.Fatalf("superseded tail %s survived cleanup", oldTail)
	}
	rep := openReplica(t, y)
	defer rep.Close()
	compareStores(t, primary, rep, 2)
}

// renumberSnapshotHeaders rewrites the segment at path in place so that
// every snapshot header after the first claims the index one ahead of its
// own, with the frame's CRC recomputed. Sizes, the footer and its CRC —
// the segment's content address — are untouched: this is a file a lying
// or damaged primary can serve under a manifest that looks right.
func renumberSnapshotHeaders(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// magic, header length, header, header CRC; then frames up to the
	// footer offset the 20-byte trailer opens with.
	hdrLen, n := binary.Uvarint(data[8:])
	at := 8 + n + int(hdrLen) + 4
	end := int(binary.LittleEndian.Uint64(data[len(data)-20:]))
	headers := 0
	for at < end {
		kind := data[at]
		bodyLen, n := binary.Uvarint(data[at+1:])
		body := data[at+1+n : at+1+n+int(bodyLen)]
		if kind == 'S' {
			if headers++; headers > 1 {
				if body[0] >= 0x7f {
					t.Fatalf("snapshot index %d does not fit the one byte this helper edits", body[0])
				}
				body[0]++
				crc := crc32.Update(crc32.ChecksumIEEE([]byte{kind}), crc32.IEEETable, body)
				binary.LittleEndian.PutUint32(data[at+1+n+len(body):], crc)
			}
		}
		at += 1 + n + len(body) + 4
	}
	if headers < 2 {
		t.Fatalf("segment %s holds %d snapshot headers, need two to renumber", path, headers)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLyingSegmentDoesNotCommit: a fetched segment whose frames all pass
// their CRCs and whose content address matches the manifest, but whose
// snapshot headers do not count up from its first snapshot, is refused at
// the fetch. The local manifest stays on the last good generation, which
// still opens — not advanced to one the replica's next Open would reject.
func TestLyingSegmentDoesNotCommit(t *testing.T) {
	primary, dir, fresh := recoveryFixture(t)
	y := fresh()
	committed, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := primary.Compact(context.Background(), histstore.CompactOptions{MinSeal: 1}); err != nil {
		t.Fatal(err)
	}
	appendDays(t, primary, 12, 1, 2)
	m, err := y.c.ReplManifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sealed := m.Writers[0].Segments[1].File
	// FeedReadSegment serves the file's bytes as they are now.
	renumberSnapshotHeaders(t, filepath.Join(filepath.Dir(dir), "primary", sealed))

	if changed, err := y.Sync(context.Background()); err == nil {
		t.Fatalf("synced a segment with renumbered snapshot headers (changed=%v)", changed)
	}
	if now, err := os.ReadFile(filepath.Join(dir, "MANIFEST")); err != nil || !bytes.Equal(now, committed) {
		t.Fatalf("local manifest advanced past the refused segment (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, sealed)); !os.IsNotExist(err) {
		t.Fatalf("refused segment %s was kept: %v", sealed, err)
	}
	rep := openReplica(t, y)
	defer rep.Close()
	if got := rep.Len(); got != 12 {
		t.Fatalf("replica serves %d snapshots from its last good generation, want 12", got)
	}
}

// copyStore copies the regular files of a closed store directory: the
// older copy of a primary that a restore from backup would serve.
func copyStore(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaNeverMovesBackwards: a replica synced from a primary must
// refuse a feed that does not follow it — from an older copy of that
// primary, taken before its last compaction (the writer's file_seq went
// down), or from another writer's store. Either is a loud sync error
// before anything is fetched: the directory holds exactly the previous
// generation's files, which stay committed and served.
func TestReplicaNeverMovesBackwards(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cases := []struct {
		name string
		// build grows the primary at dir, copying it to old on the way.
		build func(t *testing.T, dir, old string)
	}{
		{"copy before the last compaction", func(t *testing.T, dir, old string) {
			st := seedPrimary(t, dir, 10, 2)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			copyStore(t, dir, old)
			st, err := histstore.Open(dir, histstore.WithBaseInterval(4))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			appendDays(t, st, 10, 4, 2)
			if _, err := st.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
				t.Fatal(err)
			}
			appendDays(t, st, 14, 3, 2)
		}},
		{"another writer's store", func(t *testing.T, dir, old string) {
			for _, w := range []struct{ id, dir string }{{"alpha", old}, {"bravo", dir}} {
				st, err := histstore.Open(w.dir, histstore.WithWriter(w.id), histstore.WithBaseInterval(4))
				if err != nil {
					t.Fatal(err)
				}
				appendDays(t, st, 0, 6, 2)
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir, old := filepath.Join(root, "primary"), filepath.Join(root, "old")
			tc.build(t, dir, old)
			serve := func(path string) http.Handler {
				st, err := histstore.Open(path, histstore.WithReadOnly())
				if err != nil {
					t.Fatal(err)
				}
				srv := rdnsserve.New(st, rdnsserve.Config{Seed: 1})
				t.Cleanup(func() { srv.Close() })
				return srv.Handler()
			}
			current := serve(dir)
			primary := current
			y, err := New(Config{Source: "http://primary.inproc", Dir: filepath.Join(root, "replica"),
				Client: feedClient(roundTripFunc(func(r *http.Request) (*http.Response, error) {
					return inprocTransport{primary}.RoundTrip(r)
				}))})
			if err != nil {
				t.Fatal(err)
			}
			mustSync(t, y)
			committed, err := os.ReadFile(filepath.Join(root, "replica", "MANIFEST"))
			if err != nil {
				t.Fatal(err)
			}
			good, err := testutil.DirDigest(filepath.Join(root, "replica"))
			if err != nil {
				t.Fatal(err)
			}

			primary = serve(old)
			if _, err := y.Sync(context.Background()); err == nil {
				t.Fatal("sync from an older copy of the primary succeeded")
			} else {
				t.Logf("refused: %v", err)
			}
			if st := y.Status(); st == nil || st.SyncErrors != 1 {
				t.Fatalf("status after the refused sync: %+v, want one sync error", st)
			}
			now, err := os.ReadFile(filepath.Join(root, "replica", "MANIFEST"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(now, committed) {
				t.Fatal("the refused sync rewrote the committed manifest")
			}
			if got, err := testutil.DirDigest(filepath.Join(root, "replica")); err != nil || !maps.Equal(got, good) {
				t.Fatalf("the refused sync left the directory at %v, want the last good generation's %v", got, good)
			}
			want, err := histstore.Open(dir, histstore.WithReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			defer want.Close()
			rep := openReplica(t, y)
			defer rep.Close()
			compareStores(t, want, rep, 2)

			primary = current
			mustSync(t, y)
		})
	}
}

// TestCleanupStaleSegmentStage: a .part stage left beside a segment that
// is already final and verified (a crash between the rename and the
// cleanup, or a second process's abandoned pull) is removed by the next
// sync, and the replica still answers like its primary.
func TestCleanupStaleSegmentStage(t *testing.T) {
	primary, dir, fresh := recoveryFixture(t)
	y := fresh()
	mustSync(t, y)
	seg, _ := localFeedFiles(t, y)
	if err := os.WriteFile(seg+".part", []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustSync(t, y)
	if _, err := os.Stat(seg + ".part"); !os.IsNotExist(err) {
		t.Fatalf("stale stage %s.part survived cleanup (stat: %v)", filepath.Base(seg), err)
	}
	rep, err := histstore.Open(dir, histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	compareStores(t, primary, rep, 2)
}

// TestSyncDirUnusable: a replica directory that cannot be created is a
// loud sync error, counted in the status.
func TestSyncDirUnusable(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	root := t.TempDir()
	primary := seedPrimary(t, filepath.Join(root, "primary"), 3, 1)
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()
	file := filepath.Join(root, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	y, err := New(Config{Source: "http://primary.inproc", Dir: filepath.Join(file, "replica"),
		Client: feedClient(inprocTransport{srv.Handler()})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := y.Sync(context.Background()); err == nil {
		t.Fatal("sync into a directory under a regular file succeeded")
	}
	if st := y.Status(); st == nil || st.SyncErrors != 1 {
		t.Fatalf("status: %+v, want one sync error", st)
	}
}
