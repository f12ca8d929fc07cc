package histstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWriterIDValidation pins the writer-id charset: file names are
// derived from the id, so anything outside [a-z0-9_-] — and in
// particular path separators — must be refused both by the validator
// and at Open.
func TestWriterIDValidation(t *testing.T) {
	valid := []string{"main", "w0", "site-a", "a_b-c9", strings.Repeat("x", 64)}
	for _, id := range valid {
		if !validWriterID(id) {
			t.Errorf("validWriterID(%q) = false", id)
		}
	}
	invalid := []string{"", "UPPER", "has space", "dot.dot", "a/b", "a\\b",
		"tail\x00", strings.Repeat("x", 65), "café"}
	for _, id := range invalid {
		if validWriterID(id) {
			t.Errorf("validWriterID(%q) = true", id)
		}
	}

	if _, err := Open(t.TempDir()+"/hist", WithWriter("../evil")); err == nil ||
		!strings.Contains(err.Error(), "invalid writer id") {
		t.Fatalf("Open accepted a traversal writer id: %v", err)
	}
}

// TestStoreFileNameValidation pins the manifest's file-name gate: a
// manifest names every store file, so a corrupted or hostile manifest
// must not be able to point the store outside its own directory or at
// its own control files.
func TestStoreFileNameValidation(t *testing.T) {
	valid := []string{"tail-main-0.log", "seg-main-3.seg", "anything.weird"}
	for _, name := range valid {
		if !validStoreFileName(name) {
			t.Errorf("validStoreFileName(%q) = false", name)
		}
	}
	invalid := []string{"", ".", "..", "../../etc/passwd", "a/b", "a\\b",
		"nul\x00byte", manifestName, storeLockName, strings.Repeat("x", 300)}
	for _, name := range invalid {
		if validStoreFileName(name) {
			t.Errorf("validStoreFileName(%q) = true", name)
		}
	}
}

// encodeManifestOf encodes a manifest listing the writers ws, as many as
// given — what no store writes, for the decoder to refuse.
func encodeManifestOf(baseEvery int, ws ...manifestWriter) []byte {
	buf := append([]byte(nil), manifestMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(baseEvery))
	buf = binary.AppendUvarint(buf, uint64(len(ws)))
	for i := range ws {
		buf = encodeManifestWriter(buf, &ws[i])
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestManifestRefusesSecondWriter: a manifest is on-disk input, so one
// listing a writer count other than one is refused with a *WriterError
// that names the writer listed first — however well-formed the rest is.
func TestManifestRefusesSecondWriter(t *testing.T) {
	alpha := manifestWriter{id: "alpha", fileSeq: 1, tailFile: tailFileName("alpha", 0)}
	bravo := manifestWriter{id: "bravo", fileSeq: 1, tailFile: tailFileName("bravo", 0)}
	if m, err := decodeManifest(encodeManifestOf(7, alpha)); err != nil || m.writer.id != "alpha" {
		t.Fatalf("one writer: %+v, %v", m, err)
	}
	var we *WriterError
	_, err := decodeManifest(encodeManifestOf(7, alpha, bravo))
	if !errors.As(err, &we) || we.Writer != "alpha" || we.Refused != "bravo" {
		t.Fatalf("two writers: %v, want a *WriterError naming alpha and refusing bravo", err)
	}
	if !strings.Contains(err.Error(), `"alpha"`) {
		t.Fatalf("error does not name the store's writer: %v", err)
	}
	if _, err := decodeManifest(encodeManifestOf(7)); !errors.As(err, &we) || we.Writer != "" {
		t.Fatalf("no writer: %v, want a *WriterError", err)
	}
}

// TestOpenRefusesSecondWriter: a writable Open under another writer id is
// refused with a *WriterError naming the store's writer, before it locks
// or creates anything in the directory; an Open that names no writer
// appends as the store's own, and a read-only one is unaffected.
func TestOpenRefusesSecondWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist")
	st, err := Open(path, WithWriter("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(time.Date(2020, 3, 1, 6, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	var we *WriterError
	if _, err := Open(path, WithWriter("bravo")); !errors.As(err, &we) || we.Writer != "alpha" || we.Refused != "bravo" {
		t.Fatalf("second writer: %v, want a *WriterError naming alpha", err)
	}
	if after, err := os.ReadDir(path); err != nil || len(after) != len(before) {
		t.Fatalf("the refused open left files behind: %v -> %v (%v)", before, after, err)
	}
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if id := st.WriterID(); id != "alpha" {
		t.Fatalf("an open naming no writer appends as %q, want alpha", id)
	}
	if err := st.Append(time.Date(2020, 3, 2, 6, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	ro, err := Open(path, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Len() != 2 {
		t.Fatalf("read back %d snapshots, want 2", ro.Len())
	}
}

// TestManifestRoundTrip pins the codec on a representative compacted
// manifest: decode(encode(m)) must reproduce m exactly.
func TestManifestRoundTrip(t *testing.T) {
	m := &storeManifest{baseEvery: 4, writer: manifestWriter{
		id: "alpha", fileSeq: 3, tailFile: tailFileName("alpha", 2), tailFirst: 40,
		segs: []manifestSegment{
			{file: segFileName("alpha", 0), first: 0, count: 25},
			{file: segFileName("alpha", 1), first: 25, count: 15},
		},
	}}
	got, err := decodeManifest(encodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	a := got.writer
	if got.baseEvery != 4 || a.id != "alpha" || a.fileSeq != 3 || a.tailFirst != 40 || len(a.segs) != 2 ||
		a.segs[1].first != 25 || a.segs[1].count != 15 {
		t.Fatalf("round trip: %+v", got)
	}
}
