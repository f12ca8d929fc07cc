package histstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"rdnsprivacy/internal/testutil"
)

// The manifest is the store directory's single commit point: a small
// binary file naming the store's writer, its active tail, and its sealed
// segments. Multi-step protocols (writer registration, compaction) stage
// their files first — a tail or segment is always created before the
// manifest references it — and then swap the manifest atomically
// (tmp + fsync + rename + directory fsync), so a reader either sees the
// old layout or the new one, never a half-committed mix. Cross-process
// read-modify-writes are serialized by the STORE.lock advisory lock.
//
// Layout (all integers uvarint unless noted, strings uvarint-length
// prefixed):
//
//	magic     8 bytes "RDNSMAN1"
//	interval  base-block cadence K (a property of the store, fixed at creation)
//	nwriters  1: a store holds exactly one writer
//	the writer:
//	  id        string (writer identity, [a-z0-9_-], 1..64 bytes)
//	  fileseq   monotonic file-name counter
//	  tail      string (tail file name within the directory)
//	  tailfirst snapshot index of the tail's first snapshot
//	  nsegs
//	  per segment, oldest first:
//	    file    string (segment file name within the directory)
//	    first   snapshot index of the segment's first snapshot
//	    count   snapshots in the segment
//	crc       4 bytes (IEEE CRC32 over everything before, little-endian)
//
// Decoding is strict — bad magic, CRC mismatch, a writer count other than
// one (a *WriterError), path separators in file names, or segment tables
// that do not tile [0, tailfirst) contiguously are all loud errors, never
// panics (see FuzzSegmentManifest).

// manifestName and storeLockName are the fixed file names inside a store
// directory.
const (
	manifestName  = "MANIFEST"
	storeLockName = "STORE.lock"
)

// manifestMagic opens every manifest file.
var manifestMagic = [8]byte{'R', 'D', 'N', 'S', 'M', 'A', 'N', '1'}

// Manifest decode limits; generous for any real store, tight enough to
// bound fuzzed allocations.
const (
	maxManifestSegments = 1 << 20
	maxWriterIDBytes    = 64
	maxManifestFileName = 256
	maxManifestSnap     = 1 << 40
)

type manifestSegment struct {
	file  string
	first int
	count int
}

type manifestWriter struct {
	id        string
	fileSeq   int
	tailFile  string
	tailFirst int
	segs      []manifestSegment
}

type storeManifest struct {
	baseEvery int
	writer    manifestWriter
}

// validWriterID reports whether id is a legal writer identity: 1..64
// bytes of [a-z0-9_-]. File names are derived from it, so the charset is
// deliberately narrow.
func validWriterID(id string) bool {
	if len(id) == 0 || len(id) > maxWriterIDBytes {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' && c != '_' {
			return false
		}
	}
	return true
}

// validStoreFileName reports whether name is a safe basename for a file
// inside the store directory.
func validStoreFileName(name string) bool {
	if len(name) == 0 || len(name) > maxManifestFileName {
		return false
	}
	if name == "." || name == ".." || name == manifestName || name == storeLockName || strings.HasSuffix(name, SidecarSuffix) {
		return false
	}
	return !strings.ContainsAny(name, "/\\\x00")
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeManifest serializes m, CRC included.
func encodeManifest(m *storeManifest) []byte {
	buf := append([]byte(nil), manifestMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(m.baseEvery))
	buf = binary.AppendUvarint(buf, 1)
	buf = encodeManifestWriter(buf, &m.writer)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func (r *byteReader) manifestString(what string, max int) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(max) {
		return "", corruptf("manifest %s of %d bytes exceeds %d", what, n, max)
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *byteReader) manifestInt(what string, max uint64) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, corruptf("manifest %s %d exceeds %d", what, v, max)
	}
	return int(v), nil
}

// encodeManifestWriter appends w's manifest entry to buf.
func encodeManifestWriter(buf []byte, w *manifestWriter) []byte {
	buf = appendString(buf, w.id)
	buf = binary.AppendUvarint(buf, uint64(w.fileSeq))
	buf = appendString(buf, w.tailFile)
	buf = binary.AppendUvarint(buf, uint64(w.tailFirst))
	buf = binary.AppendUvarint(buf, uint64(len(w.segs)))
	for _, g := range w.segs {
		buf = appendString(buf, g.file)
		buf = binary.AppendUvarint(buf, uint64(g.first))
		buf = binary.AppendUvarint(buf, uint64(g.count))
	}
	return buf
}

// decodeManifest parses and validates a manifest file's bytes.
func decodeManifest(data []byte) (*storeManifest, error) {
	if len(data) < len(manifestMagic)+4 {
		return nil, corruptf("manifest of %d bytes is too short", len(data))
	}
	if [8]byte(data[:8]) != manifestMagic {
		return nil, corruptError("not a histstore manifest (bad magic)")
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(crcBytes)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, corruptf("manifest CRC mismatch: stored %08x, computed %08x", want, got)
	}
	r := &byteReader{b: body[8:]}
	m := &storeManifest{}
	var err error
	if m.baseEvery, err = r.manifestInt("base interval", maxManifestSnap); err != nil {
		return nil, err
	}
	if m.baseEvery == 0 {
		return nil, corruptError("manifest base interval is zero")
	}
	nw, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nw == 0 {
		return nil, &WriterError{}
	}
	if m.writer, err = r.manifestWriter(); err != nil {
		return nil, err
	}
	if nw > 1 {
		// A second writer is refused by name, whatever follows it.
		second, err := r.manifestString("writer id", maxWriterIDBytes)
		if err != nil {
			return nil, err
		}
		return nil, &WriterError{Writer: m.writer.id, Refused: second}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// manifestWriter decodes and validates one writer entry.
func (r *byteReader) manifestWriter() (manifestWriter, error) {
	var w manifestWriter
	var err error
	if w.id, err = r.manifestString("writer id", maxWriterIDBytes); err != nil {
		return w, err
	}
	if !validWriterID(w.id) {
		return w, corruptf("manifest writer id %q is invalid", w.id)
	}
	if w.fileSeq, err = r.manifestInt("file seq", maxManifestSnap); err != nil {
		return w, err
	}
	if w.tailFile, err = r.manifestString("tail name", maxManifestFileName); err != nil {
		return w, err
	}
	if !validStoreFileName(w.tailFile) {
		return w, corruptf("manifest tail name %q is invalid", w.tailFile)
	}
	if w.tailFirst, err = r.manifestInt("tail first snapshot", maxManifestSnap); err != nil {
		return w, err
	}
	ns, err := r.manifestInt("segment count", maxManifestSegments)
	if err != nil {
		return w, err
	}
	next := 0
	for si := 0; si < ns; si++ {
		var g manifestSegment
		if g.file, err = r.manifestString("segment name", maxManifestFileName); err != nil {
			return w, err
		}
		if !validStoreFileName(g.file) {
			return w, corruptf("manifest segment name %q is invalid", g.file)
		}
		if g.first, err = r.manifestInt("segment first snapshot", maxManifestSnap); err != nil {
			return w, err
		}
		if g.count, err = r.manifestInt("segment snapshot count", maxManifestSnap); err != nil {
			return w, err
		}
		if g.first != next {
			return w, corruptf("writer %q segment %d starts at %d, expected %d", w.id, si, g.first, next)
		}
		if g.count == 0 {
			return w, corruptf("writer %q segment %d is empty", w.id, si)
		}
		next = g.first + g.count
		w.segs = append(w.segs, g)
	}
	if w.tailFirst != next {
		return w, corruptf("writer %q tail starts at %d, segments end at %d", w.id, w.tailFirst, next)
	}
	return w, nil
}

// readManifest loads the manifest from dir. A missing manifest returns
// (nil, nil): the directory holds no store yet.
func readManifest(dir string) (*storeManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("histstore: %s: %w", filepath.Join(dir, manifestName), err)
	}
	return m, nil
}

// writeManifest atomically replaces dir's manifest with m. The rename
// inside stageFile is the commit point of every store mutation protocol.
func writeManifest(dir string, m *storeManifest, point string) error {
	return stageFile(filepath.Join(dir, manifestName), encodeManifest(m), point)
}

// stageFile brings a file into being under its name crash-atomically:
// data is written to path.tmp and fsynced, renamed over path, and the
// directory fsynced — how a segment, a replacement tail and a manifest
// all come to exist. A non-empty point names the step for crash tests:
// point.write fires before the stage and point.rename before the rename.
// Registration and replica commits pass "": only compaction is
// crash-injected.
func stageFile(path string, data []byte, point string) error {
	fault := func(step string) error {
		if point == "" {
			return nil
		}
		return testutil.Fault(point + step)
	}
	if err := fault(".write"); err != nil {
		return err
	}
	if err := writeFileSync(path+".tmp", data); err != nil {
		return err
	}
	if err := fault(".rename"); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("histstore: staging %s: %w", filepath.Base(path), err)
	}
	return syncDir(filepath.Dir(path))
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("histstore: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("histstore: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("histstore: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("histstore: closing %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("histstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("histstore: syncing %s: %w", dir, err)
	}
	return nil
}
