package histstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// On-disk layout. The file opens with the 8-byte magic "RDNSHST1"
// followed by a uvarint base interval, then a sequence of CRC-framed
// frames:
//
//	kind    1 byte  ('S' snapshot header, 'B' base block, 'L' delta block)
//	length  uvarint (body length in bytes)
//	body    length bytes
//	crc     4 bytes (IEEE CRC32 over kind + body, little-endian)
//
// Snapshot header body:
//
//	snap    uvarint (snapshot index, consecutive from 0)
//	unix    varint  (snapshot instant, Unix seconds UTC)
//
// Base block body (the full record set of one /24 at one snapshot):
//
//	snap    uvarint
//	prefix  3 bytes (the /24's first three octets)
//	count   uvarint (number of entries, <= 256)
//	entries count times, sorted by last octet ascending:
//	  octet  uvarint (first entry: the octet; later: gap from previous, >= 1)
//	  name   prefix-compressed against the previously written name:
//	    shared uvarint (bytes shared with the previous name)
//	    more   uvarint (suffix length)
//	    suffix more bytes
//
// Delta block body (the changes of one /24 between two snapshots):
//
//	snap    uvarint
//	prefix  3 bytes
//	count   uvarint (<= 256; at most one change per address per snapshot)
//	entries count times, sorted by last octet ascending:
//	  kind   1 byte (0 added, 1 removed, 2 changed)
//	  octet  gap scheme as above
//	  names  removed: old; added: new; changed: old then new — each
//	         prefix-compressed against the previously written name
//
// Every multi-byte integer is an unsigned varint except the snapshot
// instant (signed varint). Decoding is strict: trailing bytes, counts
// past 256, octet overflow, name overflow past 255 bytes, and CRC
// mismatches are all errors, never panics — see FuzzDecodeBlock.

// Frame kinds.
const (
	frameSnap  = byte('S')
	frameBase  = byte('B')
	frameDelta = byte('L')
)

// fileMagic opens every history file, followed by the format version.
var fileMagic = [8]byte{'R', 'D', 'N', 'S', 'H', 'S', 'T', '1'}

// maxBlockEntries bounds the entry count of any block frame: a /24 holds
// 256 addresses and a snapshot carries at most one change per address.
const maxBlockEntries = 256

// maxNameBytes bounds a stored presentation-form name (RFC 1035 allows
// 255 octets on the wire; the presentation form stays within that here).
const maxNameBytes = 255

// baseEntry is one record of a base block, in last-octet order: the
// packed entry the sweep hands the store, so a snapshot's blocks are
// block states as they arrive.
type baseEntry = scanengine.Entry

// deltaEntry is one change of a delta block, in last-octet order.
type deltaEntry struct {
	kind  scanengine.ChangeKind
	octet byte
	old   dnswire.Name // RecordRemoved, RecordChanged
	new   dnswire.Name // RecordAdded, RecordChanged
}

// frame is one decoded frame.
type frame struct {
	kind byte
	body []byte
}

// corruptError reports a malformed or damaged frame. It wraps no cause:
// the codec is the bottom of the stack.
type corruptError string

func (e corruptError) Error() string { return "histstore: " + string(e) }

func corruptf(format string, args ...any) error {
	return corruptError(fmt.Sprintf(format, args...))
}

// appendFrame frames a body and appends the encoded frame to dst.
func appendFrame(dst []byte, kind byte, body []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, frameCRC(kind, body))
}

// frameCRC is the frame checksum: IEEE CRC32 over the kind byte then the
// body, computed in place.
func frameCRC(kind byte, body []byte) uint32 {
	return crc32.Update(kindCRC[kind], crc32.IEEETable, body)
}

// kindCRC holds the CRC of each one-byte frame kind, where every frame's
// checksum starts: computed once rather than from a byte that would have
// to escape to the heap on every frame.
var kindCRC = func() (t [256]uint32) {
	for k := range t {
		t[k] = crc32.Update(0, crc32.IEEETable, []byte{byte(k)})
	}
	return t
}()

// decodeFrame decodes one frame from the front of data and returns it
// with the remaining bytes. io.ErrUnexpectedEOF-like truncation is
// reported as errTruncated so Open can distinguish a torn tail append
// from mid-file corruption.
var errTruncated = corruptError("truncated frame")

func decodeFrame(data []byte) (frame, []byte, error) {
	if len(data) == 0 {
		return frame{}, nil, errTruncated
	}
	kind := data[0]
	if kind != frameSnap && kind != frameBase && kind != frameDelta {
		return frame{}, nil, corruptf("unknown frame kind 0x%02x", kind)
	}
	rest := data[1:]
	n, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return frame{}, nil, errTruncated
	}
	rest = rest[sz:]
	if n > uint64(len(rest)) {
		return frame{}, nil, errTruncated
	}
	body, rest := rest[:n], rest[n:]
	if len(rest) < 4 {
		return frame{}, nil, errTruncated
	}
	if err := checkFrameCRC(kind, body, binary.LittleEndian.Uint32(rest[:4])); err != nil {
		return frame{}, nil, err
	}
	return frame{kind: kind, body: body}, rest[4:], nil
}

func checkFrameCRC(kind byte, body []byte, want uint32) error {
	if got := frameCRC(kind, body); got != want {
		return corruptf("frame CRC mismatch: stored %08x, computed %08x", want, got)
	}
	return nil
}

// byteReader walks a frame body with bounds checking.
type byteReader struct {
	b []byte
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, corruptError("bad uvarint")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, corruptError("bad varint")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *byteReader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, corruptError("truncated body")
	}
	b := r.b[0]
	r.b = r.b[1:]
	return b, nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(r.b) {
		return nil, corruptError("truncated body")
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *byteReader) done() error {
	if len(r.b) != 0 {
		return corruptf("%d trailing bytes in frame body", len(r.b))
	}
	return nil
}

// blockHead reads what opens every block frame body: the snapshot, the
// /24, and the entry count.
func (r *byteReader) blockHead() (snap int, p dnswire.Prefix, count int, err error) {
	s, err := r.uvarint()
	if err != nil {
		return 0, p, 0, err
	}
	hi, err := r.bytes(3)
	if err != nil {
		return 0, p, 0, err
	}
	p = dnswire.Prefix{Addr: dnswire.IPv4{hi[0], hi[1], hi[2], 0}, Bits: 24}
	n, err := r.uvarint()
	if err != nil {
		return 0, p, 0, err
	}
	if n > maxBlockEntries {
		return 0, p, 0, corruptf("block claims %d entries", n)
	}
	return int(s), p, int(n), nil
}

// sharedPrefix is how many leading bytes name shares with prev: what a
// prefix-compressed name leaves out.
func sharedPrefix(prev, name dnswire.Name) int {
	shared := 0
	for shared < len(prev) && shared < len(name) && prev[shared] == name[shared] {
		shared++
	}
	return shared
}

// appendName appends a prefix-compressed name and returns the new prev.
func appendName(dst []byte, prev, name dnswire.Name) ([]byte, dnswire.Name) {
	shared := sharedPrefix(prev, name)
	dst = binary.AppendUvarint(dst, uint64(shared))
	dst = binary.AppendUvarint(dst, uint64(len(name)-shared))
	dst = append(dst, name[shared:]...)
	return dst, name
}

// readName reads a prefix-compressed name and returns it (also the new
// prev for the next entry). held is the name the block's state holds at
// the entry's octet, "" for none: a name whose bytes equal it is returned
// as held itself, so only a name new to the block is allocated.
func readName(r *byteReader, prev, held dnswire.Name) (dnswire.Name, error) {
	shared, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if shared > uint64(len(prev)) {
		return "", corruptf("name shares %d bytes, previous has %d", shared, len(prev))
	}
	more, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if shared+more > maxNameBytes {
		return "", corruptf("name of %d bytes exceeds %d", shared+more, maxNameBytes)
	}
	suffix, err := r.bytes(int(more))
	if err != nil {
		return "", err
	}
	if uint64(len(held)) == shared+more && held[:shared] == prev[:shared] && string(held[shared:]) == string(suffix) {
		return held, nil
	}
	return prev[:shared] + dnswire.Name(suffix), nil
}

// readOctet reads a gap-encoded last octet. first indicates the first
// entry of the block (absolute octet); otherwise the value is the gap
// from prev and must be >= 1.
func readOctet(r *byteReader, first bool, prev byte) (byte, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if first {
		if v > 255 {
			return 0, corruptf("octet %d out of range", v)
		}
		return byte(v), nil
	}
	if v == 0 {
		return 0, corruptError("zero octet gap")
	}
	next := uint64(prev) + v
	if next > 255 {
		return 0, corruptf("octet %d out of range", next)
	}
	return byte(next), nil
}

// appendSnapBody appends a snapshot header body to dst.
func appendSnapBody(dst []byte, snap int, unixSec int64) []byte {
	body := binary.AppendUvarint(dst, uint64(snap))
	return binary.AppendVarint(body, unixSec)
}

// decodeSnapBody decodes a snapshot header body.
func decodeSnapBody(body []byte) (snap int, unixSec int64, err error) {
	r := &byteReader{b: body}
	s, err := r.uvarint()
	if err != nil {
		return 0, 0, err
	}
	u, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	if err := r.done(); err != nil {
		return 0, 0, err
	}
	return int(s), u, nil
}

// appendBaseBody appends a base block body to dst. Entries must be sorted
// by octet ascending with no duplicates.
func appendBaseBody(dst []byte, snap int, p dnswire.Prefix, entries []baseEntry) []byte {
	body := binary.AppendUvarint(dst, uint64(snap))
	body = append(body, p.Addr[0], p.Addr[1], p.Addr[2])
	body = binary.AppendUvarint(body, uint64(len(entries)))
	var prevName dnswire.Name
	for i, e := range entries {
		if i == 0 {
			body = binary.AppendUvarint(body, uint64(e.Octet))
		} else {
			body = binary.AppendUvarint(body, uint64(e.Octet)-uint64(entries[i-1].Octet))
		}
		body, prevName = appendName(body, prevName, e.Name)
	}
	return body
}

// baseFrameBound bounds the size of the base frame of a block holding
// entries: appendBaseBody's bytes, framed. It is exact but for the
// varints, each counted at its widest.
func baseFrameBound(entries []baseEntry) int {
	n := 32 // the frame's kind, length and CRC; the body's snapshot, /24 and count
	var prev dnswire.Name
	for _, e := range entries {
		shared := sharedPrefix(prev, e.Name)
		n += 2 + 2 + 2 + len(e.Name) - shared
		prev = e.Name
	}
	return n
}

// decodeBaseBody decodes a base block body. Its entries — a packed block
// state — are built in dst's storage when that is large enough, which
// must not share memory with st. st is the block's state before the
// frame: an entry naming what st holds at its octet takes st's string
// (readName), so a rebase allocates only the names it changes.
func decodeBaseBody(body []byte, st blockState, dst []baseEntry) (snap int, p dnswire.Prefix, entries []baseEntry, err error) {
	r := &byteReader{b: body}
	snap, p, count, err := r.blockHead()
	if err != nil {
		return 0, p, nil, err
	}
	if entries = dst[:0]; cap(entries) < count {
		entries = make([]baseEntry, 0, count)
	}
	var prevOctet byte
	var prevName dnswire.Name
	j := 0 // st's cursor
	for i := 0; i < count; i++ {
		octet, err := readOctet(r, i == 0, prevOctet)
		if err != nil {
			return 0, p, nil, err
		}
		name, err := readName(r, prevName, st.nameAt(&j, octet))
		if err != nil {
			return 0, p, nil, err
		}
		entries = append(entries, baseEntry{Octet: octet, Name: name})
		prevOctet, prevName = octet, name
	}
	if err := r.done(); err != nil {
		return 0, p, nil, err
	}
	return snap, p, entries, nil
}

// appendDeltaBody appends a delta block body to dst. Entries must be
// sorted by octet ascending with no duplicates.
func appendDeltaBody(dst []byte, snap int, p dnswire.Prefix, entries []deltaEntry) []byte {
	body := binary.AppendUvarint(dst, uint64(snap))
	body = append(body, p.Addr[0], p.Addr[1], p.Addr[2])
	body = binary.AppendUvarint(body, uint64(len(entries)))
	var prevName dnswire.Name
	for i, e := range entries {
		body = append(body, byte(e.kind))
		if i == 0 {
			body = binary.AppendUvarint(body, uint64(e.octet))
		} else {
			body = binary.AppendUvarint(body, uint64(e.octet)-uint64(entries[i-1].octet))
		}
		if e.kind == scanengine.RecordRemoved || e.kind == scanengine.RecordChanged {
			body, prevName = appendName(body, prevName, e.old)
		}
		if e.kind == scanengine.RecordAdded || e.kind == scanengine.RecordChanged {
			body, prevName = appendName(body, prevName, e.new)
		}
	}
	return body
}

// decodeDeltaBody decodes a delta block body, appending its entries to
// dst. st is the block's state before the frame: a removal's or a
// change's old name is st's string when the bytes match (readName), so
// only the names the delta brings in are allocated.
func decodeDeltaBody(body []byte, st blockState, dst []deltaEntry) (snap int, p dnswire.Prefix, entries []deltaEntry, err error) {
	r := &byteReader{b: body}
	snap, p, count, err := r.blockHead()
	if err != nil {
		return 0, p, nil, err
	}
	entries = slices.Grow(dst, count)
	var prevOctet byte
	var prevName dnswire.Name
	j := 0 // st's cursor
	for i := 0; i < count; i++ {
		kindByte, err := r.byte()
		if err != nil {
			return 0, p, nil, err
		}
		kind := scanengine.ChangeKind(kindByte)
		if kind != scanengine.RecordAdded && kind != scanengine.RecordRemoved && kind != scanengine.RecordChanged {
			return 0, p, nil, corruptf("unknown change kind %d", kindByte)
		}
		octet, err := readOctet(r, i == 0, prevOctet)
		if err != nil {
			return 0, p, nil, err
		}
		e := deltaEntry{kind: kind, octet: octet}
		if kind == scanengine.RecordRemoved || kind == scanengine.RecordChanged {
			e.old, err = readName(r, prevName, st.nameAt(&j, octet))
			if err != nil {
				return 0, p, nil, err
			}
			prevName = e.old
		}
		if kind == scanengine.RecordAdded || kind == scanengine.RecordChanged {
			e.new, err = readName(r, prevName, "")
			if err != nil {
				return 0, p, nil, err
			}
			prevName = e.new
		}
		entries = append(entries, e)
		prevOctet = octet
	}
	if err := r.done(); err != nil {
		return 0, p, nil, err
	}
	return snap, p, entries, nil
}
