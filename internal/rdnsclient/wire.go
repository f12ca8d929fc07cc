package rdnsclient

// The /v1 wire codec: how the five query shapes of api.go — AtResponse,
// RangeResponse, ChurnResponse, NameResponse, DaysResponse — become bytes
// and come back, without encoding/json's reflection on the way. It sits
// beside the type definitions because it is the same contract: a field
// added to one of those types is added here, and TestWireCodecMatchesEncodingJSON
// fails until it is.
//
// Encoding appends exactly what json.NewEncoder(w).Encode(v) writes for the
// same value: key order, omitempty, RFC 3339 instants with nanoseconds,
// HTML-safe string escaping, the trailing newline. Decoding scans exactly
// that canonical form and hands any other input — an unknown or reordered
// key, whitespace, an escape, non-ASCII text, a leading zero, trailing
// bytes — to json.Unmarshal whole, so for every body the value and the
// error-ness are encoding/json's and a newer daemon's additive fields keep
// working. The cold shapes (stats, admin, feed manifest, error envelope)
// are not here: they go through encoding/json on both sides.

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"time"

	"rdnsprivacy/internal/histstore"
)

// Encoder appends one /v1 response body to a caller's buffer. The daemon
// drives it row by row from the store's typed rows (RangeRowIPv4,
// NamePostingPrefix: an address is appended as its dotted quad and never
// becomes a string); the AppendJSON methods of the response types drive
// the same methods from the text a client holds, so each key is written in
// one place. It keeps the last instant it formatted, since the rows of a
// snapshot share theirs, and holds no pointer into the buffer, so it lives
// on the caller's stack. The zero value is ready for a Begin call.
type Encoder struct {
	buf   []byte
	start int       // len(buf) at begin: what a refused body is cut back to
	bad   bool      // an instant encoding/json refuses to marshal was asked for
	elems int       // elements written to the open array; -1 once it was written as null
	at    time.Time // the instant memo[:n] holds, quoted
	n     int
	memo  [len(time.RFC3339Nano) + len(`""`)]byte
}

func (e *Encoder) begin(dst []byte) {
	e.buf, e.start, e.bad, e.elems = dst, len(dst), false, 0
}

// finish closes the object. A body holding an instant Time.MarshalJSON
// refuses (a year outside [0,9999], a zone hour outside [0,23]) appends
// nothing, as Encode writes nothing when it fails.
func (e *Encoder) finish() []byte {
	if e.bad {
		return e.buf[:e.start]
	}
	return append(e.buf, "}\n"...)
}

func (e *Encoder) key(k string)   { e.buf = append(e.buf, k...) }
func (e *Encoder) str(s string)   { e.buf = appendString(e.buf, s) }
func (e *Encoder) int(v int)      { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }
func (e *Encoder) boolean(v bool) { e.buf = strconv.AppendBool(e.buf, v) }

// elem separates the elements of the open array.
func (e *Encoder) elem() {
	if e.elems > 0 {
		e.buf = append(e.buf, ',')
	}
	e.elems++
}

// null rewrites the array just opened as null: what a nil slice marshals to.
func (e *Encoder) null() {
	e.buf = append(e.buf[:len(e.buf)-1], "null"...)
	e.elems = -1
}

func (e *Encoder) closeArray() {
	if e.elems >= 0 {
		e.buf = append(e.buf, ']')
	}
	e.elems = 0
}

func (e *Encoder) instant(t time.Time) {
	if t != e.at || e.n == 0 {
		b := t.AppendFormat(append(e.memo[:0], '"'), time.RFC3339Nano)
		if !strictRFC3339(b[1:]) {
			e.bad = true
			return
		}
		// A strict rendering is at most len(RFC3339Nano) bytes, so b is
		// still memo.
		e.at, e.n = t, len(append(b, '"'))
	}
	e.buf = append(e.buf, e.memo[:e.n]...)
}

// strictRFC3339 reports whether b, an RFC3339Nano rendering, is one
// Time.MarshalJSON accepts: a four-digit year and a zone hour below 24.
func strictRFC3339(b []byte) bool {
	if b[len("2006")] != '-' {
		return false
	}
	if b[len(b)-1] != 'Z' {
		sign, hour := b[len(b)-len("Z07:00")], b[len(b)-len("07:00"):]
		if '0' <= sign && sign <= '9' || 10*(hour[0]-'0')+(hour[1]-'0') >= 24 {
			return false
		}
	}
	return true
}

// plain marks the bytes encoding/json copies into a string unescaped with
// HTML escaping on: printable ASCII but for the quote, the backslash and
// <, >, &.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as encoding/json marshals it. A string of plain
// bytes is copied between quotes; any other is json.Marshal's own output,
// so the two cannot disagree about an escape.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s) // marshalling a string cannot fail
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendIPv4(dst []byte, ip [4]byte) []byte {
	for i, o := range ip {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendUint(dst, uint64(o), 10)
	}
	return dst
}

// AppendJSON appends the /v1/at body.
func (r AtResponse) AppendJSON(dst []byte) []byte {
	var e Encoder
	e.begin(dst)
	e.key(`{"ip":`)
	e.str(r.IP)
	e.key(`,"t":`)
	e.instant(r.T)
	e.key(`,"resolved":`)
	e.instant(r.Resolved)
	e.key(`,"found":`)
	e.boolean(r.Found)
	if r.Name != "" {
		e.key(`,"name":`)
		e.str(r.Name)
	}
	return e.finish()
}

// BeginRange opens a /v1/range body on dst; count RangeRow or RangeRowIPv4
// calls and EndRange follow.
func (e *Encoder) BeginRange(dst []byte, prefix string, from, to time.Time, count int) {
	e.begin(dst)
	e.key(`{"prefix":`)
	e.str(prefix)
	e.key(`,"from":`)
	e.instant(from)
	e.key(`,"to":`)
	e.instant(to)
	e.key(`,"count":`)
	e.int(count)
	e.key(`,"rows":[`)
}

func (e *Encoder) rangeRowDate(date time.Time) {
	e.elem()
	e.key(`{"date":`)
	e.instant(date)
	e.key(`,"ip":`)
}

func (e *Encoder) rangeRowPTR(ptr string) {
	e.key(`,"ptr":`)
	e.str(ptr)
	e.buf = append(e.buf, '}')
}

// RangeRow appends one row whose address is text.
func (e *Encoder) RangeRow(date time.Time, ip, ptr string) {
	e.rangeRowDate(date)
	e.str(ip)
	e.rangeRowPTR(ptr)
}

// RangeRowIPv4 appends one row whose address is still four octets.
func (e *Encoder) RangeRowIPv4(date time.Time, ip [4]byte, ptr string) {
	e.rangeRowDate(date)
	e.buf = append(e.buf, '"')
	e.buf = appendIPv4(e.buf, ip)
	e.buf = append(e.buf, '"')
	e.rangeRowPTR(ptr)
}

// EndRange closes the body and returns the extended buffer.
func (e *Encoder) EndRange(nextCursor string) []byte {
	e.closeArray()
	if nextCursor != "" {
		e.key(`,"next_cursor":`)
		e.str(nextCursor)
	}
	return e.finish()
}

// AppendJSON appends the /v1/range body.
func (r RangeResponse) AppendJSON(dst []byte) []byte {
	var e Encoder
	e.BeginRange(dst, r.Prefix, r.From, r.To, r.Count)
	if r.Rows == nil {
		e.null()
	}
	for i := range r.Rows {
		row := &r.Rows[i]
		e.RangeRow(row.Date, row.IP, row.PTR)
	}
	return e.EndRange(r.NextCursor)
}

// BeginChurn opens a /v1/churn body on dst; ChurnDay calls and EndChurn
// follow.
func (e *Encoder) BeginChurn(dst []byte, prefix string, from, to time.Time) {
	e.begin(dst)
	e.key(`{"prefix":`)
	e.str(prefix)
	e.key(`,"from":`)
	e.instant(from)
	e.key(`,"to":`)
	e.instant(to)
	e.key(`,"days":[`)
}

// ChurnDay appends one snapshot's counts.
func (e *Encoder) ChurnDay(date time.Time, added, removed, changed int) {
	e.elem()
	e.key(`{"date":`)
	e.instant(date)
	e.key(`,"added":`)
	e.int(added)
	e.key(`,"removed":`)
	e.int(removed)
	e.key(`,"changed":`)
	e.int(changed)
	e.buf = append(e.buf, '}')
}

// EndChurn closes the body and returns the extended buffer.
func (e *Encoder) EndChurn() []byte {
	e.closeArray()
	return e.finish()
}

// AppendJSON appends the /v1/churn body.
func (r ChurnResponse) AppendJSON(dst []byte) []byte {
	var e Encoder
	e.BeginChurn(dst, r.Prefix, r.From, r.To)
	if r.Days == nil {
		e.null()
	}
	for i := range r.Days {
		d := &r.Days[i]
		e.ChurnDay(d.Date, d.Added, d.Removed, d.Changed)
	}
	return e.EndChurn()
}

// BeginName opens a /v1/name body on dst; count NamePosting or
// NamePostingPrefix calls and EndName follow.
func (e *Encoder) BeginName(dst []byte, token string, count int) {
	e.begin(dst)
	e.key(`{"token":`)
	e.str(token)
	e.key(`,"count":`)
	e.int(count)
	e.key(`,"postings":[`)
}

func (e *Encoder) namePostingSpan(first, last time.Time) {
	e.key(`,"first":`)
	e.instant(first)
	e.key(`,"last":`)
	e.instant(last)
	e.buf = append(e.buf, '}')
}

// NamePosting appends one posting whose prefix is text.
func (e *Encoder) NamePosting(prefix string, first, last time.Time) {
	e.elem()
	e.key(`{"prefix":`)
	e.str(prefix)
	e.namePostingSpan(first, last)
}

// NamePostingPrefix appends one posting whose prefix is still an address
// and a length.
func (e *Encoder) NamePostingPrefix(addr [4]byte, bits int, first, last time.Time) {
	e.elem()
	e.key(`{"prefix":"`)
	e.buf = appendIPv4(e.buf, addr)
	e.buf = append(e.buf, '/')
	e.int(bits)
	e.buf = append(e.buf, '"')
	e.namePostingSpan(first, last)
}

// EndName closes the body and returns the extended buffer.
func (e *Encoder) EndName(nextCursor string) []byte {
	e.closeArray()
	if nextCursor != "" {
		e.key(`,"next_cursor":`)
		e.str(nextCursor)
	}
	return e.finish()
}

// AppendJSON appends the /v1/name body.
func (r NameResponse) AppendJSON(dst []byte) []byte {
	var e Encoder
	e.BeginName(dst, r.Token, r.Count)
	if r.Postings == nil {
		e.null()
	}
	for i := range r.Postings {
		p := &r.Postings[i]
		e.NamePosting(p.Prefix, p.First, p.Last)
	}
	return e.EndName(r.NextCursor)
}

// AppendJSON appends the /v1/days body.
func (r DaysResponse) AppendJSON(dst []byte) []byte {
	var e Encoder
	e.begin(dst)
	e.key(`{"count":`)
	e.int(r.Count)
	e.key(`,"days":[`)
	if r.Days == nil {
		e.null()
	}
	for _, d := range r.Days {
		e.elem()
		e.instant(d)
	}
	e.closeArray()
	return e.finish()
}

// decode is json.Unmarshal(body, out) for a 200 body: the five query shapes
// are scanned when body is in canonical form, and everything else — another
// shape, or any deviation from that form — is json.Unmarshal itself. A
// scanned shape replaces *out whole, so out must point at a zero value, as
// every Client method's does.
func decode(body []byte, out any) error {
	if scan(body, out) {
		return nil
	}
	return json.Unmarshal(body, out)
}

// scan fills *out from a canonical body and reports whether it did; *out is
// untouched when it did not.
func scan(body []byte, out any) bool {
	s := scanner{b: body}
	switch out := out.(type) {
	case *AtResponse:
		if r, ok := s.at(); ok {
			*out = r
			return true
		}
	case *RangeResponse:
		if r, ok := s.rangePage(); ok {
			*out = r
			return true
		}
	case *ChurnResponse:
		if r, ok := s.churn(); ok {
			*out = r
			return true
		}
	case *NameResponse:
		if r, ok := s.namePage(); ok {
			*out = r
			return true
		}
	case *DaysResponse:
		if r, ok := s.days(); ok {
			*out = r
			return true
		}
	}
	return false
}

// scanner reads the canonical form left to right. Every method reports
// whether the bytes at the cursor were what it reads; the first false
// abandons the scan.
type scanner struct {
	b   []byte
	i   int
	raw []byte    // the last instant's quoted text, in b
	val time.Time // and its value
}

func (s *scanner) lit(l string) bool {
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// unescaped marks the bytes that stand for themselves inside a JSON string:
// printable ASCII but for the quote and the backslash.
var unescaped = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// quoted reads a string of unescaped bytes, quotes included.
func (s *scanner) quoted() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	j := s.i + 1
	for j < len(s.b) && unescaped[s.b[j]] {
		j++
	}
	if j >= len(s.b) || s.b[j] != '"' {
		return nil, false
	}
	q := s.b[s.i : j+1]
	s.i = j + 1
	return q, true
}

func (s *scanner) str(v *string) bool {
	return s.strLike(v, "")
}

// strLike is str for a string that may repeat prev, one the body already
// held: then *v is prev itself, and nothing is allocated.
func (s *scanner) strLike(v *string, prev string) bool {
	q, ok := s.quoted()
	if ok {
		*v = reuse(q[1:len(q)-1], prev)
	}
	return ok
}

// reuse returns the text t as a string: prev itself when it holds the same
// bytes.
func reuse(t []byte, prev string) string {
	if string(t) == prev {
		return prev
	}
	return string(t)
}

// finalOctet keys an address's text by its last number, mod 256: the rows
// of a /24 on one day each have their own key, and an address keeps its
// key from one day to the next. Any text gets some key.
func finalOctet(ip []byte) byte {
	var o byte
	mul := byte(1)
	for i := len(ip) - 1; i >= 0 && '0' <= ip[i] && ip[i] <= '9'; i-- {
		o += (ip[i] - '0') * mul
		mul *= 10
	}
	return o
}

// instant reads a quoted instant through Time.UnmarshalJSON, which is what
// json.Unmarshal hands the same bytes to; a run of identical texts is
// parsed once.
func (s *scanner) instant(v *time.Time) bool {
	q, ok := s.quoted()
	if !ok {
		return false
	}
	if !bytes.Equal(q, s.raw) {
		var t time.Time
		if t.UnmarshalJSON(q) != nil {
			return false
		}
		s.raw, s.val = q, t
	}
	*v = s.val
	return true
}

// int reads an integer as strconv.AppendInt writes one: no leading zero, no
// "-0", no fraction or exponent (the literal that must follow rejects
// those), nothing an int cannot hold.
func (s *scanner) int(v *int) bool {
	i := s.i
	neg := i < len(s.b) && s.b[i] == '-'
	if neg {
		i++
	}
	first, n := i, uint64(0)
	for ; i < len(s.b) && s.b[i]-'0' <= 9 && i-first < 18; i++ {
		n = n*10 + uint64(s.b[i]-'0')
	}
	if i == first || i-first == 18 || s.b[first] == '0' && (neg || i-first > 1) || n > math.MaxInt {
		return false
	}
	*v, s.i = int(n), i
	if neg {
		*v = -*v
	}
	return true
}

func (s *scanner) boolean(v *bool) bool {
	*v = s.lit("true")
	return *v || s.lit("false")
}

// elems reads the rest of an open array, one call of elem an element.
func (s *scanner) elems(elem func() bool) bool {
	for n := 0; !s.lit("]"); n++ {
		if n > 0 && !s.lit(",") || !elem() {
			return false
		}
	}
	return true
}

// room caps an element-count hint at what the rest of the body could hold
// at min bytes an element, so a hostile count sizes no allocation.
func (s *scanner) room(hint, min int) int {
	if most := (len(s.b) - s.i) / min; hint > most {
		return most
	}
	return max(hint, 0)
}

// end reads the close of the body: the brace, Encode's newline if it is
// there, and nothing after.
func (s *scanner) end() bool {
	if !s.lit("}") {
		return false
	}
	s.lit("\n")
	return s.i == len(s.b)
}

func (s *scanner) nextCursor(v *string) bool {
	return !s.lit(`,"next_cursor":`) || s.str(v)
}

func (s *scanner) at() (r AtResponse, ok bool) {
	ok = s.lit(`{"ip":`) && s.str(&r.IP) &&
		s.lit(`,"t":`) && s.instant(&r.T) &&
		s.lit(`,"resolved":`) && s.instant(&r.Resolved) &&
		s.lit(`,"found":`) && s.boolean(&r.Found) &&
		(!s.lit(`,"name":`) || s.str(&r.Name)) &&
		s.end()
	return r, ok
}

func (s *scanner) rangePage() (r RangeResponse, ok bool) {
	if !(s.lit(`{"prefix":`) && s.str(&r.Prefix) &&
		s.lit(`,"from":`) && s.instant(&r.From) &&
		s.lit(`,"to":`) && s.instant(&r.To) &&
		s.lit(`,"count":`) && s.int(&r.Count) &&
		s.lit(`,"rows":[`)) {
		return r, false
	}
	r.Rows = make([]RangeRow, 0, s.room(r.Count, len(`{"date":"","ip":"","ptr":""},`)))
	// A page runs day by day over the same addresses, most holding the same
	// name from one day to the next: a row takes its strings from the last
	// row at its final octet where the texts match.
	var last [256]int32 // 1 + the index of the last row at each final octet
	ok = s.elems(func() bool {
		n := len(r.Rows)
		r.Rows = append(r.Rows, RangeRow{})
		row := &r.Rows[n]
		if !(s.lit(`{"date":`) && s.instant(&row.Date) && s.lit(`,"ip":`)) {
			return false
		}
		q, ok := s.quoted()
		if !ok {
			return false
		}
		ip := q[1 : len(q)-1]
		var prev RangeRow
		k := &last[finalOctet(ip)]
		if *k > 0 {
			prev = r.Rows[*k-1]
		}
		*k = int32(n + 1)
		row.IP = reuse(ip, prev.IP)
		return s.lit(`,"ptr":`) && s.strLike(&row.PTR, prev.PTR) &&
			s.lit(`}`)
	})
	return r, ok && s.nextCursor(&r.NextCursor) && s.end()
}

func (s *scanner) churn() (r ChurnResponse, ok bool) {
	if !(s.lit(`{"prefix":`) && s.str(&r.Prefix) &&
		s.lit(`,"from":`) && s.instant(&r.From) &&
		s.lit(`,"to":`) && s.instant(&r.To) &&
		s.lit(`,"days":[`)) {
		return r, false
	}
	r.Days = make([]histstore.ChurnDay, 0, s.room(math.MaxInt, len(`{"date":"2006-01-02T15:04:05Z","added":0,"removed":0,"changed":0},`)))
	ok = s.elems(func() bool {
		r.Days = append(r.Days, histstore.ChurnDay{})
		d := &r.Days[len(r.Days)-1]
		return s.lit(`{"date":`) && s.instant(&d.Date) &&
			s.lit(`,"added":`) && s.int(&d.Added) &&
			s.lit(`,"removed":`) && s.int(&d.Removed) &&
			s.lit(`,"changed":`) && s.int(&d.Changed) &&
			s.lit(`}`)
	})
	return r, ok && s.end()
}

func (s *scanner) namePage() (r NameResponse, ok bool) {
	if !(s.lit(`{"token":`) && s.str(&r.Token) &&
		s.lit(`,"count":`) && s.int(&r.Count) &&
		s.lit(`,"postings":[`)) {
		return r, false
	}
	r.Postings = make([]NamePosting, 0, s.room(r.Count, len(`{"prefix":"","first":"","last":""},`)))
	ok = s.elems(func() bool {
		r.Postings = append(r.Postings, NamePosting{})
		n := len(r.Postings) - 1
		p := &r.Postings[n]
		// Postings come sorted by prefix: a repeated one is the last one's.
		prev := ""
		if n > 0 {
			prev = r.Postings[n-1].Prefix
		}
		return s.lit(`{"prefix":`) && s.strLike(&p.Prefix, prev) &&
			s.lit(`,"first":`) && s.instant(&p.First) &&
			s.lit(`,"last":`) && s.instant(&p.Last) &&
			s.lit(`}`)
	})
	return r, ok && s.nextCursor(&r.NextCursor) && s.end()
}

func (s *scanner) days() (r DaysResponse, ok bool) {
	if !(s.lit(`{"count":`) && s.int(&r.Count) && s.lit(`,"days":[`)) {
		return r, false
	}
	r.Days = make([]time.Time, 0, s.room(r.Count, len(`"",`)))
	ok = s.elems(func() bool {
		r.Days = append(r.Days, time.Time{})
		return s.instant(&r.Days[len(r.Days)-1])
	})
	return r, ok && s.end()
}
