package rdnsclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rdnsprivacy/internal/histstore"
)

// wireShape is what the codec adds to each of the five query shapes.
type wireShape interface{ AppendJSON(dst []byte) []byte }

// wireShapes returns a fresh zero value of each shape the codec covers.
func wireShapes() []any {
	return []any{&AtResponse{}, &RangeResponse{}, &ChurnResponse{}, &NameResponse{}, &DaysResponse{}}
}

// stdEncode is the reference: what the daemon wrote before it had a codec.
func stdEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// hostileStrings are PTR-name-shaped inputs a DHCP client could plant:
// everything encoding/json escapes, replaces or passes through.
var hostileStrings = []string{
	`brians-iphone.lan.example.net.`, `"`, `\`, `<script>alert(1)</script>`, `a&b`,
	"\x00\x01\x1f", "tab\tnew\nline\r", "  ", "\xff\xfe invalid", "münchen.example.", "\x7f", "",
	`10.0.1.0/24`, `back\\slash"quote`, "emoji \U0001f600", "\xc0\xaf",
}

var plainStrings = []string{"10.0.1.7", "printer.example.net.", "10.0.1.0/24", "brians", "cjE6MDAwMDAw", "x y~!#$%'()*+,-./:;=?@[]^_`{|}"}

var (
	utcInstants = []time.Time{
		time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 3, 2, 0, 0, 0, 0, time.UTC),
	}
	oddInstants = []time.Time{
		time.Date(2021, 11, 30, 23, 59, 59, 123456789, time.FixedZone("", 5*3600+30*60)),
		time.Date(1999, 1, 1, 1, 2, 3, 500000000, time.FixedZone("west", -8*3600)),
		time.Date(2020, 3, 1, 0, 0, 0, 1, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", 23*3600+59*60)),
		time.Date(2020, 3, 1, 0, 0, 0, 0, time.FixedZone("", 3600+30)),
		{},
	}
	// Time.MarshalJSON refuses each of these.
	refusedInstants = []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 3, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2020, 3, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600)),
	}
)

// filler sets every field of a shape by reflection, so a field added to
// api.go is exercised — and fails the comparison until wire.go knows it.
type filler struct {
	t     *testing.T
	strs  []string
	times []time.Time
	elems int // slice length; -1 leaves slices nil
	n     int
}

var timeType = reflect.TypeOf(time.Time{})

func (f *filler) fill(v reflect.Value) {
	f.n++
	switch {
	case v.Type() == timeType:
		v.Set(reflect.ValueOf(f.times[f.n%len(f.times)]))
	case v.Kind() == reflect.String:
		v.SetString(f.strs[f.n%len(f.strs)])
	case v.Kind() == reflect.Int:
		v.SetInt(int64(f.n*7919) - 40000)
	case v.Kind() == reflect.Bool:
		v.SetBool(f.n%2 == 0)
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	case v.Kind() == reflect.Slice:
		if f.elems < 0 {
			return
		}
		s := reflect.MakeSlice(v.Type(), f.elems, f.elems)
		for i := 0; i < f.elems; i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	default:
		f.t.Fatalf("cannot fill a %s: teach this test and wire.go the new field kind", v.Type())
	}
}

// checkCodec compares the codec with encoding/json on one value: the same
// bytes out (or nothing, where Encode fails), and the same value back.
func checkCodec(t *testing.T, label string, v any) (body []byte) {
	t.Helper()
	want, encErr := stdEncode(v)
	prefix := []byte("kept:")
	got := v.(wireShape).AppendJSON(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s: AppendJSON clobbered the bytes before it: %q", label, got)
	}
	got = got[len(prefix):]
	if encErr != nil {
		if len(got) != 0 {
			t.Errorf("%s: Encode fails (%v) but AppendJSON appended %q", label, encErr, got)
		}
		return nil
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendJSON differs from json.Encoder.Encode\n got %q\nwant %q", label, got, want)
	}
	checkDecode(t, label, reflect.TypeOf(v).Elem(), got)
	return got
}

// checkDecode compares decode with json.Unmarshal on one body for one shape.
func checkDecode(t *testing.T, label string, typ reflect.Type, body []byte) {
	t.Helper()
	got, want := reflect.New(typ), reflect.New(typ)
	gotErr, wantErr := decode(body, got.Interface()), json.Unmarshal(body, want.Interface())
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s %s: decode error %v, json.Unmarshal error %v\nbody %q", label, typ.Name(), gotErr, wantErr, body)
	}
	if !reflect.DeepEqual(got.Interface(), want.Interface()) {
		t.Fatalf("%s %s: decode differs from json.Unmarshal\n got %+v\nwant %+v\nbody %q", label, typ.Name(), got.Elem(), want.Elem(), body)
	}
}

func TestWireCodecMatchesEncodingJSON(t *testing.T) {
	variants := []struct {
		name    string
		fill    filler
		scanned bool // canonical, plain: the scanner must take it without the fallback
	}{
		{"zero", filler{elems: -1, strs: []string{""}, times: []time.Time{{}}}, false},
		{"plain", filler{elems: 3, strs: plainStrings, times: utcInstants}, true},
		{"plain-empty-slices", filler{elems: 0, strs: plainStrings, times: utcInstants}, true},
		{"plain-nil-slices", filler{elems: -1, strs: plainStrings, times: utcInstants}, false},
		{"plain-one", filler{elems: 1, strs: plainStrings, times: oddInstants}, true},
		{"hostile", filler{elems: 5, strs: hostileStrings, times: oddInstants}, false},
		{"hostile-wide", filler{elems: 40, strs: hostileStrings, times: append(oddInstants, utcInstants...)}, false},
		{"refused-instant", filler{elems: 2, strs: plainStrings, times: refusedInstants}, false},
	}
	for _, vr := range variants {
		// Several starting offsets walk every string and instant through
		// every field.
		for off := 0; off < len(hostileStrings); off++ {
			for _, v := range wireShapes() {
				f := vr.fill
				f.t, f.n = t, off
				f.fill(reflect.ValueOf(v).Elem())
				label := fmt.Sprintf("%s/%d %T", vr.name, off, v)
				body := checkCodec(t, label, v)
				if !vr.scanned {
					continue
				}
				fresh := reflect.New(reflect.TypeOf(v).Elem())
				if !scan(body, fresh.Interface()) {
					t.Errorf("%s: the scanner refused a canonical body and fell back: %q", label, body)
				}
			}
		}
	}

	// The omitempty fields, set and unset, by name: the filler leaves them
	// set in every variant but "zero".
	checkCodec(t, "at found, unnamed", &AtResponse{IP: "10.0.1.7", Found: true})
	checkCodec(t, "range last page", &RangeResponse{Prefix: "10.0.1.0/24", Rows: []RangeRow{}})
	checkCodec(t, "range with cursor", &RangeResponse{Prefix: "10.0.1.0/24", Rows: []RangeRow{}, NextCursor: "cjE6"})
	checkCodec(t, "name last page", &NameResponse{Token: "brians", Postings: []NamePosting{}})
}

// TestEncoderTypedRowsMatchText: the daemon's row methods (four octets, an
// address and a length) append what the text methods append for the same
// row, so the proof above covers what rdnsd sends.
func TestEncoderTypedRowsMatchText(t *testing.T) {
	day := utcInstants[0]
	var typed, text Encoder
	typed.BeginRange(nil, "0.0.0.0/0", day, day, 3)
	text.BeginRange(nil, "0.0.0.0/0", day, day, 3)
	for _, ip := range [][4]byte{{0, 0, 0, 0}, {10, 0, 1, 7}, {255, 255, 255, 255}} {
		typed.RangeRowIPv4(day, ip, "host.example.")
		text.RangeRow(day, fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3]), "host.example.")
	}
	if a, b := typed.EndRange("c"), text.EndRange("c"); !bytes.Equal(a, b) {
		t.Errorf("range rows\ntyped %q\n text %q", a, b)
	}
	typed.BeginName(nil, "brians", 3)
	text.BeginName(nil, "brians", 3)
	for _, p := range []struct {
		addr [4]byte
		bits int
	}{{[4]byte{10, 0, 1, 0}, 24}, {[4]byte{0, 0, 0, 0}, 0}, {[4]byte{192, 168, 100, 255}, 32}} {
		typed.NamePostingPrefix(p.addr, p.bits, day, utcInstants[1])
		text.NamePosting(fmt.Sprintf("%d.%d.%d.%d/%d", p.addr[0], p.addr[1], p.addr[2], p.addr[3], p.bits), day, utcInstants[1])
	}
	if a, b := typed.EndName(""), text.EndName(""); !bytes.Equal(a, b) {
		t.Errorf("name postings\ntyped %q\n text %q", a, b)
	}
}

// canonicalBodies are small daemon-shaped bodies of each shape, the seeds
// the decode fuzzer mutates.
func canonicalBodies(t testing.TB) [][]byte {
	day, next := utcInstants[0], utcInstants[1]
	var out [][]byte
	for _, v := range []wireShape{
		AtResponse{IP: "10.0.1.7", T: day, Resolved: day, Found: true, Name: "brians-iphone.lan.example.net."},
		AtResponse{IP: "10.0.1.8", T: next, Resolved: day},
		RangeResponse{Prefix: "10.0.2.0/24", From: day, To: next, Count: 2, NextCursor: "cjE6MDAwMA", Rows: []RangeRow{
			{Date: day, IP: "10.0.2.4", PTR: "printer.example.net."}, {Date: next, IP: "10.0.2.4", PTR: "printer.example.net."}}},
		RangeResponse{Prefix: "10.0.2.0/24", From: day, To: next, Rows: []RangeRow{}},
		ChurnResponse{Prefix: "10.0.1.0/24", From: day, To: next, Days: []histstore.ChurnDay{{Date: next, Added: 10, Removed: 0, Changed: -1}}},
		NameResponse{Token: "brians", Count: 1, Postings: []NamePosting{{Prefix: "10.0.1.0/24", First: day, Last: next}}},
		DaysResponse{Count: 2, Days: []time.Time{day, next}},
		DaysResponse{},
	} {
		body := v.AppendJSON(nil)
		if len(body) == 0 {
			t.Fatalf("%T: no canonical body", v)
		}
		out = append(out, body)
	}
	return out
}

// mutations returns body changed at byte i in each way a hostile or merely
// different encoder could: the byte dropped (truncations, merged tokens),
// doubled (repeated digits, brackets and commas), or swapped for the bytes
// that make leading zeros, whitespace, escapes, nulls and non-ASCII text.
func mutations(body []byte, i int) [][]byte {
	out := [][]byte{
		append(append([]byte(nil), body[:i]...), body[i+1:]...),
		append(append(append([]byte(nil), body[:i+1]...), body[i]), body[i+1:]...),
		append([]byte(nil), body[:i]...),
	}
	for _, c := range []byte{'0', ' ', '\\', 'n', ',', 0x80} {
		mut := append([]byte(nil), body...)
		mut[i] = c
		out = append(out, mut)
	}
	return out
}

// TestWireDecodeMutations: every single-byte mutation of every canonical
// body decodes as json.Unmarshal decodes it, for every shape — whether the
// scanner takes it, refuses it, or the bytes are no longer JSON at all.
func TestWireDecodeMutations(t *testing.T) {
	for _, body := range canonicalBodies(t) {
		for i := range body {
			for _, mut := range mutations(body, i) {
				for _, v := range wireShapes() {
					checkDecode(t, "mutated", reflect.TypeOf(v).Elem(), mut)
				}
			}
		}
	}
}

// FuzzWireDecode: for any bytes and each shape, the scanner with its
// fallback and plain json.Unmarshal agree on the value and on whether
// there was an error. Seeded with the canonical bodies and a thin slice of
// their mutations (TestWireDecodeMutations runs them all); testdata holds
// the hand-written deviations.
func FuzzWireDecode(f *testing.F) {
	for _, body := range canonicalBodies(f) {
		f.Add(body)
		for i := range body {
			muts := mutations(body, i)
			f.Add(muts[i%len(muts)])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, v := range wireShapes() {
			checkDecode(t, "fuzz", reflect.TypeOf(v).Elem(), body)
		}
	})
}

// FuzzWireEncodeString drives the string and instant paths of the encoder:
// for any text and any instant, an /at body is what Encode writes, or
// nothing where Encode fails, and decodes to what json.Unmarshal gives.
func FuzzWireEncodeString(f *testing.F) {
	for i, s := range hostileStrings {
		f.Add(s, int64(1583020800+i), int64(i*111111111), i*3600-7200)
	}
	f.Add("plain.example.", int64(253402300800), int64(0), 0) // year 10000
	f.Add("plain.example.", int64(-62198755200), int64(0), 0) // year -1
	f.Add("plain.example.", int64(0), int64(5), 24*3600)
	f.Fuzz(func(t *testing.T, s string, sec, nsec int64, zone int) {
		at := time.Unix(sec, nsec).In(time.FixedZone("", zone%(200*3600)))
		checkCodec(t, "fuzz", &AtResponse{IP: s, T: at, Resolved: at.UTC(), Found: sec%2 == 0, Name: s})
		checkCodec(t, "fuzz", &RangeResponse{Prefix: s, From: at, To: at, Count: int(nsec), Rows: []RangeRow{{Date: at, IP: s, PTR: s}}, NextCursor: s})
	})
}

// TestCodecAllocationBudget: encoding into a buffer with room allocates
// nothing, and decoding allocates a row's strings and the slice — an
// instant equal to the one before it costs neither a parse nor a byte.
func TestCodecAllocationBudget(t *testing.T) {
	bodies := decodeBodies()
	var page RangeResponse
	if err := decode(bodies["range"], &page); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(bodies["range"]))
	if n := testing.AllocsPerRun(50, func() { buf = page.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("encoding a %d-row page allocates %v times, want 0", len(page.Rows), n)
	}
	// A week of one /24, 40 stable hosts and 10 renamed daily, and 250
	// postings over 50 prefixes: strings a body repeats are reused.
	day := func(d int) time.Time { return time.Date(2020, 3, 1+d, 0, 0, 0, 0, time.UTC) }
	week := RangeResponse{Prefix: "10.0.1.0/24", From: day(0), To: day(6)}
	for d := 0; d < 7; d++ {
		for h := 0; h < 50; h++ {
			ptr := fmt.Sprintf("host-%d.example.net.", h)
			if h >= 40 {
				ptr = fmt.Sprintf("guest-%d-%d.example.net.", h, d)
			}
			week.Rows = append(week.Rows, RangeRow{Date: day(d), IP: fmt.Sprintf("10.0.1.%d", h), PTR: ptr})
		}
	}
	week.Count = len(week.Rows)
	bodies["range-repeat"] = week.AppendJSON(nil)
	spans := NameResponse{Token: "brian", Count: 250}
	for k := 0; k < 250; k++ {
		spans.Postings = append(spans.Postings, NamePosting{Prefix: fmt.Sprintf("10.1.%d.0/24", k/5), First: day(2 * (k % 5)), Last: day(2*(k%5) + 1)})
	}
	bodies["name-repeat"] = spans.AppendJSON(nil)

	for name, budget := range map[string]float64{
		"at":           3,                             // the response; ip, name
		"range":        2*float64(len(page.Rows)) + 4, // ip and ptr a row; the response, prefix, cursor, rows
		"churn":        3,                             // the response, prefix, days
		"name":         750 + 3,                       // a prefix a posting; the response, token, postings
		"range-repeat": 50 + 40 + 7*10 + 3,            // the 50 ips, 40 stable names, 70 renames; the response, prefix, rows
		"name-repeat":  50 + 3,                        // the 50 prefixes; the response, token, postings
	} {
		body := bodies[name]
		n := testing.AllocsPerRun(20, func() {
			var err error
			switch name {
			case "at":
				var v AtResponse
				err = decode(body, &v)
			case "range", "range-repeat":
				var v RangeResponse
				err = decode(body, &v)
			case "churn":
				var v ChurnResponse
				err = decode(body, &v)
			case "name", "name-repeat":
				var v NameResponse
				err = decode(body, &v)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if n > budget {
			t.Errorf("decoding the %s body allocates %v times, budget %v", name, n, budget)
		}
	}
}
