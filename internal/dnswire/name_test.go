package dnswire

import (
	"errors"
	"strings"
	"testing"
)

func TestParseName(t *testing.T) {
	tests := []struct {
		in      string
		want    Name
		wantErr bool
	}{
		{"", Root, false},
		{".", Root, false},
		{"example.com", "example.com.", false},
		{"example.com.", "example.com.", false},
		{"EXAMPLE.COM", "example.com.", false},
		{"Brians-iPhone.campus.example.edu", "brians-iphone.campus.example.edu.", false},
		{"34.216.184.93.in-addr.arpa.", "34.216.184.93.in-addr.arpa.", false},
		{strings.Repeat("a", 64) + ".com", "", true},
		{"a..b", "", true},
	}
	for _, tc := range tests {
		got, err := ParseName(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseName(%q) succeeded, want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseName(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseNameTooLong(t *testing.T) {
	// 128 two-octet labels (each "a.") is 256 encoded octets > 255.
	long := strings.Repeat("a.", 128)
	if _, err := ParseName(long); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("ParseName(long) err = %v, want ErrNameTooLong", err)
	}
}

func TestNameLabels(t *testing.T) {
	n := MustName("a.b.c.example.com")
	labels := n.Labels()
	want := []string{"a", "b", "c", "example", "com"}
	if len(labels) != len(want) {
		t.Fatalf("Labels() = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("Labels() = %v, want %v", labels, want)
		}
	}
	if got := Root.Labels(); got != nil {
		t.Fatalf("Root.Labels() = %v, want nil", got)
	}
}

func TestNameHasSuffix(t *testing.T) {
	tests := []struct {
		name, zone Name
		want       bool
	}{
		{MustName("host.example.com"), MustName("example.com"), true},
		{MustName("example.com"), MustName("example.com"), true},
		{MustName("example.com"), MustName("host.example.com"), false},
		{MustName("badexample.com"), MustName("example.com"), false},
		{MustName("anything.net"), Root, true},
	}
	for _, tc := range tests {
		if got := tc.name.HasSuffix(tc.zone); got != tc.want {
			t.Errorf("%q.HasSuffix(%q) = %v, want %v", tc.name, tc.zone, got, tc.want)
		}
	}
}

func TestNamePrepend(t *testing.T) {
	n, err := MustName("example.com").Prepend("Host1")
	if err != nil {
		t.Fatal(err)
	}
	if n != MustName("host1.example.com") {
		t.Fatalf("Prepend = %q", n)
	}
	if _, err := MustName("example.com").Prepend(""); !errors.Is(err, ErrEmptyLabel) {
		t.Fatalf("Prepend empty err = %v, want ErrEmptyLabel", err)
	}
	if _, err := MustName("example.com").Prepend(strings.Repeat("x", 64)); !errors.Is(err, ErrLabelTooLong) {
		t.Fatalf("Prepend long err = %v, want ErrLabelTooLong", err)
	}
}

func TestAppendNameRoundTrip(t *testing.T) {
	names := []Name{
		Root,
		MustName("com"),
		MustName("example.com"),
		MustName("brians-iphone.dyn.campus-a.example.edu"),
		MustName("34.216.184.93.in-addr.arpa"),
	}
	for _, n := range names {
		buf, err := AppendName(nil, n)
		if err != nil {
			t.Fatalf("AppendName(%q): %v", n, err)
		}
		got, off, err := decodeName(buf, 0)
		if err != nil {
			t.Fatalf("decodeName(%q): %v", n, err)
		}
		if got != n {
			t.Fatalf("round trip: got %q, want %q", got, n)
		}
		if off != len(buf) {
			t.Fatalf("decodeName offset = %d, want %d", off, len(buf))
		}
	}
}

func TestDecodeNameCompression(t *testing.T) {
	// Build: "f.isi.arpa" at offset 0, then "foo.f.isi.arpa" as
	// pointer-compressed (RFC 1035 §4.1.4 example, adapted).
	buf, err := AppendName(nil, MustName("f.isi.arpa"))
	if err != nil {
		t.Fatal(err)
	}
	second := len(buf)
	buf = append(buf, 3, 'f', 'o', 'o', 0xC0, 0x00)
	got, off, err := decodeName(buf, second)
	if err != nil {
		t.Fatal(err)
	}
	if got != MustName("foo.f.isi.arpa") {
		t.Fatalf("decoded %q, want foo.f.isi.arpa.", got)
	}
	if off != len(buf) {
		t.Fatalf("offset = %d, want %d", off, len(buf))
	}
}

func TestDecodeNamePointerLoopRejected(t *testing.T) {
	// A pointer that points at itself must be rejected (forward/self
	// pointers are invalid).
	buf := []byte{0xC0, 0x00}
	if _, _, err := decodeName(buf, 0); err == nil {
		t.Fatal("self-pointer accepted")
	}
	// A two-step loop: name at 2 points to 0, name at 0 points to 2.
	buf = []byte{0xC0, 0x02, 0xC0, 0x00}
	if _, _, err := decodeName(buf, 2); err == nil {
		t.Fatal("pointer loop accepted")
	}
}

func TestDecodeNameTruncated(t *testing.T) {
	cases := [][]byte{
		{},
		{5, 'a', 'b'},
		{0xC0},
		{3, 'c', 'o', 'm'}, // missing root octet
	}
	for i, buf := range cases {
		if _, _, err := decodeName(buf, 0); err == nil {
			t.Errorf("case %d: truncated name accepted", i)
		}
	}
}

func TestDecodeNameReservedLabelType(t *testing.T) {
	buf := []byte{0x80, 'x', 0}
	if _, _, err := decodeName(buf, 0); !errors.Is(err, ErrReservedLabel) {
		t.Fatalf("err = %v, want ErrReservedLabel", err)
	}
}

func TestCompressedNameReuse(t *testing.T) {
	var cmap compressionMap
	buf, err := appendCompressedName(nil, MustName("host1.example.com"), &cmap)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := len(buf)
	second := len(buf)
	buf, err = appendCompressedName(buf, MustName("host2.example.com"), &cmap)
	if err != nil {
		t.Fatal(err)
	}
	// host2 + pointer should be much shorter than the full name.
	if len(buf)-firstLen >= firstLen {
		t.Fatalf("no compression: second name used %d octets", len(buf)-firstLen)
	}
	got, _, err := decodeName(buf, second)
	if err != nil {
		t.Fatal(err)
	}
	if got != MustName("host2.example.com") {
		t.Fatalf("decoded %q", got)
	}
	// Identical name compresses to a bare pointer (2 octets).
	third := len(buf)
	buf, err = appendCompressedName(buf, MustName("host1.example.com"), &cmap)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)-third != 2 {
		t.Fatalf("identical name used %d octets, want 2", len(buf)-third)
	}
	got, _, err = decodeName(buf, third)
	if err != nil {
		t.Fatal(err)
	}
	if got != MustName("host1.example.com") {
		t.Fatalf("decoded %q", got)
	}
}

// decodeName materializes the name in msg at off.
func decodeName(msg []byte, off int) (Name, int, error) {
	var nb [MaxNameLen + 1]byte
	name, end, err := walkName(nb[:0], msg, off, true)
	if err != nil {
		return "", 0, err
	}
	return Name(name), end, nil
}
