package dynamicity

import (
	"bytes"
	"strings"
	"testing"

	"rdnsprivacy/internal/dnswire"
)

// TestReportReadsBack: what WriteReport writes, ReadPrefixes reads back as
// the dynamic /24s, tallies line and header skipped; bare prefixes and
// comments read too, and a line that is no prefix is an error.
func TestReportReadsBack(t *testing.T) {
	res := &Result{TotalPrefixes: 12, ConsideredPrefixes: 5, Verdicts: map[dnswire.Prefix]PrefixVerdict{}}
	for _, s := range []string{"10.0.1.0/24", "10.0.9.0/24", "192.0.2.0/24"} {
		p := dnswire.MustPrefix(s)
		res.DynamicPrefixes = append(res.DynamicPrefixes, p)
		res.Verdicts[p] = PrefixVerdict{Prefix: p, Considered: true, Dynamic: true, MaxDaily: 40, ChangeDays: 8}
	}
	var out bytes.Buffer
	res.WriteReport(&out)
	want := "# /24s with PTRs: 12; considered: 5; dynamic: 3\nprefix,max_daily,change_days\n10.0.1.0/24,40,8\n10.0.9.0/24,40,8\n192.0.2.0/24,40,8\n"
	if out.String() != want {
		t.Fatalf("report:\n%s\nwant:\n%s", out.String(), want)
	}
	got, err := ReadPrefixes(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read back %v", got)
	}
	for _, p := range res.DynamicPrefixes {
		if !got[p] {
			t.Fatalf("read back %v, missing %s", got, p)
		}
	}

	got, err = ReadPrefixes(strings.NewReader("# note\n\n10.0.2.0/24\n  10.0.3.0/24,1,2  \n"))
	if err != nil || len(got) != 2 || !got[dnswire.MustPrefix("10.0.3.0/24")] {
		t.Fatalf("bare prefixes: %v, %v", got, err)
	}
	if _, err := ReadPrefixes(strings.NewReader("/24s with PTRs: 1; considered: 1; dynamic: 0\n")); err == nil {
		t.Fatal("an uncommented tallies line read as a prefix")
	}
}
