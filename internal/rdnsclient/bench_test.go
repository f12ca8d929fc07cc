package rdnsclient

import (
	"fmt"
	"testing"
	"time"

	"rdnsprivacy/internal/histstore"
)

// decodeBodies are 200 bodies of the sizes the harness's serve-scan-cold
// traffic has: a 250-row range page, 120 churn days, a 750-posting name
// page, and one /at answer.
func decodeBodies() map[string][]byte {
	day := func(d int) time.Time { return time.Date(2020, 3, 1+d, 0, 0, 0, 0, time.UTC) }
	rng := RangeResponse{Prefix: "10.0.1.0/24", From: day(0), To: day(0), Count: 250, NextCursor: "cjE6MDAwMDAwMDAwMDAwMDAwMDoxOjE6MToxNTgzMDIwODAw"}
	for h := 0; h < 250; h++ {
		rng.Rows = append(rng.Rows, RangeRow{Date: day(0), IP: fmt.Sprintf("10.0.1.%d", h), PTR: fmt.Sprintf("host-%d.dyn.example.net.", h)})
	}
	churn := ChurnResponse{Prefix: "10.0.1.0/24", From: day(0), To: day(119)}
	for d := 1; d < 120; d++ {
		churn.Days = append(churn.Days, histstore.ChurnDay{Date: day(d), Added: d % 7, Removed: d % 5, Changed: d % 3})
	}
	name := NameResponse{Token: "kiosk", Count: 750}
	for k := 0; k < 750; k++ {
		name.Postings = append(name.Postings, NamePosting{Prefix: fmt.Sprintf("10.%d.%d.0/24", 1+k/250, k%250), First: day(k % 30), Last: day(30 + k%60)})
	}
	at := AtResponse{IP: "10.0.1.7", T: day(3), Resolved: day(3), Found: true, Name: "brians-iphone.lan.example.net."}
	return map[string][]byte{
		"at": at.AppendJSON(nil), "range": rng.AppendJSON(nil), "churn": churn.AppendJSON(nil), "name": name.AppendJSON(nil),
	}
}

// BenchmarkClientDecode measures what Client.do spends turning a 200 body
// into its response value. bench-check holds the allocs/op: a row's strings
// (two for a range row, one for a posting) plus the slice, and nothing for
// an instant equal to the one before it.
func BenchmarkClientDecode(b *testing.B) {
	bodies := decodeBodies()
	run := func(name string, fresh func() any) {
		b.Run(name, func(b *testing.B) {
			body := bodies[name]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := decode(body, fresh()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("at", func() any { return new(AtResponse) })
	run("range", func() any { return new(RangeResponse) })
	run("churn", func() any { return new(ChurnResponse) })
	run("name", func() any { return new(NameResponse) })
}
