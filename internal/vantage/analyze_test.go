package vantage_test

import (
	"path/filepath"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/vantage"
)

// gappedStores writes three hand-made vantage stores whose timelines
// differ: "a" holds every one of twelve days, "b" skips days 3 and 7,
// and "c" starts on day 2, skips days 5, 6 and 9, adds a snapshot half a
// day after day 8 that no other vantage has, and ends on day 10. Each
// vantage sees a shared truth through its own drops, renames and
// day-old answers, so every classification and plurality ties occur. The
// stores compact mid-history, so their reads cross sealed segments into
// their tails. It returns the stores reopened read-only.
func gappedStores(t *testing.T) map[string]*histstore.Store {
	t.Helper()
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	blocks := []dnswire.Prefix{
		dnswire.MustPrefix("10.0.1.0/24"),
		dnswire.MustPrefix("10.0.2.0/24"),
		dnswire.MustPrefix("10.0.3.0/24"),
	}
	// truth is the shared record set of day d (negative days are empty).
	truth := func(d int) map[dnswire.IPv4]string {
		out := make(map[dnswire.IPv4]string)
		if d < 0 {
			return out
		}
		for bi, p := range blocks {
			for o := 1; o < 40; o++ {
				h := mix(uint64(bi)<<16 | uint64(o)<<8 | uint64(d/3))
				if bi == 2 && d < 4 {
					continue // the third /24 comes alive on day 4
				}
				if h%10 < 7 {
					ip := dnswire.IPv4{p.Addr[0], p.Addr[1], p.Addr[2], byte(o)}
					out[ip] = "host-" + string(rune('a'+int(mix(h+uint64(d))%3))) + ".example.net"
				}
			}
		}
		return out
	}
	type vantageDays struct {
		name string
		days []time.Time
		salt uint64
	}
	var all, b, c []time.Time
	for d := 0; d < 12; d++ {
		at := start.AddDate(0, 0, d)
		all = append(all, at)
		if d != 3 && d != 7 {
			b = append(b, at)
		}
		if d >= 2 && d <= 10 && d != 5 && d != 6 && d != 9 {
			c = append(c, at)
		}
		if d == 8 {
			c = append(c, at.Add(12*time.Hour))
		}
	}
	dir := t.TempDir()
	for _, v := range []vantageDays{{"a", all, 1}, {"b", b, 2}, {"c", c, 3}} {
		path := filepath.Join(dir, v.name)
		st, err := histstore.Open(path, histstore.WithWriter(v.name), histstore.WithBaseInterval(2))
		if err != nil {
			t.Fatal(err)
		}
		for k, at := range v.days {
			d := int(at.Sub(start) / (24 * time.Hour))
			today, yesterday := truth(d), truth(d-1)
			recs := scanengine.RecordSet{}
			for o := 0; o < 3*256; o++ {
				ip := dnswire.IPv4{10, 0, byte(1 + o/256), byte(o % 256)}
				name, ok := today[ip]
				switch h := mix(v.salt<<48 | uint64(at.Unix()/3600)<<16 | uint64(o)); h % 10 {
				case 0: // dropped
					ok = false
				case 1: // renamed
					if ok {
						name = "other-" + name
					}
				case 2: // a day-old answer
					name, ok = yesterday[ip]
				}
				if ok {
					recs[ip] = dnswire.MustName(name)
				}
			}
			if err := st.Append(at, recs); err != nil {
				t.Fatal(err)
			}
			if k == 5 {
				if _, err := st.Compact(t.Context(), histstore.CompactOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stores := make(map[string]*histstore.Store)
	for _, name := range []string{"a", "b", "c"} {
		ro, err := histstore.Open(filepath.Join(dir, name), histstore.WithReadOnly())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ro.Close() })
		stores[name] = ro
	}
	return stores
}

// mix is splitmix64's finalizer: a fixed, seedable scramble.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestAnalyzeGappedTimelines pins the report over vantages whose stores
// lack some of the union's days: on a day a vantage has no snapshot, its
// view is its newest snapshot before that day (none before its first).
// The digests were recorded when every view was read with one point
// query per (vantage, day, /24).
func TestAnalyzeGappedTimelines(t *testing.T) {
	stores := gappedStores(t)
	for _, tc := range []struct {
		lag    int
		digest string
	}{
		{1, "9a36833f54feacf7"},
		{3, "d418526b01ddcbe4"},
	} {
		rep, err := vantage.Analyze(stores, vantage.Config{LagWindow: tc.lag})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Days) != 13 {
			t.Fatalf("lag %d: %d report days, want the 13 of the union", tc.lag, len(rep.Days))
		}
		tot := rep.Totals
		if tot.Agreements == 0 || tot.Missed == 0 || tot.OnlyAt == 0 || tot.Conflicts == 0 || tot.Lagged == 0 {
			t.Errorf("lag %d: a class never occurs: %+v", tc.lag, tot)
		}
		if d := rep.Digest(); d != tc.digest {
			t.Errorf("lag %d: report digest %s, want %s", tc.lag, d, tc.digest)
		}
	}
}
