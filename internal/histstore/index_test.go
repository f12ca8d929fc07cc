package histstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// naivePostings is tokenPostings as it was before closed intervals were
// packed: every closed interval an element of a slice. It is the model
// TestPackedPostingsMatchNaiveModel checks the packed form against.
type naivePostings struct {
	closed       []interval
	open, active int32
	pops         int // seamless re-appearances, so the test can see it hit them
}

func (tp *naivePostings) add(snap int) {
	tp.active++
	if tp.active == 1 && tp.open < 0 {
		if n := len(tp.closed); n > 0 && int(tp.closed[n-1].last) == snap-1 {
			tp.open = tp.closed[n-1].first
			tp.closed = tp.closed[:n-1]
			tp.pops++
		} else {
			tp.open = int32(snap)
		}
	}
}

func (tp *naivePostings) remove(snap int) {
	tp.active--
	if tp.active == 0 && tp.open >= 0 {
		tp.closed = append(tp.closed, interval{first: tp.open, last: int32(snap - 1)})
		tp.open = -1
	}
}

// TestPackedPostingsMatchNaiveModel drives the name index and the naive
// model through seeded random add/remove/rename sequences over thousands of
// snapshots — mostly consecutive, with jumps past 127 and 16 383 snapshots
// so gaps and lengths need two- and three-byte varints — in an order that
// sometimes removes a token's last record before re-adding it within one
// snapshot (the seamless re-appearance that pops the newest interval).
// Every posting list, and FindName's view of it, must be identical.
func TestPackedPostingsMatchNaiveModel(t *testing.T) {
	owners := []string{"brian", "emma", "olivia", "noah", "liam"}
	devices := []string{"iphone", "ipad", "mbp", "galaxy"}
	prefixes := []dnswire.Prefix{
		dnswire.MustPrefix("10.1.0.0/24"), dnswire.MustPrefix("10.1.1.0/24"), dnswire.MustPrefix("10.1.2.0/24"),
	}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		ix := newNameIndex()
		model := map[string]map[dnswire.Prefix]*naivePostings{}
		apply := func(name dnswire.Name, p dnswire.Prefix, snap int, add bool) {
			if add {
				ix.apply([]deltaEntry{{kind: scanengine.RecordAdded, new: name}}, p, snap)
			} else {
				ix.apply([]deltaEntry{{kind: scanengine.RecordRemoved, old: name}}, p, snap)
			}
			for _, tok := range appendTokens(nil, name) {
				if model[tok] == nil {
					model[tok] = map[dnswire.Prefix]*naivePostings{}
				}
				tp := model[tok][p]
				if tp == nil {
					tp = &naivePostings{open: -1}
					model[tok][p] = tp
				}
				if add {
					tp.add(snap)
				} else {
					tp.remove(snap)
				}
			}
		}
		live := map[dnswire.Prefix]map[byte]dnswire.Name{}
		for _, p := range prefixes {
			live[p] = map[byte]dnswire.Name{}
		}
		snap := 0
		for step := 0; step < 2500; step++ {
			switch x := r.Intn(100); {
			case x < 2:
				snap += 16384 + r.Intn(5000)
			case x < 8:
				snap += 128 + r.Intn(400)
			default:
				snap++
			}
			for ops := r.Intn(4); ops > 0; ops-- {
				p := prefixes[r.Intn(len(prefixes))]
				octet := byte(r.Intn(6))
				name := dnswire.MustName(fmt.Sprintf("%ss-%s.dyn.example.edu",
					owners[r.Intn(len(owners))], devices[r.Intn(len(devices))]))
				old, present := live[p][octet]
				switch {
				case !present:
					live[p][octet] = name
					apply(name, p, snap, true)
				case r.Intn(2) == 0:
					delete(live[p], octet)
					apply(old, p, snap, false)
				default: // a rename: the old name's tokens go, the new one's come
					live[p][octet] = name
					apply(old, p, snap, false)
					apply(name, p, snap, true)
				}
			}
		}

		times := make([]time.Time, snap+1)
		for i := range times {
			times[i] = time.Unix(int64(i)*86400, 0).UTC()
		}
		var pops, long, wide, midLen, midGap int
		for tok, byPrefix := range model {
			var want []Posting
			sorted := make([]dnswire.Prefix, 0, len(byPrefix))
			for p := range byPrefix {
				sorted = append(sorted, p)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr.Uint32() < sorted[j].Addr.Uint32() })
			for _, p := range sorted {
				m := byPrefix[p]
				tp := ix.blocks[p.Addr.Uint32()][tok]
				if got := tp.closed(nil); !reflect.DeepEqual(got, m.closed) && len(got)+len(m.closed) > 0 {
					t.Fatalf("seed %d %q %v: closed %v, model %v", seed, tok, p, got, m.closed)
				}
				if tp.open != m.open || tp.active != m.active {
					t.Fatalf("seed %d %q %v: open %d active %d, model %d %d", seed, tok, p, tp.open, tp.active, m.open, m.active)
				}
				pops += m.pops
				prevLast := int32(0)
				for _, iv := range m.closed {
					switch n := iv.last - iv.first; {
					case n > 16383:
						long++
					case n > 127:
						midLen++
					}
					switch d := iv.first - prevLast; {
					case d > 16383:
						wide++
					case d > 127:
						midGap++
					}
					prevLast = iv.last
					want = append(want, Posting{Prefix: p, First: times[iv.first], Last: times[iv.last]})
				}
				if m.open >= 0 {
					want = append(want, Posting{Prefix: p, First: times[m.open], Last: times[snap]})
				}
			}
			if got := ix.find(tok, snap, times); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: find(%q) = %d postings, model %d\n got  %+v\n want %+v", seed, tok, len(got), len(want), got, want)
			}
		}
		if pops == 0 || long == 0 || wide == 0 || midLen == 0 || midGap == 0 {
			t.Fatalf("seed %d never exercised a case: %d pops; lengths %d past 16383, %d in 128..16383; gaps %d past 16383, %d in 128..16383",
				seed, pops, long, midLen, wide, midGap)
		}
	}
}
