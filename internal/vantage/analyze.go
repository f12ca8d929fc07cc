package vantage

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scanengine"
)

// Config tunes the disagreement analyzer.
type Config struct {
	// LagWindow is the agreement window in snapshots: a vantage whose
	// view matches a reference state at most LagWindow snapshots old is
	// lagged, not wrong. Values below 1 mean 1.
	LagWindow int
}

func (c Config) lagWindow() int {
	if c.LagWindow < 1 {
		return 1
	}
	return c.LagWindow
}

// Tally is one disagreement ledger — a day's, or the whole campaign's.
// Counts are per-octet classifications against the cross-vantage
// reference view (see docs/campaigns.md for the taxonomy).
type Tally struct {
	// Agreements counts records every vantage held with the reference
	// name.
	Agreements int `json:"agreements"`
	// Missed counts (vantage, record) pairs where an established
	// reference record was absent from a vantage's view, beyond what the
	// lag window excuses.
	Missed int `json:"missed"`
	// OnlyAt counts (vantage, record) pairs exactly one vantage held and
	// the reference never established.
	OnlyAt int `json:"only_at"`
	// Conflicts counts (vantage, record) pairs whose name differed from
	// the reference, beyond what the lag window excuses.
	Conflicts int `json:"conflicts"`
	// Lagged counts deviations the lag window excused: the vantage
	// matched a reference state at most LagWindow snapshots old (a miss
	// of a brand-new record, a stale name, a stale leftover).
	Lagged int `json:"lagged"`
	// Changes counts reference-view PTR transitions; FullyCorroborated
	// how many every vantage's view confirmed within the lag window.
	Changes           int `json:"changes"`
	FullyCorroborated int `json:"fully_corroborated"`
	// MeanCorroboration is the mean per-change corroboration score in
	// [0,1] — 1 when there were no changes. The campaign total weights
	// by change, not by day.
	MeanCorroboration float64 `json:"mean_corroboration"`
}

// VantageTally is one vantage's share of a ledger: how its own view
// deviated, and how many reference changes it corroborated.
type VantageTally struct {
	Name string `json:"name"`
	// Agreements counts records this vantage held with the reference
	// name (regardless of the other vantages).
	Agreements int `json:"agreements"`
	Missed     int `json:"missed,omitempty"`
	OnlyAt     int `json:"only_at,omitempty"`
	Conflicts  int `json:"conflicts,omitempty"`
	Lagged     int `json:"lagged,omitempty"`
	// Corroborated counts reference changes this vantage's view
	// confirmed within the lag window.
	Corroborated int `json:"corroborated,omitempty"`
}

// DayReport is one snapshot day's analysis: the reference view's size
// and churn, the day's disagreement ledger, and each vantage's share.
type DayReport struct {
	// Date is the snapshot instant.
	Date time.Time `json:"date"`
	// Addresses is the reference view's record count this day.
	Addresses int `json:"addresses"`
	// Added/Removed/Changed count the reference view's churn against the
	// previous day (day 0 diffs against empty: everything is added).
	Added   int `json:"added"`
	Removed int `json:"removed"`
	Changed int `json:"changed"`
	Tally
	// Vantages holds each vantage's share, in report vantage order.
	Vantages []VantageTally `json:"vantages"`
}

// Stats converts the day to the obs-local frame mirror.
func (d DayReport) Stats(vantages int) obs.VantageStats {
	return obs.VantageStats{
		Vantages:          vantages,
		Agreements:        d.Agreements,
		Missed:            d.Missed,
		OnlyAt:            d.OnlyAt,
		Conflicts:         d.Conflicts,
		Lagged:            d.Lagged,
		Changes:           d.Changes,
		FullyCorroborated: d.FullyCorroborated,
		MeanCorroboration: d.MeanCorroboration,
	}
}

// Report is a campaign's full disagreement analysis — pure data,
// JSON-serializable, deterministic for a given store state and config.
type Report struct {
	// Vantages are the analyzed vantages' names, sorted; per-vantage slices
	// throughout the report follow this order.
	Vantages []string `json:"vantages"`
	// LagWindow is the agreement window the analysis used.
	LagWindow int `json:"lag_window"`
	// Days holds one entry per snapshot day, in time order.
	Days []DayReport `json:"days"`
	// Totals aggregates the campaign; PerVantage each vantage's share.
	Totals     Tally          `json:"totals"`
	PerVantage []VantageTally `json:"per_vantage"`
}

// Digest is a 64-bit FNV-1a over the report's canonical JSON, in hex —
// the replay-determinism fingerprint: same seeds, same digest.
func (r *Report) Digest() string {
	b, err := json.Marshal(r)
	if err != nil {
		return ""
	}
	h := fnv.New64a()
	h.Write(b)
	return obs.Hex16(h.Sum64())
}

// analyzer carries the vantages' stores and the day axis through a run,
// and one /24's views, each a packed state sorted by octet: states[k][i]
// is vantage i's on day k, refs[k] the reference's. The views' buffers
// carry over from block to block.
type analyzer struct {
	names  []string
	stores []*histstore.Store
	days   []time.Time
	lag    int

	states [][][]scanengine.Entry
	refs   [][]scanengine.Entry
	arena  []scanengine.Entry // the states' copies, then the refs
	lists  [][]scanengine.Entry
	heads  []int
	held   []bool
	at     []dnswire.Name // what each list holds at the merge's octet
}

func newAnalyzer(stores map[string]*histstore.Store, cfg Config) (*analyzer, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("vantage: no stores to analyze")
	}
	a := &analyzer{lag: cfg.lagWindow()}
	for n := range stores {
		a.names = append(a.names, n)
	}
	sort.Strings(a.names)
	var all []time.Time
	for _, n := range a.names {
		a.stores = append(a.stores, stores[n])
		all = append(all, stores[n].Times()...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Before(all[j]) })
	for _, t := range all {
		if len(a.days) == 0 || t.After(a.days[len(a.days)-1]) {
			a.days = append(a.days, t)
		}
	}
	W := len(a.stores)
	a.states, a.refs = make([][][]scanengine.Entry, len(a.days)), make([][]scanengine.Entry, len(a.days))
	for k := range a.states {
		a.states[k] = make([][]scanengine.Entry, W)
	}
	a.heads, a.held, a.at = make([]int, W+1), make([]bool, W+1), make([]dnswire.Name, W+1)
	return a, nil
}

// unionBlocks lists every /24 any of the stores indexes, once, in address
// order — the block universe the vantages' views diverge within.
func unionBlocks(stores map[string]*histstore.Store) []dnswire.Prefix {
	var all []dnswire.Prefix
	for _, st := range stores {
		all = append(all, st.Blocks()...)
	}
	slices.SortFunc(all, func(a, b dnswire.Prefix) int { return cmp.Compare(a.Addr.Uint32(), b.Addr.Uint32()) })
	return slices.Compact(all)
}

// Analyze reconstructs every vantage's view day by day from its store,
// keyed by vantage name, and classifies their divergence against the
// cross-vantage reference: per /24, per octet, per day, each vantage
// either agrees, lags, misses, conflicts, or holds a record only it saw —
// and every reference-view PTR change gets a corroboration score. The
// result is deterministic: sorted vantage, block and day axes, and fixed
// octet order leave nothing to scheduling.
//
// The reference view is the plurality name among the vantages holding a
// record (ties to the lexicographically smallest name); a record only
// one of several vantages holds enters the reference only while it was
// already established the previous day.
func Analyze(stores map[string]*histstore.Store, cfg Config) (*Report, error) {
	a, err := newAnalyzer(stores, cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Vantages: a.names, LagWindow: a.lag, Days: make([]DayReport, len(a.days))}
	for k, d := range a.days {
		rep.Days[k].Date = d
		rep.Days[k].Vantages = make([]VantageTally, len(a.names))
		for i, n := range a.names {
			rep.Days[k].Vantages[i].Name = n
		}
	}
	corroSum := make([]float64, len(a.days))
	for _, p := range unionBlocks(stores) {
		if err := a.analyzeBlock(p, rep, corroSum); err != nil {
			return nil, err
		}
	}
	a.finalize(rep, corroSum)
	return rep, nil
}

// read fills states for block p, walking each vantage's store once over
// the union's days: a day sees the vantage's newest snapshot at or before
// it (none before its first). It reports whether any view held a record.
func (a *analyzer) read(p dnswire.Prefix) (held bool, err error) {
	D := len(a.days)
	a.arena = a.arena[:0]
	for i, store := range a.stores {
		k := 0
		var cur []scanengine.Entry
		err := store.EachSnapshot(context.Background(), p, a.days[0], a.days[D-1], func(t time.Time, snap scanengine.Blocks) error {
			for ; a.days[k].Before(t); k++ {
				a.states[k][i] = cur
			}
			var st []scanengine.Entry
			if len(snap) > 0 {
				st = snap[0].Entries
			}
			if !slices.Equal(st, cur) { // the walk reuses its buffers: copy
				n := len(a.arena)
				a.arena = append(a.arena, st...)
				cur = a.arena[n:len(a.arena):len(a.arena)]
				held = held || len(cur) > 0
			}
			return nil
		})
		if err != nil {
			return false, err
		}
		for ; k < D; k++ {
			a.states[k][i] = cur
		}
	}
	return held, nil
}

// merge calls fn for every octet any of lists holds, in ascending order,
// with held[i] and at[i] saying what lists[i] holds there ("" for none).
func (a *analyzer) merge(lists [][]scanengine.Entry, fn func(oct byte)) {
	clear(a.heads)
	for {
		next := 256
		for i, l := range lists {
			if h := a.heads[i]; h < len(l) {
				next = min(next, int(l[h].Octet))
			}
		}
		if next == 256 {
			return
		}
		for i, l := range lists {
			h := a.heads[i]
			a.held[i], a.at[i] = h < len(l) && int(l[h].Octet) == next, ""
			if a.held[i] {
				a.at[i] = l[h].Name
				a.heads[i]++
			}
		}
		fn(byte(next))
	}
}

// lookup returns the name a packed state holds at oct.
func lookup(st []scanengine.Entry, oct byte) (dnswire.Name, bool) {
	j, ok := slices.BinarySearchFunc(st, oct, func(e scanengine.Entry, o byte) int { return cmp.Compare(e.Octet, o) })
	if !ok {
		return "", false
	}
	return st[j].Name, true
}

// analyzeBlock folds one /24's classifications into the report. Day by
// day, one merge of the vantages' views with the reference's day before
// builds the day's reference, classifies every view against it, and
// counts the reference's changes.
func (a *analyzer) analyzeBlock(p dnswire.Prefix, rep *Report, corroSum []float64) error {
	W, D := len(a.stores), len(a.days)
	if held, err := a.read(p); err != nil || !held {
		return err
	}
	for k := 0; k < D; k++ {
		day := &rep.Days[k]
		var prev []scanengine.Entry
		if k > 0 {
			prev = a.refs[k-1]
		}
		n := len(a.arena)
		a.lists = append(append(a.lists[:0], a.states[k]...), prev)
		a.merge(a.lists, func(oct byte) {
			held, names := a.held[:W], a.at[:W]
			hadOld, oldName := a.held[W], a.at[W]
			// The reference view: plurality among holders; a single
			// holder of several vantages only carries an
			// already-established record forward.
			refName, holders := plurality(names, held)
			inRef := holders >= 2 || (holders == 1 && (W == 1 || hadOld))
			if !inRef {
				refName = ""
			} else {
				a.arena = append(a.arena, scanengine.Entry{Octet: oct, Name: refName})
				day.Addresses++
			}

			// Classification. Off the reference, a holder has a record
			// only it saw; on it, a vantage agrees, misses or conflicts.
			// Either deviation is lagged if the reference matched the
			// view within the lag window.
			allAgree := inRef
			for i := 0; i < W; i++ {
				vt := &day.Vantages[i]
				if inRef && held[i] && names[i] == refName {
					vt.Agreements++
					continue
				}
				if !inRef && !held[i] {
					continue
				}
				allAgree = false
				excused := false
				for j := k - a.lag; j < k && !excused; j++ {
					if j < 0 { // days before the campaign hold nothing
						excused = !held[i]
						continue
					}
					name, ok := lookup(a.refs[j], oct)
					excused = ok == held[i] && name == names[i]
				}
				switch {
				case excused:
					day.Lagged++
					vt.Lagged++
				case !inRef:
					day.OnlyAt++
					vt.OnlyAt++
				case !held[i]:
					day.Missed++
					vt.Missed++
				default:
					day.Conflicts++
					vt.Conflicts++
				}
			}
			if allAgree {
				day.Agreements++
			}

			// Reference churn; a vantage corroborates a change its view
			// shows within the lag window.
			if hadOld == inRef && oldName == refName {
				return
			}
			switch {
			case !hadOld:
				day.Added++
			case !inRef:
				day.Removed++
			default:
				day.Changed++
			}
			day.Changes++
			by := 0
			for i := 0; i < W; i++ {
				for d := k; d <= k+a.lag && d < D; d++ {
					if name, has := lookup(a.states[d][i], oct); has == inRef && name == refName {
						by++
						day.Vantages[i].Corroborated++
						break
					}
				}
			}
			corroSum[k] += float64(by) / float64(W)
			if by == W {
				day.FullyCorroborated++
			}
		})
		a.refs[k] = a.arena[n:len(a.arena):len(a.arena)]
	}
	return nil
}

// plurality picks the name most holders hold, ties to the smallest, and
// counts the holders.
func plurality(names []dnswire.Name, held []bool) (best dnswire.Name, holders int) {
	bestN := 0
	for i, name := range names {
		if !held[i] {
			continue
		}
		holders++
		n := 0
		for j, other := range names {
			if held[j] && other == name {
				n++
			}
		}
		if n > bestN || (n == bestN && name < best) {
			best, bestN = name, n
		}
	}
	return best, holders
}

// finalize computes the day means and campaign totals.
func (a *analyzer) finalize(rep *Report, corroSum []float64) {
	rep.PerVantage = make([]VantageTally, len(a.names))
	for i, n := range a.names {
		rep.PerVantage[i].Name = n
	}
	var changeSum float64
	for k := range rep.Days {
		day := &rep.Days[k]
		if day.Changes > 0 {
			day.MeanCorroboration = corroSum[k] / float64(day.Changes)
		} else {
			day.MeanCorroboration = 1
		}
		rep.Totals.Agreements += day.Agreements
		rep.Totals.Missed += day.Missed
		rep.Totals.OnlyAt += day.OnlyAt
		rep.Totals.Conflicts += day.Conflicts
		rep.Totals.Lagged += day.Lagged
		rep.Totals.Changes += day.Changes
		rep.Totals.FullyCorroborated += day.FullyCorroborated
		changeSum += corroSum[k]
		for i := range day.Vantages {
			vt, tot := day.Vantages[i], &rep.PerVantage[i]
			tot.Agreements += vt.Agreements
			tot.Missed += vt.Missed
			tot.OnlyAt += vt.OnlyAt
			tot.Conflicts += vt.Conflicts
			tot.Lagged += vt.Lagged
			tot.Corroborated += vt.Corroborated
		}
	}
	if rep.Totals.Changes > 0 {
		rep.Totals.MeanCorroboration = changeSum / float64(rep.Totals.Changes)
	} else {
		rep.Totals.MeanCorroboration = 1
	}
}
