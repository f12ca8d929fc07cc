package vantage

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/obs"
)

// Config tunes the disagreement analyzer.
type Config struct {
	// LagWindow is the agreement window in snapshots: a vantage whose
	// view matches a reference state at most LagWindow snapshots old is
	// lagged, not wrong. Values below 1 mean 1.
	LagWindow int
	// Writers restricts the analysis to a subset of the store's writers
	// (nil means all). Order is irrelevant; the report sorts by name.
	Writers []string
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
	// Vantages holds each vantage's share, in report writer order.
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
	// Vantages are the analyzed writer ids, sorted; per-vantage slices
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

// analyzer carries the per-writer views and the day axis through a run.
type analyzer struct {
	names []string
	views []*histstore.WriterView
	days  []time.Time
	lag   int
}

func newAnalyzer(st *histstore.Store, cfg Config) (*analyzer, error) {
	names := cfg.Writers
	if len(names) == 0 {
		names = st.Writers()
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("vantage: store has no writers")
	}
	a := &analyzer{names: names, lag: cfg.lagWindow()}
	for _, n := range names {
		v, err := st.WriterView(n)
		if err != nil {
			return nil, err
		}
		a.views = append(a.views, v)
	}
	var all []time.Time
	for _, v := range a.views {
		all = append(all, v.Times()...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Before(all[j]) })
	for _, t := range all {
		if len(a.days) == 0 || t.After(a.days[len(a.days)-1]) {
			a.days = append(a.days, t)
		}
	}
	return a, nil
}

// Analyze reconstructs every writer's view of the store day by day and
// classifies their divergence against the cross-vantage reference: per
// /24, per octet, per day, each vantage either agrees, lags, misses,
// conflicts, or holds a record only it saw — and every reference-view
// PTR change gets a corroboration score. The result is deterministic:
// writer views, sorted block and day axes, and fixed octet order leave
// nothing to scheduling.
//
// The reference view is the plurality name among the vantages holding a
// record (ties to the lexicographically smallest name); a record only
// one of several vantages holds enters the reference only while it was
// already established the previous day.
func Analyze(st *histstore.Store, cfg Config) (*Report, error) {
	a, err := newAnalyzer(st, cfg)
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
	for _, p := range st.Blocks() {
		if err := a.analyzeBlock(p, rep, corroSum); err != nil {
			return nil, err
		}
	}
	a.finalize(rep, corroSum)
	return rep, nil
}

// analyzeBlock folds one /24's classifications into the report.
func (a *analyzer) analyzeBlock(p dnswire.Prefix, rep *Report, corroSum []float64) error {
	W, D := len(a.views), len(a.days)

	// Every writer's block state on every day. BlockAt returns a private
	// copy (nil for "no records"), so holding all of them is safe.
	states := make([][]map[byte]dnswire.Name, W)
	empty := true
	for i, v := range a.views {
		states[i] = make([]map[byte]dnswire.Name, D)
		for k, d := range a.days {
			st, err := v.BlockAt(p, d)
			if err != nil {
				return err
			}
			states[i][k] = st
			if len(st) > 0 {
				empty = false
			}
		}
	}
	if empty {
		return nil
	}

	// The reference view, day by day: plurality among holders; a single
	// holder of several writers only carries an already-established
	// record forward.
	refs := make([]map[byte]dnswire.Name, D)
	for k := 0; k < D; k++ {
		ref := make(map[byte]dnswire.Name)
		for o := 0; o < 256; o++ {
			oct := byte(o)
			count := make(map[dnswire.Name]int)
			var solo dnswire.Name
			holders := 0
			for i := 0; i < W; i++ {
				if name, ok := states[i][k][oct]; ok {
					count[name]++
					solo = name
					holders++
				}
			}
			switch {
			case holders == 0:
			case holders >= 2 || W == 1:
				ref[oct] = plurality(count)
			default: // one holder of several writers
				if k > 0 {
					if _, established := refs[k-1][oct]; established {
						ref[oct] = solo
					}
				}
			}
		}
		refs[k] = ref
	}

	// refLacks reports whether the reference lacked oct at day j (days
	// before the campaign lack everything) — the "is this record newer
	// than the lag window" probe.
	refLacks := func(j int, oct byte) bool {
		if j < 0 {
			return true
		}
		_, ok := refs[j][oct]
		return !ok
	}
	// refHeld reports whether the reference held (oct → name) at day j.
	refHeld := func(j int, oct byte, name dnswire.Name) bool {
		if j < 0 {
			return false
		}
		return refs[j][oct] == name
	}

	for k := 0; k < D; k++ {
		day := &rep.Days[k]
		ref := refs[k]
		day.Addresses += len(ref)

		// Classification: every octet any view or the reference holds.
		for o := 0; o < 256; o++ {
			oct := byte(o)
			refName, inRef := ref[oct]
			if !inRef {
				// Off-reference records: a lone holder of a record the
				// reference never established (holders >= 2 would be in
				// the reference) — or a stale leftover the window excuses.
				for i := 0; i < W; i++ {
					name, has := states[i][k][oct]
					if !has {
						continue
					}
					vt := &day.Vantages[i]
					if a.excusedByLag(k, func(j int) bool { return refHeld(j, oct, name) }) {
						day.Lagged++
						vt.Lagged++
					} else {
						day.OnlyAt++
						vt.OnlyAt++
					}
				}
				continue
			}
			allAgree := true
			for i := 0; i < W; i++ {
				vt := &day.Vantages[i]
				name, has := states[i][k][oct]
				switch {
				case has && name == refName:
					vt.Agreements++
				case !has:
					allAgree = false
					// A record the reference only just gained is excused:
					// a lagged vantage would not have it yet.
					if a.excusedByLag(k, func(j int) bool { return refLacks(j, oct) }) {
						day.Lagged++
						vt.Lagged++
					} else {
						day.Missed++
						vt.Missed++
					}
				default:
					allAgree = false
					// A name the reference recently held is a lagged
					// view, not a conflicting observation.
					if a.excusedByLag(k, func(j int) bool { return refHeld(j, oct, name) }) {
						day.Lagged++
						vt.Lagged++
					} else {
						day.Conflicts++
						vt.Conflicts++
					}
				}
			}
			if allAgree {
				day.Agreements++
			}
		}

		// Reference churn and per-change corroboration.
		for o := 0; o < 256; o++ {
			oct := byte(o)
			var oldName dnswire.Name
			hadOld := false
			if k > 0 {
				oldName, hadOld = refs[k-1][oct]
			}
			newName, hasNew := ref[oct]
			if hadOld == hasNew && oldName == newName {
				continue
			}
			switch {
			case !hadOld:
				day.Added++
			case !hasNew:
				day.Removed++
			default:
				day.Changed++
			}
			day.Changes++
			by := 0
			for i := 0; i < W; i++ {
				confirmed := false
				for j := k; j <= k+a.lag && j < D; j++ {
					name, has := states[i][j][oct]
					if has == hasNew && name == newName {
						confirmed = true
						break
					}
				}
				if confirmed {
					by++
					day.Vantages[i].Corroborated++
				}
			}
			corroSum[k] += float64(by) / float64(W)
			if by == W {
				day.FullyCorroborated++
			}
		}
	}
	return nil
}

// excusedByLag reports whether match holds for any day in the lag window
// [k-lag, k-1] (negative days allowed: match decides their meaning).
func (a *analyzer) excusedByLag(k int, match func(j int) bool) bool {
	for j := k - a.lag; j < k; j++ {
		if match(j) {
			return true
		}
	}
	return false
}

// plurality picks the most-held name, ties to the smallest.
func plurality(count map[dnswire.Name]int) dnswire.Name {
	var best dnswire.Name
	bestN := 0
	for name, n := range count {
		if n > bestN || (n == bestN && (bestN == 0 || name < best)) {
			best, bestN = name, n
		}
	}
	return best
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
