package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// runTraceSummary reads a span log written by `rdnsscan -trace-out` (or any
// telemetry.Tracer JSONL dump) and prints a post-hoc sweep analysis: the probe
// outcome mix summed from the shard spans' closing counts, breaker activity,
// and the slowest shards.
func runTraceSummary(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := telemetry.ReadSpans(f)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		fmt.Fprintln(w, "trace: no spans")
		return nil
	}

	type shardRow struct {
		rec      telemetry.SpanRecord
		duration time.Duration
	}
	var (
		rows        []shardRow
		events      int
		dropped     int
		probeCounts = map[string]uint64{}
		breakerEvs  = map[uint64]int{}
		otherKinds  = map[string]int{}
	)
	for _, s := range spans {
		rows = append(rows, shardRow{rec: s, duration: s.End.Sub(s.Start)})
		events += len(s.Events)
		dropped += s.Dropped
		for _, ev := range s.Events {
			switch ev.Kind {
			case scanengine.TraceFound, scanengine.TraceAbsent, scanengine.TraceErrors, scanengine.TraceCached:
				probeCounts[ev.Kind] += ev.Code
			case scanengine.TraceBreaker:
				breakerEvs[ev.Code]++
			default:
				otherKinds[ev.Kind]++
			}
		}
	}

	fmt.Fprintf(w, "trace: %d spans, %d events (%d dropped past the per-span cap)\n",
		len(spans), events, dropped)
	if n := probeCounts[scanengine.TraceFound] + probeCounts[scanengine.TraceAbsent] +
		probeCounts[scanengine.TraceErrors] + probeCounts[scanengine.TraceCached]; n > 0 {
		fmt.Fprintf(w, "probes: %d total — %d found, %d absent, %d errors, %d cached\n",
			n,
			probeCounts[scanengine.TraceFound],
			probeCounts[scanengine.TraceAbsent],
			probeCounts[scanengine.TraceErrors],
			probeCounts[scanengine.TraceCached])
	}
	if len(breakerEvs) > 0 {
		fmt.Fprint(w, "breaker transitions:")
		for code := uint64(0); code <= uint64(scanengine.BreakerHalfOpen); code++ {
			if c, ok := breakerEvs[code]; ok {
				fmt.Fprintf(w, " %d→%s", c, scanengine.BreakerState(code))
			}
		}
		fmt.Fprintln(w)
	}
	for kind, c := range otherKinds {
		fmt.Fprintf(w, "events[%s]: %d\n", kind, c)
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].duration > rows[j].duration })
	fmt.Fprintln(w, "slowest spans:")
	for i, r := range rows {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "  %-8s %-18s %8.1fms  %d events\n",
			r.rec.Name, r.rec.Attr, float64(r.duration.Microseconds())/1000, len(r.rec.Events))
	}
	printChains(w, spans)
	return nil
}

// printChains stitches the log's correlated spans (see the correlation-ID
// contract in docs/observability.md) into per-probe causal chains and
// renders a sample, longest chains first.
func printChains(w io.Writer, spans []telemetry.SpanRecord) {
	chains := obs.Stitch(spans)
	if len(chains) == 0 {
		return
	}
	complete := 0
	for _, c := range chains {
		if c.Complete() {
			complete++
		}
	}
	fmt.Fprintf(w, "causal chains: %d correlated (%d complete client→fabric→server)\n",
		len(chains), complete)
	sort.SliceStable(chains, func(i, j int) bool {
		li := len(chains[i].Hops) + len(chains[i].Other)
		lj := len(chains[j].Hops) + len(chains[j].Other)
		return li > lj
	})
	for i, c := range chains {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(chains)-i)
			break
		}
		fmt.Fprintf(w, "  %s\n", c.Render())
	}
}

// runObsSummary reads a campaign frame dump written by `rdnsscan -obs-out`
// or `experiments -obs-out` and prints the campaign's health verdict: the
// default SLO rules with error-budget accounting plus seeded anomaly
// detection over the counter deltas.
func runObsSummary(path string, seed int64, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	frames, err := obs.ReadFrames(f)
	if err != nil {
		return err
	}
	if len(frames) == 0 {
		fmt.Fprintln(w, "obs: no frames")
		return nil
	}
	digest, err := obs.FramesDigest(frames)
	if err != nil {
		return err
	}
	first, last := frames[0], frames[len(frames)-1]
	fmt.Fprintf(w, "obs: %d frames (%s .. %s), digest %s\n",
		len(frames),
		first.Date.Format("2006-01-02"), last.Date.Format("2006-01-02"),
		obs.Hex16(digest))

	var probes, errors uint64
	churn := 0
	for _, fr := range frames {
		probes += fr.Probes
		errors += fr.Errors
		churn += fr.Churn()
	}
	fmt.Fprintf(w, "campaign: %d probes, %d errors, %d record changes\n", probes, errors, churn)

	fmt.Fprint(w, "slo: ", obs.DefaultRules().Evaluate(frames).Summary())

	anomalies := obs.Detector{Seed: seed}.Detect(frames)
	if len(anomalies) == 0 {
		fmt.Fprintln(w, "anomalies: none")
		return nil
	}
	fmt.Fprintf(w, "anomalies: %d flagged\n", len(anomalies))
	for _, a := range anomalies {
		fmt.Fprintf(w, "  frame %d: %s delta %d (%s %.1f)\n", a.Index, a.Metric, a.Delta, a.Kind, a.Score)
	}
	return nil
}
