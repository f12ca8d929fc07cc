// Package rdnsprivacy_test holds the benchmark harness that regenerates
// every table and figure of the paper (one benchmark per experiment, named
// after it) plus the ablation benches called out in DESIGN.md.
//
// The expensive inputs — the simulated universe, the longitudinal scanning
// campaigns and the packet-level supplemental measurement — are built once
// and shared; each benchmark then measures the analysis that produces its
// table or figure, and reports the experiment's headline number as a
// custom metric so `go test -bench=. -benchmem` doubles as a results
// summary.
package rdnsprivacy_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/analysis"
	"rdnsprivacy/internal/casestudy"
	"rdnsprivacy/internal/core"
	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/reactive"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

var (
	studyOnce sync.Once
	benchRef  *core.Study
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// benchStudy builds the shared bench-scale study and pre-computes the
// pipelines the individual benchmarks consume.
func benchStudy(b *testing.B) *core.Study {
	b.Helper()
	studyOnce.Do(func() {
		s, err := core.NewStudy(core.Config{
			Seed: 42,
			Universe: netsim.UniverseConfig{
				FillerSlash24s:        900,
				LeakyNetworks:         16,
				NonLeakyDynamic:       4,
				PeoplePerDynamicBlock: 16,
			},
			LeakThresholds:    privleak.Config{MinUniqueNames: 8, MinRatio: 0.02},
			DynamicityStart:   date(2020, time.September, 7),
			DynamicityEnd:     date(2020, time.October, 19),
			SupplementalStart: date(2021, time.November, 8),
			SupplementalEnd:   date(2021, time.December, 2),
		})
		if err != nil {
			panic(err)
		}
		benchRef = s
	})
	return benchRef
}

func BenchmarkTable1DatasetStats(b *testing.B) {
	s := benchStudy(b)
	// Benchmark one month of full-universe daily snapshots — the unit
	// of work behind Table 1's statistics.
	start := date(2021, time.June, 1)
	b.ResetTimer()
	var responses uint64
	for i := 0; i < b.N; i++ {
		res := scan.Run(scan.Campaign{
			Universe: s.Universe,
			Start:    start,
			End:      start.AddDate(0, 0, 29),
			Cadence:  scan.Daily,
		})
		responses = res.Stats.TotalResponses
	}
	b.ReportMetric(float64(responses), "responses/30d")
}

func BenchmarkFigure1DynamicFraction(b *testing.B) {
	s := benchStudy(b)
	series := s.DynamicitySeries()
	announced := s.AnnouncedPrefixes()
	b.ResetTimer()
	dynCount := 0
	for i := 0; i < b.N; i++ {
		res := dynamicity.Analyze(series, dynamicity.PaperConfig())
		entries := dynamicity.MapToAnnounced(res, announced)
		_ = dynamicity.DistributionBySize(entries)
		dynCount = len(res.DynamicPrefixes)
	}
	b.ReportMetric(float64(dynCount), "dynamic/24s")
}

func BenchmarkTable2BackoffSchedule(b *testing.B) {
	// Verify and measure the schedule arithmetic: the Table 2 walk must
	// yield 12+6+3+2 bounded probes then hourly ones.
	for i := 0; i < b.N; i++ {
		bo := reactive.NewBackoff(reactive.PaperBackoff())
		total := time.Duration(0)
		for p := 0; p < 23; p++ {
			d, ok := bo.Next()
			if !ok {
				b.Fatal("schedule ran out")
			}
			total += d
		}
		if total != 4*time.Hour {
			b.Fatalf("first 23 probes span %v, want 4h", total)
		}
	}
}

// observeLeakWindow replays the section-5 input into a fresh analyzer.
func observeLeakWindow(b *testing.B, s *core.Study, cfg privleak.Config) *privleak.Result {
	dyn := s.Dynamicity()
	dynSet := make(map[string]bool, len(dyn.DynamicPrefixes))
	for _, p := range dyn.DynamicPrefixes {
		dynSet[p.String()] = true
	}
	a := privleak.NewAnalyzer(cfg)
	at := s.Cfg.DynamicityEnd.Add(13 * time.Hour)
	snap, err := scan.Snapshot(context.Background(), scan.Campaign{Universe: s.Universe}, at)
	if err != nil {
		b.Fatal(err)
	}
	for ip, name := range snap.Records {
		a.Observe(privleak.RecordObservation{
			IP: ip, HostName: name,
			Dynamic: dynSet[ip.Slash24().String()],
		})
	}
	return a.Finish()
}

func BenchmarkFigure2GivenNames(b *testing.B) {
	s := benchStudy(b)
	s.Dynamicity() // warm the cache outside the timer
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		res := observeLeakWindow(b, s, s.Cfg.LeakThresholds)
		matches = 0
		for _, c := range res.AllNameMatches {
			matches += c
		}
	}
	b.ReportMetric(float64(matches), "name-matches")
}

func BenchmarkFigure3DeviceTerms(b *testing.B) {
	s := benchStudy(b)
	s.Dynamicity()
	b.ResetTimer()
	terms := 0
	for i := 0; i < b.N; i++ {
		res := observeLeakWindow(b, s, s.Cfg.LeakThresholds)
		terms = 0
		for _, c := range res.AllDeviceTerms {
			terms += c
		}
	}
	b.ReportMetric(float64(terms), "device-terms")
}

func BenchmarkFigure4NetworkTypes(b *testing.B) {
	s := benchStudy(b)
	s.Dynamicity()
	b.ResetTimer()
	identified := 0
	for i := 0; i < b.N; i++ {
		res := observeLeakWindow(b, s, s.Cfg.LeakThresholds)
		identified = len(res.Identified)
		_ = res.TypeBreakdown()
	}
	b.ReportMetric(float64(identified), "identified")
}

func BenchmarkTable3SupplementalStats(b *testing.B) {
	s := benchStudy(b)
	s.Supplemental() // the packet-level campaign runs once, outside the timer
	b.ResetTimer()
	var r core.Table3Result
	for i := 0; i < b.N; i++ {
		r = s.Table3()
	}
	b.ReportMetric(float64(r.RDNSResponses), "rdns-responses")
}

func BenchmarkTable4NetworkObservability(b *testing.B) {
	s := benchStudy(b)
	s.Supplemental()
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(s.Table4().Rows)
	}
	b.ReportMetric(float64(rows), "networks")
}

func BenchmarkTable5GroupFunnel(b *testing.B) {
	s := benchStudy(b)
	res := s.Supplemental()
	b.ResetTimer()
	var f reactive.Funnel
	for i := 0; i < b.N; i++ {
		f = res.Funnel()
	}
	b.ReportMetric(float64(f.All), "groups")
	b.ReportMetric(100*f.Fraction(3), "reliable-pct")
}

func BenchmarkFigure6DNSErrors(b *testing.B) {
	s := benchStudy(b)
	s.Supplemental()
	b.ResetTimer()
	days := 0
	for i := 0; i < b.N; i++ {
		days = len(s.Figure6().Days)
	}
	b.ReportMetric(float64(days), "days")
}

func BenchmarkFigure7aTimingHistogram(b *testing.B) {
	s := benchStudy(b)
	res := s.Supplemental()
	b.ResetTimer()
	var h *analysis.Histogram
	for i := 0; i < b.N; i++ {
		h = analysis.NewHistogram(0, 180, 36)
		for _, d := range res.RemovalDeltas("") {
			h.Observe(d)
		}
	}
	b.ReportMetric(float64(h.Total()), "samples")
}

func BenchmarkFigure7bTimingCDF(b *testing.B) {
	s := benchStudy(b)
	s.Supplemental()
	b.ResetTimer()
	within60 := 0.0
	for i := 0; i < b.N; i++ {
		within60 = s.Figure7b().Within60Overall
	}
	b.ReportMetric(100*within60, "within-60m-pct")
}

func BenchmarkFigure8LifeOfBrian(b *testing.B) {
	s := benchStudy(b)
	res := s.Supplemental()
	b.ResetTimer()
	tracks := 0
	for i := 0; i < b.N; i++ {
		tracks = len(casestudy.TrackName(res, "Academic-A", "brian"))
	}
	b.ReportMetric(float64(tracks), "brian-devices")
}

func BenchmarkFigure9WorkFromHome(b *testing.B) {
	s := benchStudy(b)
	daily := s.Series(scan.Daily) // campaign cached outside the timer
	n, _ := s.Universe.NetworkByName("Academic-A")
	announced := []dnswire.Prefix{n.Config().Announced}
	b.ResetTimer()
	drop := 0.0
	for i := 0; i < b.N; i++ {
		totals := casestudy.EntrySeries(daily, announced)
		rep := casestudy.WFH("Academic-A", totals, date(2020, time.March, 16))
		drop = rep.PrePandemicMean - rep.LockdownMean
	}
	b.ReportMetric(drop, "lockdown-drop-pts")
}

func BenchmarkFigure10CampusCrossover(b *testing.B) {
	s := benchStudy(b)
	n, _ := s.Universe.NetworkByName("Academic-C")
	edu, housing := netsim.EducationHousingSplit(n)
	daily := s.Series(scan.Daily)
	b.ResetTimer()
	var crossed float64
	for i := 0; i < b.N; i++ {
		rep := casestudy.Crossover(
			casestudy.EntrySeries(daily, edu),
			casestudy.EntrySeries(daily, housing),
			date(2020, time.February, 1), 7)
		if !rep.Crossover.IsZero() {
			crossed = 1
		}
	}
	b.ReportMetric(crossed, "crossover-found")
}

func BenchmarkFigure11HeistTiming(b *testing.B) {
	s := benchStudy(b)
	res := s.Supplemental()
	from := date(2021, time.November, 8)
	b.ResetTimer()
	quiet := 0
	for i := 0; i < b.N; i++ {
		quiet = casestudy.Heist(res, "Academic-A", from, from.AddDate(0, 0, 7)).QuietestHourOfDay
	}
	b.ReportMetric(float64(quiet), "quietest-hour")
}

func BenchmarkValidationCampusGroundTruth(b *testing.B) {
	// The full Section 4.1 validation: build the ground-truth campus,
	// scan it for the three-month window, run the heuristic, and check
	// perfect recovery — per iteration.
	for i := 0; i < b.N; i++ {
		campus, truth, err := netsim.BuildValidationCampus(uint64(i)+1, time.UTC)
		if err != nil {
			b.Fatal(err)
		}
		u := &netsim.Universe{Networks: []*netsim.Network{campus}}
		res := scan.Run(scan.Campaign{
			Universe: u,
			Start:    date(2021, time.January, 1),
			End:      date(2021, time.March, 31),
			Cadence:  scan.Daily,
		})
		verdict := dynamicity.Analyze(res.Series, dynamicity.PaperConfig())
		if len(verdict.DynamicPrefixes) != len(truth["dynamic"]) {
			b.Fatalf("found %d dynamic prefixes, want %d",
				len(verdict.DynamicPrefixes), len(truth["dynamic"]))
		}
	}
}

// sweepServer builds an authoritative server answering PTR queries for the
// given /24s, with every other address populated.
func sweepServer(b *testing.B, slash24s []dnswire.Prefix) *dnsserver.Server {
	b.Helper()
	srv := dnsserver.NewServer()
	for _, p := range slash24s {
		origin, err := dnswire.ReverseZoneFor24(p)
		if err != nil {
			b.Fatal(err)
		}
		zone := dnsserver.NewZone(dnsserver.ZoneConfig{
			Origin:    origin,
			PrimaryNS: dnswire.MustName("ns1.bench.example"),
			Mbox:      dnswire.MustName("hostmaster.bench.example"),
		})
		for i := 0; i < p.NumAddresses(); i += 2 {
			ip := p.Nth(i)
			zone.SetPTR(dnswire.ReverseName(ip),
				dnswire.MustName(fmt.Sprintf("host-%d.dyn.bench.example", ip.Uint32())))
		}
		srv.AddZone(zone)
	}
	return srv
}

// BenchmarkScanEngineFullSweep times a full PTR sweep through the sharded
// snapshot engine: per query the wire work of a network client (marshal,
// authoritative lookup, unmarshal, outcome classification), fanned out over
// a worker pool.
func BenchmarkScanEngineFullSweep(b *testing.B) {
	targets := []dnswire.Prefix{dnswire.MustPrefix("10.50.0.0/20")}
	var slash24s []dnswire.Prefix
	for _, t := range targets {
		slash24s = append(slash24s, t.Slash24s()...)
	}
	addrs := 0
	for _, t := range targets {
		addrs += t.NumAddresses()
	}

	b.Run("engine-8-workers", func(b *testing.B) {
		srv := sweepServer(b, slash24s)
		sc := scanengine.New(&dnsclient.ServerSource{Server: srv},
			scanengine.WithWorkers(8), scanengine.WithShardBits(24))
		// allocs/op and B/op of this row are gated by make bench-check: the
		// sweep's probe round trip allocates only what outlives it.
		b.ReportAllocs()
		b.ResetTimer()
		var snap *scanengine.Snapshot
		for i := 0; i < b.N; i++ {
			var err error
			snap, err = sc.Scan(context.Background(), scanengine.Request{Targets: targets})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if len(snap.Records) != addrs/2 {
			b.Fatalf("engine sweep found %d records, want %d", len(snap.Records), addrs/2)
		}
		b.ReportMetric(float64(addrs*b.N)/b.Elapsed().Seconds(), "queries/s")
	})

	// The engine with telemetry attached, for eyeballing the live-sink
	// cost next to the nil-sink number above (which bench-check gates —
	// the nil path is the default and must stay within the baseline).
	b.Run("engine-8-workers-telemetry", func(b *testing.B) {
		srv := sweepServer(b, slash24s)
		reg := telemetry.NewRegistry()
		sc := scanengine.New(&dnsclient.ServerSource{Server: srv},
			scanengine.WithWorkers(8), scanengine.WithShardBits(24),
			scanengine.WithTelemetry(reg))
		b.ResetTimer()
		var snap *scanengine.Snapshot
		for i := 0; i < b.N; i++ {
			var err error
			snap, err = sc.Scan(context.Background(), scanengine.Request{Targets: targets})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if len(snap.Records) != addrs/2 {
			b.Fatalf("engine sweep found %d records, want %d", len(snap.Records), addrs/2)
		}
		b.ReportMetric(float64(addrs*b.N)/b.Elapsed().Seconds(), "queries/s")
	})

	// The engine with full cross-layer correlation: per-probe client and
	// server spans plus per-shard corr events, the docs/observability.md
	// tracing path end to end. bench-check gates this within ±15% so the
	// correlation machinery cannot silently become a hot-path tax.
	b.Run("engine-8-workers-correlation", func(b *testing.B) {
		srv := sweepServer(b, slash24s)
		reg := telemetry.NewRegistry()
		tracer := telemetry.NewTracer(1, 4096)
		srv.SetTracer(tracer)
		sc := scanengine.New(&dnsclient.ServerSource{Server: srv, Tracer: tracer, Seed: 1},
			scanengine.WithWorkers(8), scanengine.WithShardBits(24),
			scanengine.WithTelemetry(reg), scanengine.WithTracer(tracer))
		b.ResetTimer()
		var snap *scanengine.Snapshot
		for i := 0; i < b.N; i++ {
			var err error
			snap, err = sc.Scan(context.Background(), scanengine.Request{Targets: targets})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if len(snap.Records) != addrs/2 {
			b.Fatalf("engine sweep found %d records, want %d", len(snap.Records), addrs/2)
		}
		if tracer.Len() == 0 {
			b.Fatal("correlation sweep emitted no spans")
		}
		b.ReportMetric(float64(addrs*b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkUDPSweep is one rdnsscan sweep of a /24 over a loopback socket:
// a fresh client, the engine, UDPSource's windows, the server's Serve loop.
// What make bench-check holds it to is host-independent — allocs/op and
// B/op of both ends together, and dials/op: one shard is one worker is one
// socket, where a dial per probe would read 256. Its ns/op is the host's
// loopback, so it reports none.
func BenchmarkUDPSweep(b *testing.B) {
	target := dnswire.MustPrefix("10.50.0.0/24")
	srv := sweepServer(b, []dnswire.Prefix{target})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Skipf("no loopback UDP: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(conn) }()
	defer func() {
		conn.Close()
		<-served
	}()

	b.ReportAllocs()
	b.ResetTimer()
	var dials uint64
	for i := 0; i < b.N; i++ {
		client := &dnsclient.UDPClient{Server: conn.LocalAddr().String(), Timeout: 2 * time.Second, Retries: 1}
		snap, err := scanengine.New(dnsclient.UDPSource{Client: client}).
			Scan(context.Background(), scanengine.Request{Targets: []dnswire.Prefix{target}})
		if err != nil {
			b.Fatal(err)
		}
		if len(snap.Records) != 128 || snap.Stats.Errors != 0 {
			b.Fatalf("sweep found %d records with %d errors, want 128 and none", len(snap.Records), snap.Stats.Errors)
		}
		dials += client.Dials()
		client.Close()
	}
	b.ReportMetric(float64(dials)/float64(b.N), "dials/op")
	b.ReportMetric(0, "ns/op")
}

// renderAll exercises every Render path (kept out of the numbers above).
func BenchmarkRenderAllExperiments(b *testing.B) {
	s := benchStudy(b)
	s.Supplemental()
	s.Dynamicity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range core.ExperimentIDs() {
			if id == "table1" || id == "validation" {
				continue // heavyweight; benched separately
			}
			r, err := s.RunExperiment(id)
			if err != nil {
				b.Fatal(err)
			}
			r.Render(io.Discard)
		}
	}
}

// buildHistStoreLog writes a 120-day, 8-/24 campaign history to path:
// 48 stable hosts per block plus one rotating dynamic lease per block per
// day, so every day past the first is a delta frame with real churn.
func buildHistStoreLog(b *testing.B, path string) []time.Time {
	b.Helper()
	return buildSealedHistStoreLog(b, path, 0)
}

// buildSealedHistStoreLog is buildHistStoreLog compacting the tail every
// sealEvery days (never when zero).
func buildSealedHistStoreLog(b *testing.B, path string, sealEvery int) []time.Time {
	b.Helper()
	st, err := histstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	start := date(2021, time.January, 1)
	var times []time.Time
	for day := 0; day < 120; day++ {
		recs := scanengine.RecordSet{}
		for k := 0; k < 8; k++ {
			for o := 1; o <= 48; o++ {
				recs[dnswire.MustIPv4(fmt.Sprintf("10.60.%d.%d", k, o))] =
					dnswire.MustName(fmt.Sprintf("host-%d-%d.dyn.bench.example", k, o))
			}
			recs[dnswire.MustIPv4(fmt.Sprintf("10.60.%d.%d", k, 200+day%8))] =
				dnswire.MustName(fmt.Sprintf("lease-%d-%d.dyn.bench.example", k, day))
		}
		d := start.AddDate(0, 0, day)
		if err := st.Append(d, recs); err != nil {
			b.Fatal(err)
		}
		times = append(times, d)
		if sealEvery > 0 && (day+1)%sealEvery == 0 {
			if res, err := st.CompactWriter(context.Background(), histstore.DefaultWriter, histstore.CompactOptions{MinSeal: sealEvery}); err != nil || res.Sealed != sealEvery {
				b.Fatalf("compact: %+v, %v", res, err)
			}
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return times
}

// BenchmarkHistStoreAt measures the history store's time-travel point
// query over a 120-day log, cold (no reconstruction cache: every query
// replays a delta chain from the nearest base) versus cached (the steady
// state cmd/rdnsd runs in). bench-check gates both within ±15%.
func BenchmarkHistStoreAt(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.hist")
	times := buildHistStoreLog(b, path)

	run := func(b *testing.B, st *histstore.Store) {
		b.Helper()
		found := 0
		for i := 0; i < b.N; i++ {
			ip := dnswire.MustIPv4(fmt.Sprintf("10.60.%d.7", i%8))
			_, ok, err := st.At(ip, times[(i*13)%len(times)])
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				found++
			}
		}
		if found != b.N {
			b.Fatalf("found %d of %d stable hosts", found, b.N)
		}
	}

	b.Run("cold", func(b *testing.B) {
		st, err := histstore.Open(path, histstore.WithCache(0))
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ResetTimer()
		run(b, st)
		b.StopTimer()
		s := st.Stats()
		if s.Reconstructions < uint64(b.N) {
			b.Fatalf("cold path reconstructed %d times over %d queries", s.Reconstructions, b.N)
		}
		b.ReportMetric(float64(s.Reconstructions)/float64(b.N), "reconstructions/op")
	})

	b.Run("cached", func(b *testing.B) {
		st, err := histstore.Open(path, histstore.WithCache(4096))
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		// Warm every (block, version) state the query rotation touches.
		run(b, st)
		b.ResetTimer()
		run(b, st)
		b.StopTimer()
		s := st.Stats()
		if s.CacheHits == 0 {
			b.Fatal("cached path never hit")
		}
		b.ReportMetric(float64(s.Reconstructions)/float64(b.N), "reconstructions/op")
	})
}

// copyStoreDir clones a history store directory for benchmarks that
// consume their input (compaction rewrites the store in place).
func copyStoreDir(b *testing.B, src, dst string) {
	b.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistStoreCompact measures sealing a 120-day tail into a
// segment: the full stream-rewrite-commit cycle, on a pristine copy of
// the store each iteration. The tail is 4x the point-query benchmark's
// (32 blocks instead of 8) so the CPU-bound segment build dominates the
// handful of commit fsyncs, whose latency varies run to run; bench-check
// gates the result within ±15%.
func BenchmarkHistStoreCompact(b *testing.B) {
	template := filepath.Join(b.TempDir(), "bench.hist")
	st, err := histstore.Open(template)
	if err != nil {
		b.Fatal(err)
	}
	start := date(2021, time.January, 1)
	for day := 0; day < 120; day++ {
		recs := scanengine.RecordSet{}
		for k := 0; k < 32; k++ {
			for o := 1; o <= 48; o++ {
				recs[dnswire.MustIPv4(fmt.Sprintf("10.61.%d.%d", k, o))] =
					dnswire.MustName(fmt.Sprintf("host-%d-%d.dyn.bench.example", k, o))
			}
			recs[dnswire.MustIPv4(fmt.Sprintf("10.61.%d.%d", k, 200+day%8))] =
				dnswire.MustName(fmt.Sprintf("lease-%d-%d.dyn.bench.example", k, day))
		}
		if err := st.Append(start.AddDate(0, 0, day), recs); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	var sealed, reclaimed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), fmt.Sprintf("run-%d", i))
		copyStoreDir(b, template, dir)
		st, err := histstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := st.CompactWriter(context.Background(), histstore.DefaultWriter, histstore.CompactOptions{})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if res.Sealed != 120 {
			b.Fatalf("sealed %d snapshots, want 120", res.Sealed)
		}
		sealed += int64(res.Sealed)
		reclaimed += res.TailBytes - res.SegmentBytes
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(sealed)/float64(b.N), "snapshots/op")
	b.ReportMetric(float64(reclaimed)/float64(b.N), "reclaimed-B/op")
}

// BenchmarkHistStoreOpen measures what becoming able to answer costs: a
// read-only Open of the 120-day log — once with every frame in the tail,
// once sealed into one segment, and once sealed every 10 snapshots into 12
// (the serving benchmark store's layout). A tail replays; sealed segments
// are verified frame by frame, the last one decoded, and the name index
// joined from their sidecars. bench-check holds its allocs/op, B/op and
// frames/op (block frames stored, whether replayed or verified) only: an
// open's time is the host's file cache and disk, so the benchmark reports
// no ns/op.
func BenchmarkHistStoreOpen(b *testing.B) {
	for _, layout := range []string{"tail", "compacted", "segments"} {
		b.Run(layout, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "bench.hist")
			switch layout {
			case "tail":
				buildHistStoreLog(b, path)
			case "compacted":
				buildHistStoreLog(b, path)
				st, err := histstore.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				if res, err := st.CompactWriter(context.Background(), histstore.DefaultWriter, histstore.CompactOptions{}); err != nil || res.Sealed != 120 {
					b.Fatalf("compact: %+v, %v", res, err)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			case "segments":
				buildSealedHistStoreLog(b, path, 10)
			}
			frames := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := histstore.Open(path, histstore.WithReadOnly())
				if err != nil {
					b.Fatal(err)
				}
				s := st.Stats()
				if s.Snapshots != 120 {
					b.Fatalf("opened %d snapshots, want 120", s.Snapshots)
				}
				frames += s.BaseFrames + s.DeltaFrames
				st.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkCampaignDay is one 20-day campaign of the bench-scale
// universe's dynamic networks through scan.Run into a fresh store,
// compacting every 10 days: netsim evaluation, the engine's merge, Append,
// compaction and the count-series fold, per op. bench-check holds it to
// its allocs/op and B/op only: the campaign overlaps sweeping with
// appending, so its time is the host's core count, and it reports no
// ns/op.
func BenchmarkCampaignDay(b *testing.B) {
	u := benchStudy(b).Universe
	start := date(2021, time.March, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := histstore.Open(filepath.Join(b.TempDir(), "campaign"))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := scan.Run(scan.Campaign{
			Universe:     u,
			Start:        start,
			End:          start.AddDate(0, 0, 19),
			Cadence:      scan.Daily,
			SkipFiller:   true,
			Store:        st,
			CompactEvery: 10,
		})
		b.StopTimer()
		if res.StoreErr != nil || st.Len() != 20 {
			b.Fatalf("campaign stored %d of 20 days: %v", st.Len(), res.StoreErr)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(0, "ns/op")
}

// smallScaleDays sweeps n consecutive days of the small-scale universe's
// dynamic networks (cmd/experiments -scale small, ~11 k records in ~260
// /24s), returning the first day's instant and each day's packed blocks.
func smallScaleDays(b *testing.B, n int) (time.Time, []scanengine.Blocks) {
	b.Helper()
	u, err := netsim.BuildStudyUniverse(netsim.UniverseConfig{
		Seed:                  42,
		FillerSlash24s:        6000,
		LeakyNetworks:         60,
		NonLeakyDynamic:       16,
		PeoplePerDynamicBlock: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	camp := scan.Campaign{Universe: u, SkipFiller: true}
	start := date(2021, time.March, 1).Add(13 * time.Hour)
	days := make([]scanengine.Blocks, n)
	for i := range days {
		snap, err := scan.Snapshot(context.Background(), camp, start.AddDate(0, 0, i))
		if err != nil {
			b.Fatal(err)
		}
		days[i] = snap.Blocks
	}
	return start, days
}

// BenchmarkHistStoreAppend is one day of the small-scale universe's
// dynamic networks appended, in the packed form a sweep hands over, onto
// a store holding the 20 days before it: every iteration appends the
// same day to a fresh copy of the same store, so its allocs/op and B/op —
// which make bench-check holds — are exact. An append's time is the
// host's file system, so the benchmark reports no ns/op.
func BenchmarkHistStoreAppend(b *testing.B) {
	start, days := smallScaleDays(b, 21)
	tmpl := filepath.Join(b.TempDir(), "template")
	st, err := histstore.Open(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	for i, blocks := range days[:20] {
		if err := st.AppendBlocks(start.AddDate(0, 0, i), blocks); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "store")
		copyStoreDir(b, tmpl, dir)
		st, err := histstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		err = st.AppendBlocks(start.AddDate(0, 0, 20), days[20])
		b.StopTimer()
		if err != nil || st.Len() != 21 {
			b.Fatalf("append onto the 20-day store: %v (%d snapshots)", err, st.Len())
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(0, "ns/op")
}

// BenchmarkHistStoreSeal is one campaign compaction of the small-scale
// universe's dynamic networks: a store holding two 10-day segments and a
// 10-day tail is opened, and CompactWriter seals the tail into a third
// segment. Unlike BenchmarkHistStoreCompact's, this seal has sealed
// history before it, so it starts from the states that history ends in.
// Every iteration seals a fresh copy of the same store, so its allocs/op
// and B/op — which make bench-check holds — are exact; a seal's time is
// the host's file system, so the benchmark reports no ns/op.
func BenchmarkHistStoreSeal(b *testing.B) {
	start, days := smallScaleDays(b, 30)
	tmpl := filepath.Join(b.TempDir(), "template")
	st, err := histstore.Open(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	for i, blocks := range days {
		if err := st.AppendBlocks(start.AddDate(0, 0, i), blocks); err != nil {
			b.Fatal(err)
		}
		if i == 9 || i == 19 {
			if _, err := st.CompactWriter(context.Background(), histstore.DefaultWriter, histstore.CompactOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "store")
		copyStoreDir(b, tmpl, dir)
		st, err := histstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := st.CompactWriter(context.Background(), histstore.DefaultWriter, histstore.CompactOptions{})
		b.StopTimer()
		if err != nil || res.Sealed != 10 || st.Stats().Segments != 3 {
			b.Fatalf("sealing the 10-day tail: %+v, %v", res, err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(0, "ns/op")
}

// BenchmarkHistStoreAtCompacted is BenchmarkHistStoreAt's cold variant
// over a fully compacted store: every reconstruction walks a fresh
// in-segment base chain through the tier, the steady state of a
// long-running rdnsd after background compaction. bench-check gates it
// within ±15%.
func BenchmarkHistStoreAtCompacted(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.hist")
	times := buildHistStoreLog(b, path)
	st, err := histstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if res, err := st.CompactWriter(context.Background(), histstore.DefaultWriter, histstore.CompactOptions{}); err != nil || res.Sealed != 120 {
		b.Fatalf("compact: %+v, %v", res, err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	st, err = histstore.Open(path, histstore.WithCache(0))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		ip := dnswire.MustIPv4(fmt.Sprintf("10.60.%d.7", i%8))
		_, ok, err := st.At(ip, times[(i*13)%len(times)])
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			found++
		}
	}
	b.StopTimer()
	if found != b.N {
		b.Fatalf("found %d of %d stable hosts", found, b.N)
	}
	s := st.Stats()
	if s.Segments != 1 {
		b.Fatalf("segments = %d, want 1", s.Segments)
	}
	b.ReportMetric(float64(s.Reconstructions)/float64(b.N), "reconstructions/op")
}

// buildCampaignStore writes the history the window benchmarks query: 120
// days of 64 /24s — 40 stable hosts, eight leases that rename on a
// four-day beat and one that rotates daily per block — sealed into a
// segment every 10 days as a campaign does, so the history is 12 segments
// and queries spread uniformly over it walk every one of them.
func buildCampaignStore(b *testing.B, path string) []time.Time {
	b.Helper()
	st, err := histstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	start := date(2021, time.January, 1)
	var times []time.Time
	for day := 0; day < 120; day++ {
		recs := scanengine.RecordSet{}
		for k := 0; k < 64; k++ {
			for o := 1; o <= 40; o++ {
				recs[dnswire.IPv4{10, 62, byte(k), byte(o)}] =
					dnswire.MustName(fmt.Sprintf("host-%d-%d.dyn.bench.example", k, o))
			}
			for o := 0; o < 8; o++ {
				recs[dnswire.IPv4{10, 62, byte(k), byte(100 + o)}] =
					dnswire.MustName(fmt.Sprintf("lease-%d-%d.dyn.bench.example", k, (day+o)/4))
			}
			recs[dnswire.IPv4{10, 62, byte(k), byte(200 + day%8)}] =
				dnswire.MustName(fmt.Sprintf("guest-%d-%d.dyn.bench.example", k, day))
		}
		d := start.AddDate(0, 0, day)
		if err := st.Append(d, recs); err != nil {
			b.Fatal(err)
		}
		times = append(times, d)
		if day%10 == 9 {
			if _, err := st.CompactWriter(context.Background(), histstore.DefaultWriter, histstore.CompactOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return times
}

// openCampaignStore opens the campaign store the way rdnsd serves one.
func openCampaignStore(b *testing.B, path string) *histstore.Store {
	b.Helper()
	st, err := histstore.Open(path, histstore.WithCache(4096), histstore.WithReadOnly())
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkHistStoreChurn measures a 30-day churn of one /24, block and
// window drawn uniformly from the campaign store, in two rows.
// first-touch: on a handle whose churn table has never seen the /24 (the
// store is reopened, outside the timer, each time the keys come back to
// the first block), so each op is one walk seed plus the frames of 30
// days, across three or four segments, filling the table as it goes.
// summarized: the same keys on a handle that has answered them all
// already, so each op reads 30 cells of the table and walks nothing.
// bench-check gates ns/op, allocs/op and B/op of both.
func BenchmarkHistStoreChurn(b *testing.B) {
	path := filepath.Join(b.TempDir(), "campaign.hist")
	times := buildCampaignStore(b, path)
	churn := func(b *testing.B, st *histstore.Store, i int) {
		p := dnswire.Prefix{Addr: dnswire.IPv4{10, 62, byte(i * 7 % 64), 0}, Bits: 24}
		from := (i * 13) % 90
		days, err := st.ChurnContext(context.Background(), p, times[from], times[from+29])
		if err != nil {
			b.Fatal(err)
		}
		if (from > 0 && len(days) != 30) || (from == 0 && len(days) != 29) || days[len(days)-1].Added != 1 {
			b.Fatalf("churn of %s from day %d: %d days, last %+v", p, from, len(days), days[len(days)-1])
		}
	}
	b.Run("first-touch", func(b *testing.B) {
		var st *histstore.Store
		var made uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 { // i*7 % 64 visits every block once in 64 ops
				b.StopTimer()
				if st != nil {
					made += st.Stats().Reconstructions
					st.Close()
				}
				st = openCampaignStore(b, path)
				b.StartTimer()
			}
			churn(b, st, i)
		}
		b.StopTimer()
		made += st.Stats().Reconstructions
		st.Close()
		b.ReportMetric(float64(made)/float64(b.N), "reconstructions/op")
	})
	b.Run("summarized", func(b *testing.B) {
		st := openCampaignStore(b, path)
		defer st.Close()
		for i := 0; i < b.N; i++ {
			churn(b, st, i)
		}
		before := st.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			churn(b, st, i)
		}
		b.StopTimer()
		after := st.Stats()
		b.ReportMetric(float64(after.Reconstructions-before.Reconstructions)/float64(b.N), "reconstructions/op")
	})
}

// BenchmarkHistStoreRange measures one page of a 7-day range over one
// /24 on the same store and key spread: a seed, a week of frames, ~340
// rows. bench-check gates ns/op, allocs/op and B/op.
func BenchmarkHistStoreRange(b *testing.B) {
	path := filepath.Join(b.TempDir(), "campaign.hist")
	times := buildCampaignStore(b, path)
	st := openCampaignStore(b, path)
	defer st.Close()
	before := st.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := dnswire.Prefix{Addr: dnswire.IPv4{10, 62, byte(i * 7 % 64), 0}, Bits: 24}
		from := (i * 13) % 113
		rows, _, more, err := st.RangePage(context.Background(), p, times[from], times[from+6], histstore.RangeCursor{}, 1000)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7*49 || more {
			b.Fatalf("range of %s from day %d: %d rows, more=%v", p, from, len(rows), more)
		}
	}
	b.StopTimer()
	after := st.Stats()
	b.ReportMetric(float64(after.Reconstructions-before.Reconstructions)/float64(b.N), "reconstructions/op")
}
