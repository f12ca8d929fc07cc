GO ?= go

.PHONY: build test bench bench-check perf cover verify race fuzz loadtest replicatest metriclint deadcheck fmtcheck crosscheck monitortest vantagetest reportcheck reportcheck-full

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem .

# bench-check guards the hot paths against performance regressions: it
# runs the full-sweep benchmark plus the history-store, rdnsd query and
# replica benchmarks, writes the results to BENCH_scan.json, and fails when
# ns/op regressed >15% against the checked-in baseline or a baseline row was
# not measured (delete or rename a benchmark and its baseline row together).
# The concurrent serving benchmark additionally gates its p99-ns/op tail
# latency, and the engine-8-workers sweep, the history-store window
# queries (range, and churn in two rows: first-touch, where each key walks
# and fills the churn table, and summarized, where the table answers),
# the rdnsd /v1/at rows (plain and observed), the full-page rows
# (range-page, name-page: end to end, and render alone) and the client's
# decode rows their allocs/op and B/op — the probe round
# trip's, the block walk's, the serving path's and the wire codec's
# allocation budgets, which hold on any host; the window queries run a
# fixed 5000 iterations so those rows are exact. BenchmarkUDPSweep, one /24
# over a loopback socket, is held to its allocs/op, B/op and dials/op only:
# a socket's ns/op is the host's, so the benchmark reports none. Its bytes
# are the client's (a fresh one per iteration: one socket with its buffers
# and batch slabs, the windows, the records); the server's batch loop
# answers into a reused slab and adds nothing per datagram.
# BenchmarkSimclockChurn (the simulated clock at 16384 pending calls) and
# BenchmarkProberSweep (one /20 over the study's fabric) are held the same
# way — allocs/op and B/op, and for the sweep events/op, calls put on the
# clock per probed address: ~1, where 2 means a timer per probe again.
# BenchmarkHistStoreOpen (a read-only Open of the 120-day log: tail-only,
# compacted into one segment, and sealed every 10 snapshots into 12)
# likewise: allocs/op, B/op and frames/op, the block frames the store
# holds — the budget of replaying a tail and of verifying sealed segments
# and joining their sidecars. BenchmarkCampaignDay
# (20 days of the bench-scale universe's dynamic networks through scan.Run
# into a fresh store, compacting every 10) is held to allocs/op and B/op:
# the campaign overlaps its sweep with its appends, so its time is the
# host's core count. BenchmarkHistStoreAppend (one small-scale day, packed,
# appended onto a 20-day store; 20 iterations, each on a fresh copy of the
# store, so the row is exact) likewise, and so BenchmarkHistStoreSeal (a
# small-scale store of two sealed segments and a 10-day tail, opened and
# its tail sealed into a third: the seal that starts from sealed history).
# BenchmarkVantageAnalyze (the disagreement analysis over a seeded
# three-vantage 10-day campaign's reopened stores) and
# BenchmarkRdnsdQuery/churn-table (one /v1/churn key asked again and
# again, so the handle's churn table answers it) likewise: allocs/op and
# B/op, no ns/op.
# BenchmarkHandleQuery/{absent,found} (the server's half of one probe: a
# PTR query answered NXDOMAIN with the zone's SOA, or with its record)
# likewise: the reply is its one allocation.
# Every stage runs at -cpu 1:
# go test names a row by its GOMAXPROCS, and the baseline's rows are
# GOMAXPROCS=1 rows.
# After an intentional perf change: cp BENCH_scan.json BENCH_baseline.json
bench-check:
	$(GO) build -o /tmp/benchcheck ./cmd/benchcheck
	{ $(GO) test -run '^$$' -bench 'BenchmarkScanEngineFullSweep|BenchmarkUDPSweep' -cpu 1 -count=1 . \
		&& $(GO) test -run '^$$' -bench 'BenchmarkHistStoreAt' -cpu 1 -count=1 . \
		&& $(GO) test -run '^$$' -bench 'BenchmarkHistStoreChurn|BenchmarkHistStoreRange' -cpu 1 -benchtime 5000x -count=4 . \
		&& $(GO) test -run '^$$' -bench 'BenchmarkHistStoreCompact' -cpu 1 -count=4 . \
		&& $(GO) test -run '^$$' -bench 'BenchmarkHistStoreOpen' -cpu 1 -count=1 . \
		&& $(GO) test -run '^$$' -bench 'BenchmarkCampaignDay' -cpu 1 -count=1 . \
		&& $(GO) test -run '^$$' -bench 'BenchmarkHistStoreAppend|BenchmarkHistStoreSeal' -cpu 1 -benchtime 20x -count=1 . \
		&& $(GO) test -run '^$$' -bench 'BenchmarkRdnsdQuery|BenchmarkRdnsdConcurrentLoad|BenchmarkRender' -cpu 1 -count=1 ./internal/rdnsserve \
		&& $(GO) test -run '^$$' -bench 'BenchmarkClientDecode' -cpu 1 -count=1 ./internal/rdnsclient \
		&& $(GO) test -run '^$$' -bench 'BenchmarkReplicaCatchup|BenchmarkReplicaQuery' -cpu 1 -count=4 ./internal/replica \
		&& $(GO) test -run '^$$' -bench 'BenchmarkVantageAnalyze' -cpu 1 -count=1 ./internal/vantage \
		&& $(GO) test -run '^$$' -bench 'BenchmarkSimclockChurn|BenchmarkProberSweep' -cpu 1 -count=1 ./internal/simclock ./internal/icmp \
		&& $(GO) test -run '^$$' -bench 'BenchmarkHandleQuery' -cpu 1 -count=1 ./internal/dnsserver ; } \
		| /tmp/benchcheck -baseline BENCH_baseline.json -out BENCH_scan.json -gate-extras p99-ns/op,allocs/op,B/op,dials/op,events/op,frames/op

# perf runs one workload of the end-to-end harness (bench/README.md) the way
# the benchmark driver does: make perf W=sweep-wire, or TRACE=1 for the
# per-layer budget table. Every perf claim in a PR is a before/after pair
# of these.
W ?= sweep-wire
TRACE ?= 0
perf:
	bash bench/run.sh --workload $(W) --seed 1 --seconds 10 --trace $(TRACE)

# cover gates per-package test coverage: every internal package and every
# command must stay at or above its floor in COVERAGE_baseline.txt.
# covercheck also fails on upstream test failures, so the pipe cannot hide a
# red suite. After deliberately changing coverage:
# cp COVERAGE_current.txt COVERAGE_baseline.txt
cover:
	$(GO) build -o /tmp/covercheck ./cmd/covercheck
	$(GO) test -cover ./internal/... ./cmd/... \
		| /tmp/covercheck -baseline COVERAGE_baseline.txt -out COVERAGE_current.txt

# race checks every internal package plus the commands that start
# goroutines and sockets (the query daemon, the simulated network and the
# scanner) under the race detector; the concurrency-heavy ones
# (scanengine, dnsclient, faultsim scenarios, rdnsserve's hot-reload and
# queries-during-append) are the point, the rest are cheap.
race:
	$(GO) test -race ./internal/... ./cmd/rdnsd ./cmd/simnet ./cmd/rdnsscan

# loadtest is the serving-path smoke: rdnsvantage writes a 30-day
# three-vantage campaign, and rdnsload self-hosts alpha's store and drives
# 10k concurrent workers of mixed v1 queries through it, aimed at the /24s
# and addresses the store serves, failing unless the run stays within the
# latency/shed SLOs.
loadtest:
	$(GO) build -o /tmp/rdnsvantage ./cmd/rdnsvantage
	$(GO) build -o /tmp/rdnsload ./cmd/rdnsload
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		/tmp/rdnsvantage -days 30 -store "$$dir" > /dev/null && \
		/tmp/rdnsload -store "$$dir/alpha" -workers 10000 -requests 30000 \
			-rate 100 -burst 20 -slo-p95 10 -slo-p99 20 -slo-max-shed-rate 0.01

# fuzz gives each fuzz target a short exploratory run beyond its checked-in
# seed corpus (plain `go test` already replays the seeds).
fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=30s ./internal/dnswire
	$(GO) test -fuzz=FuzzDecodeName -fuzztime=30s ./internal/dnswire
	$(GO) test -fuzz=FuzzReadFramed -fuzztime=30s ./internal/dnswire
	$(GO) test -fuzz=FuzzNameWalk -fuzztime=30s ./internal/dnswire
	$(GO) test -fuzz=FuzzParseOptions -fuzztime=30s ./internal/dhcpwire
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/icmp
	$(GO) test -fuzz=FuzzDecodeBlock -fuzztime=30s ./internal/histstore
	$(GO) test -fuzz=FuzzSegmentManifest -fuzztime=30s ./internal/histstore
	$(GO) test -fuzz=FuzzSegmentFooter -fuzztime=30s ./internal/histstore
	$(GO) test -fuzz=FuzzDecodeSidecar -fuzztime=30s ./internal/histstore
	$(GO) test -fuzz=FuzzHandleUpdate -fuzztime=30s ./internal/dnsserver
	$(GO) test -fuzz=FuzzHandleTCP -fuzztime=30s ./internal/dnsserver
	$(GO) test -fuzz=FuzzHandleQuery -fuzztime=30s ./internal/dnsserver
	$(GO) test -fuzz=FuzzReplManifest -fuzztime=30s ./internal/replica
	$(GO) test -fuzz=FuzzSegmentFetch -fuzztime=30s ./internal/replica
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=30s ./internal/rdnsclient
	$(GO) test -fuzz=FuzzWireEncodeString -fuzztime=30s ./internal/rdnsclient
	$(GO) test -fuzz=FuzzCursor -fuzztime=30s ./internal/rdnsserve

# metriclint statically enforces the metric-name conventions (subsystem
# prefixes, _total on counters, unit suffixes on histograms, no kind
# conflicts) across every registration site in the tree.
metriclint:
	$(GO) build -o /tmp/metriclint ./cmd/metriclint
	/tmp/metriclint ./internal ./cmd

# deadcheck keeps code with no production caller out of the tree: a
# Deprecated: marker in non-test Go fails the gate, and so does any non-test
# declaration that no non-test file references, per the type checker
# (cmd/deadcheck; the few kept on purpose are listed with their reasons in
# cmd/deadcheck/keep.txt, and a stale entry there fails too).
deadcheck:
	@if grep -rn 'Deprecated:' --include='*.go' --exclude='*_test.go' internal cmd examples; then \
		echo "deadcheck: delete the code instead of deprecating it"; exit 1; fi
	$(GO) run ./cmd/deadcheck

# crosscheck type-checks the packages that split by platform, and their
# callers, for the platforms this host does not build: the recvmmsg/sendmmsg
# path of internal/udpbatch on linux/arm64 (its syscall numbers and struct
# layouts) and the one-datagram-per-call fallback on linux/386 and
# darwin/arm64. It needs no network.
CROSS_PKGS = ./internal/udpbatch ./internal/dnsserver ./internal/dnsclient
crosscheck:
	GOOS=linux GOARCH=arm64 $(GO) vet $(CROSS_PKGS)
	GOOS=linux GOARCH=386 $(GO) vet $(CROSS_PKGS)
	GOOS=darwin GOARCH=arm64 $(GO) vet $(CROSS_PKGS)

# fmtcheck keeps the module gofmt-clean: it fails, naming the files, when
# gofmt would rewrite any Go file under the module root.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "$$out"; \
		echo "fmtcheck: gofmt -w the files above"; exit 1; fi

# reportcheck holds the study to its committed oracle: the small-scale
# report must be byte-identical to docs/report-small-scale.txt apart from
# the "computed in" timing lines. Regenerate the file only on purpose.
reportcheck:
	$(GO) build -o /tmp/experiments ./cmd/experiments
	/tmp/experiments -scale small | grep -v 'computed in' > /tmp/report-small-scale.txt
	grep -v 'computed in' docs/report-small-scale.txt | diff -u - /tmp/report-small-scale.txt

# reportcheck-full is the same check at full scale, against
# docs/report-full-scale.txt. It takes about two minutes, so it is run by
# hand (a change that can move a seeded figure runs it) and is not part of
# verify.
reportcheck-full:
	$(GO) build -o /tmp/experiments ./cmd/experiments
	/tmp/experiments -scale full | grep -v 'computed in' > /tmp/report-full-scale.txt
	grep -v 'computed in' docs/report-full-scale.txt | diff -u - /tmp/report-full-scale.txt

# monitortest is the observability e2e gate: a primary and a snapshot
# replica serve traced queries, rdnsmon judges the two-daemon fleet
# against the SLO rules, and the p99 exemplar from /v1/stats must
# resolve via its correlation ID to a stitched client -> daemon ->
# replica-sync chain — all under the race detector, replayed twice to
# prove the identity digests are deterministic, with a goroutine-leak
# check at the end.
monitortest:
	$(GO) test -race -count=1 -run 'TestMonitorE2E' ./cmd/rdnsmon

# vantagetest is the multi-vantage measurement gate: the seeded
# three-vantage campaign race test (each vantage appending to its own
# store with live compaction, frame reads mid-flight, then concurrent
# reads and analyses over the per-vantage stores, goroutine-leak check)
# and the
# cancellation tests of a vantage campaign and of the scan.RunContext loop
# it runs on, plus the 50-seed replay-determinism battery proving reports
# and obs frame digests are bit-identical across runs.
vantagetest:
	$(GO) test -race -count=1 -run 'TestVantageCampaignRace|TestVantageRunCancelled|TestRunContextCancelled' ./internal/vantage ./internal/scan
	$(GO) test -count=1 -run 'TestVantageReplayDeterminism' ./internal/vantage

# replicatest is the replication gate: the chaos battery (a primary with
# a live appender and periodic compactions, replicas catching up while
# pulls are killed mid-flight and syncers restart, query workers on every
# daemon) under the race detector, plus a replay of the replica fuzz
# seed corpora. Asserts zero query errors and bit-identical convergence.
replicatest:
	$(GO) test -race -count=1 -run 'TestReplicaSoakRace|TestReplicaChaosConvergence' ./internal/replica
	$(GO) test -count=1 -run 'Fuzz' ./internal/replica

# verify is the pre-merge gate: vet everything (and the platform-split
# packages for other platforms), refuse Go files gofmt would rewrite, lint the metric names, refuse deprecation markers and
# code no program reaches, run the full
# test suite with the coverage floors, diff the small-scale report against
# its committed copy, race-test the internal packages and the commands
# that serve sockets, run the replication chaos battery, the observability e2e and the
# multi-vantage campaign gate, and smoke the serving path under 10k-worker
# load.
verify:
	$(GO) vet ./...
	$(MAKE) crosscheck
	$(MAKE) fmtcheck
	$(MAKE) metriclint
	$(MAKE) deadcheck
	$(GO) test ./...
	$(MAKE) cover
	$(MAKE) reportcheck
	$(MAKE) race
	$(MAKE) replicatest
	$(MAKE) monitortest
	$(MAKE) vantagetest
	$(MAKE) loadtest
