# Development entry points. `make check` is the full gate: formatting,
# vet, build, and the race-enabled test suite.

GO ?= go

.PHONY: check fmt vet build test race e2e results bench bench-build deadcode capacity-smoke fuzz-smoke loadtest chaos chaos-cluster tidy

check: fmt vet build race e2e results bench bench-build deadcode fuzz-smoke loadtest

# gofmt -l prints offending files; fail when it prints anything.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Shuffled execution order surfaces inter-test state dependencies that a
# fixed order hides.
race:
	$(GO) test -race -shuffle=on ./...

# The simulator-validated end-to-end suites, run explicitly (race already
# covers them, but an explicit gate keeps the accuracy bars visible): the
# read-path sweep and the two-tenant mixed read/write sweep, both holding
# predictions within MAE <= 0.10 of simstore ground truth.
e2e:
	$(GO) test -race -count=1 \
		-run 'TestEndToEndAgainstSimulator|TestTwoTenantWriteEndToEnd' \
		./internal/serve

# The quick checked-in experiment reports (the ablation study, the
# write-fraction and workload-independence tests, the architecture
# comparison, Fig. 5 and the mean-vs-percentile motivation), regenerated in
# a temporary directory and compared byte for byte with results/, whose
# numbers EXPERIMENTS.md quotes. Deterministic at any GOMAXPROCS; a few
# seconds, most of it the ablations. Tables I/II and Figs. 6/7 (full-scale
# sweeps) stay out.
RESULTS = ablations writes workload arch fig5 motivation

results:
	@dir=$$(mktemp -d); $(GO) build -o $$dir/cosbench ./cmd/cosbench || { rm -rf $$dir; exit 1; }; \
	status=0; \
	for e in $(RESULTS); do \
		if ! $$dir/cosbench -exp $$e -out $$dir/out > /dev/null 2>&1 || \
			! diff -u results/$$e.txt $$dir/out/$$e.txt; then \
			echo "results: results/$$e.txt does not match a fresh run"; status=1; \
		fi; \
	done; \
	rm -rf $$dir; \
	if [ $$status -ne 0 ]; then exit 1; fi; \
	echo "results: $(RESULTS) reproduced"

# Every Go benchmark, one iteration each: a smoke test that they still run.
# Capacity and per-layer performance are measured by the bench/ module
# (bash bench/run.sh; see BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# bench/ is its own module, so the root build never compiles it: vet it and
# run its short tests (the BENCHMARK.json consistency check; -short skips
# the smoke and golden runs), so an internal API change that breaks the
# benchmark fails here.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test -short .

# The dead-code gate: builds every cmd/*, examples/* and bench binary plus a
# program linking the root package API, and fails on any non-test function
# under internal/ that none of them links and internal/deadcode/allowlist.txt
# does not list with a reason. Tagged, so plain go test ./... skips it.
deadcode:
	$(GO) test -tags deadcode -count=1 ./internal/deadcode

# The benchmark's real binaries, end to end: bench/run.sh builds cosserve,
# cosrouter and the harness and runs every workload for two seconds (the
# short test above skips these runs). Fails unless the run exits 0, each of
# the four workloads prints a summary line with "correct":true and
# "failed":0, and no cosserve, cosrouter or bench process outlives the run.
# The output is kept in .bench_build/capacity-smoke.out.
capacity-smoke:
	@mkdir -p .bench_build; out=.bench_build/capacity-smoke.out; \
	bash bench/run.sh -workload all -seconds 2 > $$out 2>&1; status=$$?; \
	cat $$out; \
	if [ $$status -ne 0 ]; then echo "capacity-smoke: bench exited $$status"; exit 1; fi; \
	lines=$$(grep -c '^{"correct":' $$out); \
	good=$$(grep '^{"correct":true,' $$out | grep -c '"failed":0,'); \
	if [ "$$lines" -ne 4 ] || [ "$$good" -ne 4 ]; then \
		echo "capacity-smoke: $$good of $$lines summary lines correct with no failures, want 4 of 4"; exit 1; \
	fi; \
	for p in cosserve cosrouter bench; do \
		if pgrep -l -x $$p; then echo "capacity-smoke: $$p left running"; exit 1; fi; \
	done; \
	echo "capacity-smoke: 4 workloads correct, no failures, no process left"

# Short native-fuzzing runs over the HTTP request parsers (including the
# hand-rolled NDJSON scanner's byte-for-byte equivalence against the stdlib
# decoder), the /predict and shard partial append encoders' byte-for-byte
# equivalence against encoding/json, the histogram invariants, the k-of-n
# order-statistic combinator, the guarded root finder, the admission
# ladder, the k-of-n probe planner and the router's partial-CDF merge:
# enough to catch regressions in the strict decoder, the quantile/bucket
# arithmetic, the coded-read CDF bounds, the bracketed search invariants,
# the anchored ladder's bit-identity with the climb from its floor rung,
# the planner's delay bound and replay order, and the cluster merge
# invariants (outputs in [0,1], monotone, single-shard passthrough)
# without turning check into a soak.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzNDJSONDecode$$' -fuzztime=10s ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzNDJSONScannerEquivalence$$' -fuzztime=10s ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStrict$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseFloats$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzPredictResponseEncoding$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzPartialResponseEncoding$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzHistogramInvariants$$' -fuzztime=10s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzOrderStatisticCDF$$' -fuzztime=10s ./internal/coscode
	$(GO) test -run '^$$' -fuzz '^FuzzBrentGuarded$$' -fuzztime=10s ./internal/numeric
	$(GO) test -run '^$$' -fuzz '^FuzzMaxRateWhereValue$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPlanProbes$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPartialMerge$$' -fuzztime=10s ./internal/cluster

# A short open-loop cosload run against an in-process cosserve: the whole
# ingest pipeline (NDJSON streaming, striped state, predict probes) smoke-
# tested through the real binary in a couple of seconds.
loadtest:
	$(GO) run ./cmd/cosload -selftest -devices 4 \
		-warm-rate 100 -warm-dur 300ms \
		-rate-start 150 -rate-end 300 -rate-step 150 -step-dur 500ms \
		-predict-rate 100

# Repeated race-enabled runs of the fault-injection and cancellation suites:
# the tests that depend on goroutine interleavings get three chances to flake.
chaos:
	$(GO) test -race -count=3 \
		-run 'Fault|Chaos|Cancel|Panic|SlowLoris|Graceful|Shed|Timeout|Fallback|Context' \
		./internal/serve ./internal/parallel ./internal/core ./internal/numeric ./internal/cluster

# Cluster fault injection: drive the sharded tier with simulator-measured
# traffic, kill a shard node mid-sweep and require the surviving replica to
# keep clearing the paper's MAE bar, flag degradation and rejoin in place;
# plus the router's loss, quorum and gossip suites and its answer-memo
# exactness suite (read-your-writes against one engine).
chaos-cluster:
	$(GO) test -race -count=1 \
		-run 'ChaosCluster|RouterSurvives|RouterLostDevices|RouterNoQuorum|RouterIngestRejected|GenerationGossip|RouterMemo' \
		./internal/cluster

tidy:
	gofmt -w .
