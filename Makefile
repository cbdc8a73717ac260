# Development entry points. `make check` is the full gate: formatting,
# vet, build, and the race-enabled test suite.

GO ?= go

.PHONY: check fmt vet build test race e2e bench bench-build fuzz-smoke loadtest chaos chaos-cluster tidy

check: fmt vet build race e2e bench bench-build fuzz-smoke loadtest

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

# Short native-fuzzing runs over the HTTP request parsers (including the
# hand-rolled NDJSON scanner's byte-for-byte equivalence against the stdlib
# decoder), the histogram
# invariants, the k-of-n order-statistic combinator, the guarded root
# finder and the router's partial-CDF merge: enough to catch regressions in
# the strict decoder, the quantile/bucket arithmetic, the coded-read CDF
# bounds, the bracketed search invariants and the cluster merge invariants
# (outputs in [0,1], monotone, single-shard passthrough) without turning
# check into a soak.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzNDJSONDecode$$' -fuzztime=10s ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzNDJSONScannerEquivalence$$' -fuzztime=10s ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStrict$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseFloats$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzHistogramInvariants$$' -fuzztime=10s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzOrderStatisticCDF$$' -fuzztime=10s ./internal/coscode
	$(GO) test -run '^$$' -fuzz '^FuzzBrentGuarded$$' -fuzztime=10s ./internal/numeric
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
# plus the router's loss, quorum and gossip suites.
chaos-cluster:
	$(GO) test -race -count=1 \
		-run 'ChaosCluster|RouterSurvives|RouterLostDevices|RouterNoQuorum|RouterIngestRejected|GenerationGossip' \
		./internal/cluster

tidy:
	gofmt -w .
