# Flick-Go build targets. `make ci` is the full gate: gofmt, vet, build (the
# root module and the perfbench benchmark module), the
# flick-lint ownership analyzers, race-enabled tests (which include the
# rt allocation guard), and the generated-stub drift check.

GO ?= go

.PHONY: all build bench-build fmt-check vet lint test test-race bench bench-rt chaos chaos-short fleet fleet-short trace trace-short stream stream-short zerocopy zerocopy-short drain drain-short bench-json generate generate-check stats ci

all: build

build:
	$(GO) build ./...

# The benchmark harness is its own module (perfbench/go.mod), so
# `go build ./...` at the root never compiles it; build and vet it
# separately so an rt API change cannot break it silently.
bench-build:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# Fail if any Go file (hand-written or generated) is not gofmt-canonical.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "not gofmt-canonical:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The pooled-buffer ownership analyzers (releasecheck, sendsafe,
# poolescape, arenalife) over every package. Also runnable through the go vet
# driver: go vet -vettool=$$(go env GOPATH)/bin/flick-lint ./...
lint:
	$(GO) run ./cmd/flick-lint ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Root-level benchmarks (the paper's tables/figures as testing.B).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Runtime benchmarks, including the observability overhead pair
# (BenchmarkClientCall vs BenchmarkClientCallMetrics/Traced).
bench-rt:
	$(GO) test -bench=. -benchmem -run=^$$ ./rt

# The full chaos gate: the 10k-call race-enabled soak plus the fault
# rate sweep report. CI runs the shortened soak (see chaos-short); run
# this one locally before touching the fault-tolerance layer.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestFault|TestChecksum|TestFailCloseRace' ./rt ./internal/experiment
	$(GO) run ./cmd/flick-bench -exp chaos

# The CI-sized soak: same invariants, fewer calls (-short drops the
# soak to 1500 calls and skips the reproducibility sweep).
chaos-short:
	$(GO) test -race -short -count=1 -run 'TestChaos|TestFault|TestChecksum|TestFailCloseRace' ./rt ./internal/experiment

# The scale-out fabric gate: the full 1k-100k client sweep (slow; the
# committed BENCH_fleet.json curve) plus the race-enabled acceptance
# test. CI runs fleet-short.
fleet:
	$(GO) test -race -count=1 -run 'TestFleet|TestPool|TestBatch|TestAdmission' ./rt ./internal/experiment
	$(GO) run ./cmd/flick-bench -exp fleet

# The CI-sized fabric gate: reduced sweep under -race, plus the pooled
# chaos soak and the reduced fleet report.
fleet-short:
	$(GO) test -race -short -count=1 -run 'TestFleet|TestPool|TestBatch|TestAdmission|TestChaosPooled' ./rt ./internal/experiment
	$(GO) run ./cmd/flick-bench -exp fleet -short

# The tracing gate: the traced chaos soak (5% faults, 100% sampling —
# every call must yield one well-formed span tree, zero orphans, valid
# Chrome export) plus the sampling-overhead report and the alloc guard
# pinning the tracing-disabled call path. CI runs trace-short.
trace:
	$(GO) test -race -count=1 -run 'TestTraceSoak|TestTracePropagates|TestCallAllocsUnchanged' ./rt ./internal/experiment
	$(GO) run ./cmd/flick-bench -exp trace

# The CI-sized tracing gate: reduced soak under -race plus the
# propagation and alloc-guard tests.
trace-short:
	$(GO) test -race -short -count=1 -run 'TestTraceSoak|TestTracePropagates|TestCallAllocsUnchanged|TestDupCachedResend|TestPoolFailoverKeepsTrace' ./rt ./internal/experiment

# The streaming gate: surface round-trips over all three generated
# presentation surfaces, the credit-window invariants, the mid-transfer
# chaos soak (kill/corrupt a stream at 5% faults; complete delivery or
# a classified error, zero leaks), and the chunk x window sweep. CI
# runs stream-short.
stream:
	$(GO) test -race -count=1 -run 'TestStream|TestBlob|TestAsync|TestPromise' ./rt ./internal/streamstubs ./internal/teststubs ./internal/experiment
	$(GO) run ./cmd/flick-bench -exp stream

# The CI-sized streaming gate: same invariants and soak under -race,
# without the sweep report.
stream-short:
	$(GO) test -race -short -count=1 -run 'TestStream|TestBlob|TestAsync|TestPromise' ./rt ./internal/streamstubs ./internal/teststubs ./internal/experiment

# The zero-copy gate: the alloc-guarded vectored round trips, the arena
# soak, the arenalife/zerocopy strict corpus gates, and the prover's
# negative tests, all under -race, then the payload sweep report. CI
# runs zerocopy-short.
zerocopy:
	$(GO) test -race -count=1 -run 'TestZeroCopy|TestArenaLife|TestVerifyCorpusZeroCopy|TestLintCorpus' ./internal/zcstubs ./internal/lint ./internal/verify .
	$(GO) run ./cmd/flick-bench -exp zerocopy

# The CI-sized zero-copy gate: same invariants, shortened soak, no
# sweep report.
zerocopy-short:
	$(GO) test -race -short -count=1 -run 'TestZeroCopy|TestArenaLife|TestVerifyCorpusZeroCopy|TestLintCorpus' ./internal/zcstubs ./internal/lint ./internal/verify .

# The lifecycle gate: deadline propagation, cancel frames, breaker
# half-open discipline, hedging safety, and the rolling-restart drain
# soak (loss-free on a clean link, classified-only under 5% faults),
# all under -race, then the drain and hedge reports. CI runs
# drain-short.
drain:
	$(GO) test -race -count=1 -run 'TestDeadline|TestExpired|TestClientMapsReplyExpired|TestCtx|TestDrain|TestGoAway|TestBreakerHalfOpen|TestDupCacheAcrossRedial|TestNonIdempotentNeverHedges|TestChaosDrain|TestHedgeTail' ./rt ./internal/experiment
	$(GO) run ./cmd/flick-bench -exp drain
	$(GO) run ./cmd/flick-bench -exp hedge

# The CI-sized lifecycle gate: same invariants and soaks under -race
# with reduced call counts, plus the CI-sized drain report.
drain-short:
	$(GO) test -race -short -count=1 -run 'TestDeadline|TestExpired|TestClientMapsReplyExpired|TestCtx|TestDrain|TestGoAway|TestBreakerHalfOpen|TestDupCacheAcrossRedial|TestNonIdempotentNeverHedges|TestChaosDrain|TestHedgeTail' ./rt ./internal/experiment
	$(GO) run ./cmd/flick-bench -exp drain -short

# Regenerate the committed machine-readable benchmark curves.
bench-json:
	$(GO) run ./cmd/flick-bench -exp pipeline -json > BENCH_pipeline.json
	$(GO) run ./cmd/flick-bench -exp fleet -json > BENCH_fleet.json
	$(GO) run ./cmd/flick-bench -exp stream -json > BENCH_stream.json
	$(GO) run ./cmd/flick-bench -exp zerocopy -json > BENCH_zerocopy.json
	$(GO) run ./cmd/flick-bench -exp hedge -json > BENCH_hedge.json

generate:
	$(GO) generate ./...

# Fail if regenerating the checked-in stubs or goldens changes anything:
# stale generated code must not land.
generate-check: generate
	git diff --exit-code

# The observability reports.
stats:
	$(GO) run ./cmd/flick-bench -exp checks
	$(GO) run ./cmd/flick-bench -exp rpcstats
	$(GO) run ./cmd/flick-bench -exp pipeline
	$(GO) run ./cmd/flick-stats -rounds 50

ci: fmt-check vet build bench-build lint test-race generate-check
