GO ?= go

# Default target: everything CI runs.
.PHONY: check
check: build vet lint lint-fix-audit test race smoke perfbench-check

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

# The end-to-end benchmark is a Go module of its own (perfbench/, which
# reaches this module through a replace directive), so `go test ./...`
# above skips it. Vet and test it separately, in perfbench/run.sh's
# offline environment, so an API change that breaks the benchmark build
# fails here rather than at benchmark time.
.PHONY: perfbench-check
perfbench-check:
	cd perfbench && export GOTOOLCHAIN=local GOPROXY=off GOWORK=off && \
		$(GO) vet ./... && $(GO) test ./...

# The facade package replays every golden trace through many engine
# configurations; instrumented it needs more than the default 10m.
.PHONY: race
race:
	$(GO) test -race -timeout 20m ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# hifindlint is this repository's own analyzer (internal/analyze): a
# cross-package dataflow engine enforcing the sketch-path invariants —
# allocation-free UPDATE/ESTIMATE/COMBINE (propagated transitively over
# the call graph), consistent sync/atomic field access, joined library
# goroutines, determinism of estimation and marshal paths, and
# config-derived channel capacities on ingestion paths. Suppress a
# finding with `//lint:ignore <rule> <reason>` on or above the line.
# The -selfcheck run first replays the analyzer's own golden testdata,
# so a broken rule fails lint before it can silently pass the module.
.PHONY: lint
lint:
	$(GO) run ./cmd/hifindlint -selfcheck
	$(GO) run ./cmd/hifindlint ./...

# Fails when any //lint:ignore directive no longer matches a finding:
# the code was fixed or the rule changed, so the suppression is rot and
# must be deleted rather than left to mask a future regression.
.PHONY: lint-fix-audit
lint-fix-audit:
	$(GO) run ./cmd/hifindlint -audit ./...

# Short fuzz pass over the malformed-input surfaces; CI-sized. Leave the
# time off (go test -fuzz=FuzzReadPacket ./internal/pcap) to fuzz for real.
FUZZTIME ?= 10s
.PHONY: fuzz-short
fuzz-short:
	$(GO) test -fuzz FuzzReadPacket -fuzztime $(FUZZTIME) ./internal/pcap
	$(GO) test -fuzz FuzzInference -fuzztime $(FUZZTIME) ./internal/revsketch
	$(GO) test -fuzz FuzzInvertibleDecode -fuzztime $(FUZZTIME) ./internal/invsketch
	$(GO) test -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/aggregate
	$(GO) test -fuzz FuzzObserve -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz FuzzShardRoute -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -fuzz FuzzBurstDetect -fuzztime $(FUZZTIME) ./internal/burst
	$(GO) test -fuzz FuzzPersistence -fuzztime $(FUZZTIME) ./internal/persist

# Deterministic fault-injection matrix over the multi-router aggregation
# path: each seed derives a full schedule of connection resets, corrupted
# bytes, chunked and duplicated writes (internal/faultnet), and the
# invariant checked is byte-exactness of every merge over its reported
# contributor set. CI runs seeds 1..3 under -race.
FAULT_SEEDS ?= 1 2 3
.PHONY: fault-matrix
fault-matrix:
	for s in $(FAULT_SEEDS); do \
		FAULT_SEED=$$s $(GO) test -race -run 'TestFaultMatrix|TestCrashReconnectPartialInterval' -count=1 -v ./internal/aggregate || exit 1; \
	done

# End-to-end telemetry smoke test: replays a small synthetic trace with
# the -http endpoints up, checks /metrics and /healthz, and requires a
# clean exit on SIGINT.
.PHONY: smoke
smoke:
	./ci/smoke.sh

.PHONY: bench
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Performance regression gates: re-measure the engine comparisons and
# compare the *speedups* (machine-independent ratios) against the
# committed baselines. The hotpath gate fails on >10% speedup regression
# or if the NetFlow replay collapse drops below 2x; the inference gate
# fails on >10% decode-speedup regression, a decode speedup under 5x, or
# invertible recall below the reverse witness; the cache gate fails on
# >10% speedup regression, a Zipf-traffic packet speedup below 1.5x, or
# a broken byte-identity anchor.
# Refresh the committed baselines with:
#   go run ./cmd/benchtables -table hotpath
#   go run ./cmd/benchtables -table inference
#   go run ./cmd/benchtables -table cache
FRESH_HOTPATH ?= BENCH_hotpath.fresh.json
FRESH_INFERENCE ?= BENCH_inference.fresh.json
FRESH_CACHE ?= BENCH_cache.fresh.json
FRESH_PIPELINE ?= BENCH_pipeline.fresh.json
.PHONY: bench-gate
bench-gate:
	$(GO) run ./cmd/benchtables -table hotpath -benchout $(FRESH_HOTPATH)
	$(GO) run ./cmd/benchgate -baseline BENCH_hotpath.json -fresh $(FRESH_HOTPATH)
	$(GO) run ./cmd/benchtables -table inference -benchout $(FRESH_INFERENCE)
	$(GO) run ./cmd/benchgate -table inference -baseline BENCH_inference.json -fresh $(FRESH_INFERENCE)
	$(GO) run ./cmd/benchtables -table cache -benchout $(FRESH_CACHE)
	$(GO) run ./cmd/benchgate -table cache -baseline BENCH_cache.json -fresh $(FRESH_CACHE)
	$(GO) run ./cmd/benchtables -table pipeline -benchout $(FRESH_PIPELINE)
	$(GO) run ./cmd/benchgate -table pipeline -baseline BENCH_pipeline.json -fresh $(FRESH_PIPELINE)
