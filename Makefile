GO ?= go

.PHONY: all build test flake-guard test-noasm race vet fmt fuzz-smoke bench bench-smoke audit-smoke serve-smoke recovery-smoke ci

all: build test

build:
	$(GO) build ./...

# -count=1 bypasses the test cache, so an intermittent failure cannot hide
# behind a cached pass.
test:
	$(GO) test -count=1 ./...

# flake-guard hammers the two tests that have flaked on tier-1 — the
# compaction trigger under the race detector, and the lattice-pool steady
# state without it (that test skips itself under -race, where sync.Pool
# drops puts at random) — plus the two concurrency tests of the one-pool
# path under the race detector: batches nesting morsel jobs on one
# scheduler, and one parsed document checked from two goroutines. The
# concurrent audits of the composition differential, cached and uncached,
# assert shared passes that depend on the planning window's 10 ms flush
# deadline, so they run ten times too (the pattern names all four levels
# of shards=0/strategy/driver/workers).
flake-guard:
	$(GO) test -race -count=20 -run 'TestServicePersistentRefreshAndCompaction|TestConcurrentChecksShareDocument' ./internal/core
	$(GO) test -race -count=20 -run TestEvaluateBatchNestedOnScheduler ./internal/sqlexec
	$(GO) test -count=20 -run TestSchedulerPassPoolsPartials ./internal/sqlexec
	$(GO) test -count=10 -run 'TestExecutorCompositionDifferential/.*/.*/audit$$/.*' ./internal/core

# test-noasm runs the suite with the assembly kernels compiled out, so the
# Go loops of the four dispatched internal/vec primitives (the only path
# on non-amd64 platforms and under the `-tags noasm` escape hatch) carry
# every cube and scan differential. internal/vec's property tests compare
# each dispatched primitive against its Go loop under whichever binding
# is live.
test-noasm:
	$(GO) test -count=1 -tags noasm ./...

race:
	$(GO) test -race -count=1 ./...

# vet also covers the two builds the assembly is absent from: `-tags noasm`
# and a non-amd64 target (arm64), where the Go loops are the only path.
vet:
	$(GO) vet ./...
	$(GO) vet -tags noasm ./...
	GOARCH=arm64 $(GO) vet ./...

# fmt fails when any file is not gofmt-clean (CI gate); run `gofmt -w .` to fix.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# fuzz-smoke runs each native fuzz target for 30 seconds: the HTML-lite and
# markdown-lite document parsers, which read every HTTP check body, the SQL
# parser behind -query and ground-truth files, the CSV and JSON-lines
# loaders behind -data, -db and file sources, and the column store's
# manifest, which every -data-dir start reads. The seeds under each
# package's testdata/fuzz (and any crasher the fuzzer writes there) also
# run as plain tests in `make test`. The manifest target caps minimizing
# at 100 executions per input: each execution rewrites a store directory,
# and the default 60 s minimizing budget would spend the whole run
# shrinking the first new input instead of fuzzing.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParseHTML$$' -fuzztime=30s ./internal/document
	$(GO) test -run='^$$' -fuzz='^FuzzParseText$$' -fuzztime=30s ./internal/document
	$(GO) test -run='^$$' -fuzz='^FuzzParseSQL$$' -fuzztime=30s ./internal/sqlparse
	$(GO) test -run='^$$' -fuzz='^FuzzLoadCSV$$' -fuzztime=30s ./internal/db
	$(GO) test -run='^$$' -fuzz='^FuzzLoadJSONL$$' -fuzztime=30s ./internal/db
	$(GO) test -run='^$$' -fuzz='^FuzzOpenManifest$$' -fuzztime=30s -fuzzminimizetime=100x ./internal/colstore

# bench runs the full benchmark suite (Tables 3-6, Figures 8-13).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# bench-smoke compiles and executes every `go test -bench` benchmark exactly
# once so the Table 5/6 regeneration paths, the internal/vec primitive table,
# BenchmarkCubeKernel and BenchmarkColdOpen cannot silently rot, then runs
# the end-to-end benchmark (document bytes in, verdicts out, its verdict-
# fingerprint gates included) for two seconds per workload. CI uploads
# bench.smoke.jsonl as its one perf artifact (-out appends, hence the rm).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	@rm -f bench.smoke.jsonl
	$(GO) run ./bench -seconds 2 -trace 0 -out bench.smoke.jsonl

# audit-smoke exercises corpus auditing end to end through the real CLI:
# build aggcheck, generate a small shared corpus on disk, run
# `aggcheck -audit dir/`, and check the NDJSON report plus the economics
# summary (shared passes, cache hit rate) against the per-document exit
# codes.
audit-smoke:
	$(GO) test -count=1 -run TestAggcheckAuditSmoke ./cmd/aggcheck

# serve-smoke exercises the deployable path end to end: build the real
# aggcheckd binary, start it on a random port with the embedded demo
# corpus, POST the NFL document to the check and stream endpoints, and
# SIGTERM it expecting a clean shutdown.
serve-smoke:
	$(GO) test -count=1 -run TestAggcheckdSmoke ./cmd/aggcheckd

# recovery-smoke exercises crash recovery end to end: build the real
# aggcheckd binary with -watch and -data-dir, SIGKILL it racing a refresh
# commit, replace the source CSV with garbage, and restart over the same
# data directory — the restored daemon must serve bit-for-bit identical
# reports from the block store at the last durably published version.
recovery-smoke:
	$(GO) test -count=1 -run TestAggcheckdCrashRecovery ./cmd/aggcheckd

ci: fmt vet build race flake-guard test-noasm fuzz-smoke bench-smoke audit-smoke serve-smoke recovery-smoke
