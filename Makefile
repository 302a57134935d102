GO ?= go

.PHONY: all build test flake-guard test-noasm race vet fmt bench bench-smoke bench-cube bench-delta bench-scan bench-parallel bench-shard bench-kernel bench-store bench-audit bench-guard audit-smoke serve-smoke recovery-smoke ci

all: build test

build:
	$(GO) build ./...

# -count=1 bypasses the test cache, so an intermittent failure cannot hide
# behind a cached pass.
test:
	$(GO) test -count=1 ./...

# flake-guard hammers the two tests that have flaked on tier-1: the
# compaction trigger under the race detector, and the lattice-pool steady
# state without it (that test skips itself under -race, where sync.Pool
# drops puts at random).
flake-guard:
	$(GO) test -race -count=20 -run TestServicePersistentRefreshAndCompaction ./internal/core
	$(GO) test -count=20 -run TestSchedulerPassPoolsPartials ./internal/sqlexec

# test-noasm runs the suite with the assembly kernels compiled out, so the
# pure-Go dispatch fallback (non-amd64 platforms, `-tags noasm` escape
# hatch) stays correct. internal/vec's property tests compare every
# primitive against its reference under whichever binding is live.
test-noasm:
	$(GO) test -tags noasm ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails when any file is not gofmt-clean (CI gate); run `gofmt -w .` to fix.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench runs the full benchmark suite (Tables 3-6, Figures 8-13).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# bench-cube measures the cube execution kernels (vectorized vs scalar) and
# writes BENCH_cube.json: ns/op, B/op, rows/s and per-case speedups in a
# machine-readable perf record. CI uploads it as an artifact on every run.
bench-cube:
	$(GO) run ./cmd/benchcube -out BENCH_cube.json

# bench-delta measures incremental cube maintenance under an append-heavy
# workload (cached cube advanced through commits by delta scans vs full
# rescans) and writes BENCH_delta.json. The run hard-fails when the engine's
# delta accounting is off (wrong block counts, unexpected full rebuilds), so
# the CI artifact doubles as a regression gate for the delta path.
bench-delta:
	$(GO) run ./cmd/benchcube -delta -out BENCH_delta.json

# bench-scan measures direct scans (Table 6's naive row and the planner's
# small-group fallback): the retired closure-matcher baseline vs the
# vectorized selection-vector pipeline vs zone-map pruning, writing
# BENCH_scan.json. The run hard-fails when the three modes disagree on any
# answer or when a prunable case records zero pruned blocks.
bench-scan:
	$(GO) run ./cmd/benchcube -scan -out BENCH_scan.json

# bench-parallel measures morsel-scheduler scaling and writes
# BENCH_parallel.json: one representative cube pass at worker widths
# {1,2,4,NPROC} (deduplicated), its scaling efficiency at NPROC, and a
# mixed scenario (heavy cube-pass loop + light direct scans on one shared
# scheduler) recording the light scans' p95 latency under contention.
bench-parallel:
	$(GO) run ./cmd/benchcube -parallel -out BENCH_parallel.json

# bench-shard measures sharded scatter-gather scaling and writes
# BENCH_shard.json: one representative cube pass executed by a coordinator
# over {1,2,4,8} round-robin partitions with single-threaded in-process
# workers, recording rows/s, the 1->4 speedup, and merge overhead as a
# fraction of pass time (hard floor: <10% through 4 shards). The run
# first hard-fails unless 4-shard merged cubes answer the whole case
# matrix identically to the unsharded engine. Scatter-gather needs cores
# to win: regenerate the committed seed on a multi-core box (the record's
# go_max_procs says what the seed machine had).
bench-shard:
	$(GO) run ./cmd/benchcube -shard -out BENCH_shard.json

# bench-kernel measures the internal/vec micro-kernels (plain-Go reference
# vs hand-unrolled vs CPU-dispatched per primitive, ns/row and rows/s over
# one 4096-row block) plus end-to-end cube throughput and the selection-
# pushdown batch against its pushdown-off baseline, writing
# BENCH_kernel.json. The run hard-fails unless >= 2 primitives reach 1.5x
# dispatched-over-reference rows/s (skipped when dispatch resolved to the
# pure-Go impl) or the two batch plans disagree on any answer.
bench-kernel:
	$(GO) run ./cmd/benchcube -kernels -out BENCH_kernel.json

# bench-store measures the persistent columnar block store and writes
# BENCH_store.json: cold-open latency of a manifest restore vs a CSV
# re-parse of identical data (the restart-time saving), page-level
# residency of a fully zone-refuted scan over the mmapped columns, and
# scan throughput across a compaction reseal (blocks and zone granularity
# before/after). The run hard-fails when the pruned scan faults a single
# column page in or when zone maps fail to survive the restore, so the CI
# artifact doubles as a regression gate for the store's read path.
bench-store:
	$(GO) run ./cmd/benchcube -store -out BENCH_store.json

# bench-audit measures corpus-scale auditing and writes BENCH_audit.json:
# 50 generated documents over one shared bench-scale dataset, checked
# isolated (fresh engine per document — the no-sharing baseline) and then
# through the audit path (shared engine, cross-document planning window,
# cost-aware cube cache). Records docs/s both ways, the audit-over-isolated
# speedup, shared-pass and window counters, cache economics (hit rate,
# saved ns/bytes), and a hit-rate series at {10,25,50} documents. The
# run hard-fails when any audit verdict differs bit-for-bit from its
# isolated check, when no cross-document pass was shared, when the 50-doc
# speedup is below 2x, or when the series hit rate is not monotonically
# increasing. 300k fact rows keep the workload scan-bound (cube passes,
# not EM arithmetic, dominate — the regime corpus auditing optimizes);
# concurrency 50 keeps the whole corpus in flight so the planning window
# sees every co-traveller.
bench-audit:
	$(GO) run ./cmd/benchcube -audit -out BENCH_audit.json -rows 300000 -audit-concurrency 50

# bench-guard is the bench-regression gate: it re-runs the cube matrix at
# the committed record's scale and fails when any case's vectorized rows/s
# falls more than 30% below the committed BENCH_cube.json — measured as
# the vectorized/scalar ratio, so the gate is meaningful on hardware other
# than the machine that produced the seed (the scalar interpreter scans
# the same rows on both and serves as the per-machine yardstick).
# The second leg re-runs the parallel matrix and fails when the fresh
# NPROC scaling efficiency drops below 60% of the committed
# BENCH_parallel.json seed's (ratio-of-ratios, so absolute machine speed
# cancels out — but not core counts: when the seed's go_max_procs differs
# from the current machine's, the leg warns and skips instead of
# comparing, since efficiency at NPROC is meaningless across machine
# classes and trivially 1.0 on a single-core box. Regenerate the seed on
# the CI machine class with `make bench-parallel` and commit the result).
# The third leg re-runs the micro-kernel matrix and fails when any
# primitive's dispatched-over-reference rows/s ratio drops more than 30%
# below the committed BENCH_kernel.json seed's (skipped with a warning
# when the seed and this build resolved different dispatch impls, e.g. an
# avx2 seed checked under -tags noasm).
# The fourth leg re-runs the store workload at the committed seed's scale
# and fails when the cold-open restore-over-parse speedup drops more than
# 30% below the committed BENCH_store.json seed's (a same-run ratio, so
# absolute machine speed cancels out; skipped with a message when the
# fresh run's fact_rows differ from the seed's, since the speedup scales
# with data volume).
# The fifth leg re-runs the shard matrix and fails when the fresh 1->4
# shard speedup drops more than 40% below the committed BENCH_shard.json
# seed's (skipped with an actionable message when the seed's go_max_procs
# differs from this machine's, or when both are 1 — single-core shard
# "scaling" measures overhead, not scaling).
# The sixth leg re-runs the corpus audit at reduced document count and
# fails when the audit-over-isolated speedup drops more than 30% below the
# committed BENCH_audit.json seed's (same-run ratio, machine-portable;
# skipped with a message when the document counts differ). Its bit-for-bit
# verdict gate and monotone hit-rate gate always apply.
bench-guard:
	$(GO) run ./cmd/benchcube -out BENCH_cube.guard.json -against BENCH_cube.json -tolerance 0.30
	$(GO) run ./cmd/benchcube -parallel -out BENCH_parallel.guard.json -against BENCH_parallel.json
	$(GO) run ./cmd/benchcube -kernels -out BENCH_kernel.guard.json -against BENCH_kernel.json -tolerance 0.30
	$(GO) run ./cmd/benchcube -store -out BENCH_store.guard.json -against BENCH_store.json -tolerance 0.30
	$(GO) run ./cmd/benchcube -shard -out BENCH_shard.guard.json -against BENCH_shard.json
	$(GO) run ./cmd/benchcube -audit -out BENCH_audit.guard.json -against BENCH_audit.json -docs 12 -rows 30000 -tolerance 0.30

# bench-smoke compiles and executes every benchmark exactly once so the
# Table 5/6 regeneration paths cannot silently rot, then records the cube
# kernel and direct-scan perf trajectories at reduced scale; used by CI
# (which uploads the smoke records as artifacts). Writes to separate paths
# so local ci runs never clobber the committed full-scale seeds.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/benchcube -out BENCH_cube.smoke.json -rows 30000
	$(GO) run ./cmd/benchcube -scan -out BENCH_scan.smoke.json -rows 30000
	$(GO) run ./cmd/benchcube -parallel -out BENCH_parallel.smoke.json
	$(GO) run ./cmd/benchcube -shard -out BENCH_shard.smoke.json -rows 30000
	$(GO) run ./cmd/benchcube -kernels -out BENCH_kernel.smoke.json -rows 30000
	$(GO) run ./cmd/benchcube -store -out BENCH_store.smoke.json -rows 30000
	$(GO) run ./cmd/benchcube -audit -out BENCH_audit.smoke.json -docs 12 -rows 30000

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

ci: fmt vet build race flake-guard test-noasm bench-smoke bench-guard bench-delta audit-smoke serve-smoke recovery-smoke
