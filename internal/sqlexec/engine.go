package sqlexec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aggchecker/internal/db"
)

// ctxCheckRows is how many rows a scan processes between context checks: a
// balance between cancellation latency and per-row overhead (one atomic load
// per batch of rows).
const ctxCheckRows = 8192

// Stats counts the work performed by an Engine; Table 6 of the paper is
// regenerated from these counters plus wall-clock time. All counters are
// atomic: many claim workers update them concurrently.
type Stats struct {
	RowsScanned   atomic.Int64
	CubePasses    atomic.Int64
	CacheHits     atomic.Int64
	CacheMisses   atomic.Int64
	DirectQueries atomic.Int64
	CubeAnswers   atomic.Int64

	// BatchQueries counts queries received through EvaluateBatch and
	// PlannedCubes the merged cube passes the planner produced for them.
	BatchQueries atomic.Int64
	PlannedCubes atomic.Int64

	// CubeDedups counts cube requests that arrived while an identical cube
	// was being computed by another goroutine and were coalesced onto that
	// computation (singleflight). ViewDedups is the same for join views.
	CubeDedups atomic.Int64
	ViewDedups atomic.Int64

	// LockWaits counts lock acquisitions (cache stripe or per-cube) that
	// could not proceed immediately — a direct measure of cache contention.
	LockWaits atomic.Int64

	// Vectorized-kernel counters. BlocksScanned counts kernel blocks
	// processed by cube passes; DirectBlockReads and GatherBlockReads split
	// per-column block reads into zero-copy column-slice reads versus
	// gathers through join-view row maps; PartialsMerged counts row-range
	// partials merged into cube results beyond the first (0 for
	// single-threaded passes); ScalarPasses counts cube passes and delta
	// scans served by the scalar interpreter (forced via WithScalarKernel,
	// or literal sets too large for the dense lattice).
	BlocksScanned    atomic.Int64
	DirectBlockReads atomic.Int64
	GatherBlockReads atomic.Int64
	PartialsMerged   atomic.Int64
	ScalarPasses     atomic.Int64

	// Scan-pipeline counters. BlocksPruned counts scan segments skipped by
	// zone maps: segments whose per-block summaries (min/max ranges,
	// dictionary-code domain bitsets) refute every tracked dimension
	// literal (cube and delta passes, which then take a batched rolled-up
	// update) or the predicate conjunction (direct scans).
	// DirectVectorScans counts direct queries executed through the shared
	// vectorized scan pipeline; SelvecReuses counts scan segments that
	// filtered through a reused selection-vector buffer instead of
	// allocating a fresh one (every segment after a scan's first).
	BlocksPruned      atomic.Int64
	DirectVectorScans atomic.Int64
	SelvecReuses      atomic.Int64

	// Scheduler counters. MorselsDispatched counts tasks executed for this
	// engine's jobs on its scheduler — batch passes and scan morsels alike,
	// owner and helpers alike; StealCount the subset executed by pool
	// helper workers rather than the submitting goroutine; QueueWaits the
	// job submissions that found no idle helper and queued behind other
	// requests (always 0 on a pool of width 1, which has no helpers).
	MorselsDispatched atomic.Int64
	QueueWaits        atomic.Int64
	StealCount        atomic.Int64

	// Cost-aware cube-cache economics. CubeCacheNsSaved accumulates, over
	// every cache hit, the build cost (wall nanoseconds) the hit avoided
	// re-spending; CubeCacheBytesSaved the same for the entry's resident
	// bytes (a rebuild would have re-allocated them). CubeCacheEvictions /
	// CubeCacheEvictedBytes count entries dropped by the byte-budget sweep
	// (score-ordered: cheap-to-rebuild, rarely-hit, large entries first);
	// CubeCacheAdmitRejects counts fresh results returned to their caller
	// but never cached because they alone exceed the configured budget.
	CubeCacheNsSaved      atomic.Int64
	CubeCacheBytesSaved   atomic.Int64
	CubeCacheEvictions    atomic.Int64
	CubeCacheEvictedBytes atomic.Int64
	CubeCacheAdmitRejects atomic.Int64

	// Cross-document window counters, updated by Window (the engine itself
	// never touches them). WindowBatches counts member batch submissions
	// pooled into planning windows; WindowFlushes the merged executions
	// those windows flushed into; SharedPasses the planned cube passes that
	// served queries from more than one document of a flush.
	WindowBatches atomic.Int64
	WindowFlushes atomic.Int64
	SharedPasses  atomic.Int64

	// Incremental-maintenance counters. DeltaScans counts cached cubes
	// brought up to a newer snapshot version by scanning only the appended
	// rows; BlocksDelta the sealed storage blocks those delta scans covered
	// (exactly the blocks committed since the cached version); FullRebuilds
	// the cube passes forced by a snapshot advance the delta path could not
	// express (joined scopes, changed dimensions, structural changes).
	// EpochRebuilds is the subset of FullRebuilds caused by a structural
	// epoch change (AddTable, AddForeignKey, or a compaction resealing the
	// block layout) rather than a scope or shape mismatch.
	DeltaScans    atomic.Int64
	BlocksDelta   atomic.Int64
	FullRebuilds  atomic.Int64
	EpochRebuilds atomic.Int64
}

// Snapshot returns a plain copy of the counters.
func (s *Stats) Snapshot() map[string]int64 {
	return map[string]int64{
		"rows_scanned":   s.RowsScanned.Load(),
		"cube_passes":    s.CubePasses.Load(),
		"cache_hits":     s.CacheHits.Load(),
		"cache_misses":   s.CacheMisses.Load(),
		"direct_queries": s.DirectQueries.Load(),
		"cube_answers":   s.CubeAnswers.Load(),
		"batch_queries":  s.BatchQueries.Load(),
		"planned_cubes":  s.PlannedCubes.Load(),
		"cube_dedups":    s.CubeDedups.Load(),
		"view_dedups":    s.ViewDedups.Load(),
		"lock_waits":     s.LockWaits.Load(),

		"blocks_scanned":     s.BlocksScanned.Load(),
		"direct_block_reads": s.DirectBlockReads.Load(),
		"gather_block_reads": s.GatherBlockReads.Load(),
		"partials_merged":    s.PartialsMerged.Load(),
		"scalar_passes":      s.ScalarPasses.Load(),

		"blocks_pruned":       s.BlocksPruned.Load(),
		"direct_vector_scans": s.DirectVectorScans.Load(),
		"selvec_reuses":       s.SelvecReuses.Load(),

		"morsels_dispatched": s.MorselsDispatched.Load(),
		"queue_waits":        s.QueueWaits.Load(),
		"steal_count":        s.StealCount.Load(),

		"cube_cache_ns_saved":      s.CubeCacheNsSaved.Load(),
		"cube_cache_bytes_saved":   s.CubeCacheBytesSaved.Load(),
		"cube_cache_evictions":     s.CubeCacheEvictions.Load(),
		"cube_cache_evicted_bytes": s.CubeCacheEvictedBytes.Load(),
		"cube_cache_admit_rejects": s.CubeCacheAdmitRejects.Load(),

		"window_batches": s.WindowBatches.Load(),
		"window_flushes": s.WindowFlushes.Load(),
		"shared_passes":  s.SharedPasses.Load(),

		"delta_scans":    s.DeltaScans.Load(),
		"blocks_delta":   s.BlocksDelta.Load(),
		"full_rebuilds":  s.FullRebuilds.Load(),
		"epoch_rebuilds": s.EpochRebuilds.Load(),
	}
}

// cacheStripes stripes the view and cube caches so concurrent claim workers
// rarely touch the same lock. Power of two; the stripe index is a hash of
// the cache key.
const cacheStripes = 32

func stripeOf(key string) uint32 {
	// FNV-1a, inlined to avoid the hash.Hash allocation on every lookup.
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h & (cacheStripes - 1)
}

// viewEntry is a once-initialized join view. The entry is installed in its
// stripe before being built, so concurrent requests for the same view block
// on the sync.Once instead of building duplicates.
type viewEntry struct {
	once  sync.Once
	ready atomic.Bool
	view  *db.JoinView
	err   error
}

type viewStripe struct {
	mu      sync.Mutex
	entries map[string]*viewEntry
}

// cubeEntry serializes computation, extension, and delta-advance of one
// cube signature. state is replaced, never mutated, so results handed to
// readers stay valid while another goroutine extends or advances the cube
// (copy-on-write) — and a request covered by the published state at the
// current snapshot version is served straight off the atomic load without
// queuing behind in-flight work.
type cubeEntry struct {
	mu        sync.Mutex
	computing atomic.Bool
	state     atomic.Pointer[cubeState]
	// stale holds one result computed for a reader pinned (WithSnapshot)
	// to a version older than the published state — typically the single
	// in-flight check that overlapped a refresh. Without it, every cube
	// request of such a check would rescan from scratch each EM iteration.
	// It never replaces state: newer published results are never regressed.
	stale atomic.Pointer[cubeState]
	// hits counts cache hits served from this entry — the frequency term of
	// the cost×frequency eviction score.
	hits atomic.Int64
}

// cubeState is one published (result, storage version) pair. For
// single-table scopes it also records the row count the result covers, so
// a later snapshot that only appended rows can be absorbed by delta-
// scanning [rows, newRows) and merging, instead of recomputing; rows is -1
// for joined scopes, where appends can rewrite earlier joined rows (a
// previously dangling foreign key may gain a match) and the delta path is
// not sound.
type cubeState struct {
	res     *CubeResult
	version uint64
	epoch   uint64
	table   string
	rows    int

	// buildNanos is the cumulative wall-clock cost of producing res from
	// scratch (initial pass plus extensions and delta advances); bytes its
	// estimated resident size. Both feed the cost-aware cache policy: a hit
	// "saves" buildNanos/bytes, and the eviction sweep ranks entries by
	// buildNanos×(1+hits)/bytes so cheap-to-rebuild giants go first.
	buildNanos int64
	bytes      int64
}

// appendable reports whether snap can be reached from this state by
// scanning appended rows only.
func (st *cubeState) appendable(snap *db.Snapshot) bool {
	return st.rows >= 0 && st.epoch == snap.Epoch() && snap.NumRows(st.table) >= st.rows
}

type cubeStripe struct {
	mu      sync.Mutex
	entries map[string]*cubeEntry
}

// Engine evaluates Simple Aggregate Queries over a database. It caches join
// views and cube results; the cube cache persists across claims and EM
// iterations exactly as §6.3 prescribes (results are generated for all
// literals with non-zero marginal probability for any claim of the
// document, so the cache key needs no literal set).
//
// The engine is concurrency-first: both caches are striped across
// cacheStripes locks, and duplicate concurrent requests for the same cube or
// view are coalesced onto a single computation (singleflight), so a
// document's claim workers can hammer one shared engine without serializing
// behind a global lock.
type Engine struct {
	DB    *db.Database
	Stats Stats

	views [cacheStripes]viewStripe
	cubes [cacheStripes]cubeStripe

	// The execution settings below are written only by NewEngine (see
	// options.go) and fixed for the engine's life.

	// caching enables the cube-result cache (on by default).
	caching bool
	// scalarKernel forces cube passes onto the row-at-a-time interpreter;
	// the vectorized columnar kernel is the default.
	scalarKernel bool
	// zoneMaps enables zone-map pruning in the scan pipeline (on by
	// default); WithZoneMaps(false) is the operational escape hatch and the
	// scan differential tests' oracle.
	zoneMaps bool
	// sched is the pool the engine's batches, cube passes and large direct
	// scans run on: the one WithScheduler installed, or the process-wide
	// default. Never nil; the engine does not own it (its creator calls
	// Close).
	sched *Scheduler
	// cubeCacheBudget bounds the cube cache's estimated resident bytes
	// (<= 0: unbounded). Publishes over budget trigger an eviction sweep;
	// evicting is the CAS guard that keeps the sweep single-flight.
	cubeCacheBudget int64
	evicting        atomic.Bool

	// testHookBeforeCubePass, when non-nil, runs at the start of every cube
	// pass; tests use it to hold a computation open while concurrent
	// requests for the same cube pile up.
	testHookBeforeCubePass func()
}

// NewEngine creates an engine with cube-result caching and zone maps on,
// then applies the given execution options (see options.go). The settings
// are fixed once NewEngine returns.
func NewEngine(d *db.Database, opts ...ExecOption) *Engine {
	e := &Engine{
		DB:              d,
		caching:         true,
		zoneMaps:        true,
		cubeCacheBudget: defaultCubeCacheBudget,
	}
	for i := range e.views {
		e.views[i].entries = make(map[string]*viewEntry)
	}
	for i := range e.cubes {
		e.cubes[i].entries = make(map[string]*cubeEntry)
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.sched == nil {
		e.sched = defaultScheduler()
	}
	return e
}

// defaultCubeCacheBudget bounds the cube cache's estimated resident bytes
// when WithCubeCacheBudget was not given: large enough that single-document
// checking never sweeps, small enough that a corpus audit over many scopes
// cannot grow without bound.
const defaultCubeCacheBudget = 256 << 20

// CubeCacheBudget returns the configured cube-cache byte budget (<= 0:
// unbounded).
func (e *Engine) CubeCacheBudget() int64 { return e.cubeCacheBudget }

// CacheUsage reports the cube cache's resident entry count and estimated
// bytes (published states plus parked stale results). It scans the stripe
// maps rather than maintaining a gauge, so concurrent publishes, evictions,
// and ResetCache can never make the accounting drift.
func (e *Engine) CacheUsage() (entries int, bytes int64) {
	for i := range e.cubes {
		sh := &e.cubes[i]
		e.lock(&sh.mu)
		for _, ent := range sh.entries {
			st := ent.state.Load()
			sst := ent.stale.Load()
			if st == nil && sst == nil {
				continue
			}
			entries++
			if st != nil {
				bytes += st.bytes
			}
			if sst != nil {
				bytes += sst.bytes
			}
		}
		sh.mu.Unlock()
	}
	return entries, bytes
}

// CachingEnabled reports whether cube results are cached.
func (e *Engine) CachingEnabled() bool { return e.caching }

// ScalarKernel reports whether cube passes are forced onto the scalar
// interpreter.
func (e *Engine) ScalarKernel() bool { return e.scalarKernel }

// Scheduler returns the pool the engine's jobs run on.
func (e *Engine) Scheduler() *Scheduler { return e.sched }

// ResetCache drops all cached cube results (join views are kept: they are
// part of the storage layer, not the evaluation strategy).
func (e *Engine) ResetCache() {
	for i := range e.cubes {
		sh := &e.cubes[i]
		e.lock(&sh.mu)
		sh.entries = make(map[string]*cubeEntry)
		sh.mu.Unlock()
	}
}

// lock acquires mu, counting acquisitions that had to wait.
func (e *Engine) lock(mu *sync.Mutex) {
	if mu.TryLock() {
		return
	}
	e.Stats.LockWaits.Add(1)
	mu.Lock()
}

// cacheHit records one cache hit and its economics: the build nanoseconds
// and bytes the hit avoided re-spending, plus the entry's frequency term.
func (e *Engine) cacheHit(ent *cubeEntry, st *cubeState) {
	e.Stats.CacheHits.Add(1)
	e.Stats.CubeCacheNsSaved.Add(st.buildNanos)
	e.Stats.CubeCacheBytesSaved.Add(st.bytes)
	ent.hits.Add(1)
}

// admit decides whether a freshly built state may enter the cache: a result
// that alone exceeds the whole byte budget is returned to its caller but
// never stored (caching it would immediately evict everything else for an
// entry the next sweep drops anyway).
func (e *Engine) admit(st *cubeState) bool {
	if b := e.cubeCacheBudget; b > 0 && st.bytes > b {
		e.Stats.CubeCacheAdmitRejects.Add(1)
		return false
	}
	return true
}

// maybeEvict sweeps the cube cache back under the configured byte budget.
// Victims are ranked by buildNanos×(1+hits)/bytes ascending — cheap to
// rebuild, rarely hit, and large evicts first — so the bytes freed cost the
// least expected rebuild time. The sweep is CAS-guarded single-flight;
// entries mid-computation (ent.mu held) are skipped rather than waited on,
// leaving the cache briefly over budget instead of stalling publishers.
// Evicted entries stay valid for readers already holding their results
// (published CubeResults are immutable); a publisher racing the sweep at
// worst stores into an orphaned entry that the GC then collects.
func (e *Engine) maybeEvict() {
	budget := e.cubeCacheBudget
	if budget <= 0 {
		return
	}
	if !e.evicting.CompareAndSwap(false, true) {
		return
	}
	defer e.evicting.Store(false)
	_, used := e.CacheUsage()
	if used <= budget {
		return
	}
	type victim struct {
		stripe int
		sig    string
		ent    *cubeEntry
		bytes  int64
		score  float64
	}
	var victims []victim
	for i := range e.cubes {
		sh := &e.cubes[i]
		e.lock(&sh.mu)
		for sig, ent := range sh.entries {
			var b, cost int64
			if st := ent.state.Load(); st != nil {
				b += st.bytes
				cost += st.buildNanos
			}
			if sst := ent.stale.Load(); sst != nil {
				b += sst.bytes
				cost += sst.buildNanos
			}
			if b == 0 {
				continue
			}
			victims = append(victims, victim{i, sig, ent, b, float64(cost) * float64(1+ent.hits.Load()) / float64(b)})
		}
		sh.mu.Unlock()
	}
	sort.Slice(victims, func(a, b int) bool { return victims[a].score < victims[b].score })
	for _, v := range victims {
		if used <= budget {
			break
		}
		if !v.ent.mu.TryLock() {
			continue // mid-computation; never stall a publisher
		}
		sh := &e.cubes[v.stripe]
		e.lock(&sh.mu)
		if sh.entries[v.sig] == v.ent {
			delete(sh.entries, v.sig)
			used -= v.bytes
			e.Stats.CubeCacheEvictions.Add(1)
			e.Stats.CubeCacheEvictedBytes.Add(v.bytes)
		}
		sh.mu.Unlock()
		v.ent.mu.Unlock()
	}
}

// DefaultTable returns the name of the first table, used to anchor queries
// that reference no column (pure Count(*) with no predicates).
func (e *Engine) DefaultTable() string {
	ts := e.DB.Tables()
	if len(ts) == 0 {
		return ""
	}
	return ts[0].Name
}

// snapCtxKey carries a pinned storage snapshot through a request context.
type snapCtxKey struct{}

// WithSnapshot pins a snapshot for every engine read under ctx: all cube
// passes and direct scans of one verification request then observe a
// single storage version even if commits land mid-request. A snapshot
// belonging to a different database is ignored (the engine falls back to
// its own latest snapshot), so pinned contexts are safe to pass across
// multi-database services. A later pin replaces an earlier one.
func WithSnapshot(ctx context.Context, snap *db.Snapshot) context.Context {
	if snap == nil {
		return ctx
	}
	return context.WithValue(ctx, snapCtxKey{}, snap)
}

// snapshotFor resolves the snapshot a request reads: the context-pinned
// one when it belongs to this engine's database, the latest published one
// otherwise.
func (e *Engine) snapshotFor(ctx context.Context) *db.Snapshot {
	if snap, ok := ctx.Value(snapCtxKey{}).(*db.Snapshot); ok && snap.Of(e.DB) {
		return snap
	}
	return e.DB.Snapshot()
}

// pinnedVersion names the snapshot pinned in ctx ("database@version"), or
// "" when ctx pins none. Requests with equal strings read identical rows.
func pinnedVersion(ctx context.Context) string {
	snap, ok := ctx.Value(snapCtxKey{}).(*db.Snapshot)
	if !ok {
		return ""
	}
	return snap.DatabaseName() + "@" + strconv.FormatUint(snap.Version(), 10)
}

// view returns the (cached) join view over the given tables at the
// database's latest snapshot. Concurrent requests for the same view share
// one build.
func (e *Engine) view(tables []string) (*db.JoinView, error) {
	return e.viewAt(e.DB.Snapshot(), tables)
}

// viewAt returns the (cached) join view over the given tables at one
// snapshot. The cache is keyed by (table set, snapshot version): a commit
// publishes a new version and later requests build fresh views over it,
// while scans holding an older view keep their consistent row set. Stale
// versions of the same scope are dropped from the cache as new ones arrive
// (in-flight readers keep their entries alive through their own pointers).
func (e *Engine) viewAt(snap *db.Snapshot, tables []string) (*db.JoinView, error) {
	base := strings.Join(sortedCopy(tables), ",")
	key := base + "@" + strconv.FormatUint(snap.Version(), 10)
	sh := &e.views[stripeOf(base)]
	e.lock(&sh.mu)
	ent, ok := sh.entries[key]
	if !ok {
		// Drop only strictly older versions of this scope: a reader pinned
		// to an old snapshot must not evict the current version's view (or
		// the two would thrash rebuilding each other's joins); newer
		// entries stay until an even newer version arrives.
		for k := range sh.entries {
			if len(k) > len(base) && k[len(base)] == '@' && strings.HasPrefix(k, base) {
				if v, err := strconv.ParseUint(k[len(base)+1:], 10, 64); err == nil && v < snap.Version() {
					delete(sh.entries, k)
				}
			}
		}
		ent = &viewEntry{}
		sh.entries[key] = ent
	}
	sh.mu.Unlock()
	if ok && !ent.ready.Load() {
		e.Stats.ViewDedups.Add(1)
	}
	ent.once.Do(func() {
		ent.view, ent.err = db.BuildSnapshotView(snap, tables)
		if ent.err == nil {
			// Join-key zone pruning at view build counts toward the same
			// pruning budget scan-time zone maps report.
			e.Stats.BlocksPruned.Add(int64(ent.view.PrunedZones()))
		}
		ent.ready.Store(true)
	})
	return ent.view, ent.err
}

func sortedCopy(ss []string) []string {
	out := make([]string, len(ss))
	copy(out, ss)
	sort.Strings(out)
	return out
}

// EvaluateContext runs a single query with a dedicated scan (the naive
// strategy of Table 6), executed through the shared vectorized scan
// pipeline: predicates compile to storage-level comparisons evaluated into
// per-segment selection vectors, and zone maps prune segments that cannot
// contribute (see pipeline.go, including the ratio-aggregate base
// contract for Percentage and ConditionalProbability denominators). The
// scan checks ctx between segments and aborts with ctx.Err() when the
// request is cancelled.
func (e *Engine) EvaluateContext(ctx context.Context, q Query) (float64, error) {
	if err := ctx.Err(); err != nil {
		return math.NaN(), err
	}
	tables := q.Tables(e.DefaultTable())
	view, err := e.viewAt(e.snapshotFor(ctx), tables)
	if err != nil {
		return math.NaN(), err
	}
	e.Stats.DirectQueries.Add(1)
	return e.evaluateDirect(ctx, view, q)
}

func parseLiteralFloat(lit string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(lit), 64)
}

// CubeForContext returns a cube result covering the given dimensions and
// aggregate requests over the join scope, reusing, extending, or
// incrementally advancing a cached cube when caching is enabled. The
// requests are translated into tracked columns (star is always tracked).
// The cube pass checks ctx periodically and aborts with ctx.Err() when the
// request is cancelled; a cancelled pass publishes nothing, so the cache
// never holds partial results.
//
// The cache is snapshot-versioned: every request resolves the database's
// current snapshot, and a cached cube is served only at the version it was
// computed for. When the snapshot advanced by appends to the cube's
// (single-table) scope, the cached cube is brought up to date by scanning
// only the appended blocks and merging the partial into the published
// result (Stats.DeltaScans / Stats.BlocksDelta); sealed blocks are never
// rescanned. Advances the delta path cannot express — joined scopes,
// changed dimensions, structural changes — recompute from scratch
// (Stats.FullRebuilds).
//
// Concurrent calls with the same signature are coalesced: exactly one
// goroutine runs the cube pass while the others wait and share the result
// (recorded in Stats.CubeDedups). Per-signature work is serialized by the
// cube entry's own lock, so distinct cubes never contend.
func (e *Engine) CubeForContext(ctx context.Context, tables []string, dims []DimSpec, reqs []AggRequest) (*CubeResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cols := trackedColsFor(reqs)
	snap := e.snapshotFor(ctx)
	if !e.caching {
		view, err := e.viewAt(snap, tables)
		if err != nil {
			return nil, err
		}
		return e.runCube(ctx, view, tables, dims, cols)
	}

	sig := cubeSignature(tables, dims)
	sh := &e.cubes[stripeOf(sig)]
	e.lock(&sh.mu)
	ent, ok := sh.entries[sig]
	if !ok {
		ent = &cubeEntry{}
		ent.computing.Store(true)
		sh.entries[sig] = ent
	}
	sh.mu.Unlock()

	// Fast path: a request fully covered by the published state at the
	// current storage version never queues, even while another goroutine
	// extends or advances the cube.
	if st := ent.state.Load(); st != nil && st.version == snap.Version() && dimsCover(st.res.Dims, dims) && len(missingCols(st.res, cols)) == 0 {
		e.cacheHit(ent, st)
		return st.res, nil
	}
	if sst := ent.stale.Load(); sst != nil && sst.version == snap.Version() && dimsCover(sst.res.Dims, dims) && len(missingCols(sst.res, cols)) == 0 {
		e.cacheHit(ent, sst)
		return sst.res, nil
	}
	if ok && ent.computing.Load() {
		e.Stats.CubeDedups.Add(1)
	}

	// Registered before the entry lock so the sweep runs after it is
	// released: a publish that pushed the cache over budget pays for the
	// eviction pass, and the sweep's TryLock can never see its own entry as
	// held by itself.
	defer e.maybeEvict()
	e.lock(&ent.mu)
	defer func() {
		ent.computing.Store(false)
		ent.mu.Unlock()
	}()

	st := ent.state.Load()
	if st == nil {
		fresh, err := e.freshState(ctx, snap, tables, dims, cols)
		if err != nil {
			return nil, err
		}
		if e.admit(fresh) {
			ent.state.Store(fresh)
		}
		e.Stats.CacheMisses.Add(1)
		return fresh.res, nil
	}

	if st.version != snap.Version() {
		return e.advanceState(ctx, ent, st, snap, tables, dims, cols)
	}

	// Re-check coverage under the lock; extend with the missing columns if
	// the goroutine ahead of us did not already.
	missing := missingCols(st.res, cols)
	if len(missing) == 0 && dimsCover(st.res.Dims, dims) {
		e.cacheHit(ent, st)
		return st.res, nil
	}
	ent.computing.Store(true)
	// Literal sets may lag the request — a window's literal pool grows as a
	// corpus is audited — and a cube cannot encode a literal it was not
	// built with. Rebuild at the union of cached and requested literals (and
	// the union of tracked columns) so the entry converges to a covering
	// shape instead of thrashing between per-batch literal sets: once the
	// pool saturates, every later request is served without a pass.
	if !dimsCover(st.res.Dims, dims) {
		fresh, err := e.freshState(ctx, snap, tables, unionDims(st.res.Dims, dims), unionCols(st.res, cols))
		if err != nil {
			return nil, err
		}
		if e.admit(fresh) {
			ent.state.Store(fresh)
		}
		e.Stats.CacheMisses.Add(1)
		return fresh.res, nil
	}
	view, err := e.viewAt(snap, tables)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	extra, err := e.runCube(ctx, view, tables, st.res.Dims, missing)
	if err != nil {
		return nil, err
	}
	wider := st.res.merged(extra)
	next := &cubeState{res: wider, version: st.version, epoch: st.epoch, table: st.table, rows: st.rows,
		buildNanos: st.buildNanos + time.Since(start).Nanoseconds(), bytes: wider.memBytes()}
	ent.state.Store(next)
	e.cacheHit(ent, st)
	return wider, nil
}

// freshState runs a full cube pass at one snapshot and wraps it with the
// coverage metadata the delta path needs.
func (e *Engine) freshState(ctx context.Context, snap *db.Snapshot, tables []string, dims []DimSpec, cols []trackedCol) (*cubeState, error) {
	view, err := e.viewAt(snap, tables)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := e.runCube(ctx, view, tables, dims, cols)
	if err != nil {
		return nil, err
	}
	st := &cubeState{res: res, version: snap.Version(), epoch: snap.Epoch(), rows: -1,
		buildNanos: time.Since(start).Nanoseconds(), bytes: res.memBytes()}
	if len(tables) == 1 {
		st.table = tables[0]
		st.rows = snap.NumRows(tables[0])
	}
	return st, nil
}

// advanceState reconciles a cached cube with a snapshot at a newer storage
// version: republish when the appends missed its scope, delta-scan the
// appended blocks when possible, and fall back to a counted full rebuild
// otherwise. Callers hold ent.mu.
func (e *Engine) advanceState(ctx context.Context, ent *cubeEntry, st *cubeState, snap *db.Snapshot, tables []string, dims []DimSpec, cols []trackedCol) (*CubeResult, error) {
	if snap.Version() < st.version {
		// A reader pinned to an older snapshot than the published cube
		// (its request started before a commit another goroutine already
		// absorbed): serve it a consistent result computed at its own
		// version, without regressing the newer published state. The
		// result is parked in the entry's stale slot so the pinned check
		// pays for the pass once, not once per EM iteration.
		if sst := ent.stale.Load(); sst != nil && sst.version == snap.Version() && dimsCover(sst.res.Dims, dims) && len(missingCols(sst.res, cols)) == 0 {
			e.cacheHit(ent, sst)
			return sst.res, nil
		}
		ent.computing.Store(true)
		view, err := e.viewAt(snap, tables)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := e.runCube(ctx, view, tables, dims, cols)
		if err != nil {
			return nil, err
		}
		ent.stale.Store(&cubeState{res: res, version: snap.Version(), epoch: snap.Epoch(), rows: -1,
			buildNanos: time.Since(start).Nanoseconds(), bytes: res.memBytes()})
		e.Stats.CacheMisses.Add(1)
		return res, nil
	}
	if st.appendable(snap) && dimsCover(st.res.Dims, dims) && len(missingCols(st.res, cols)) == 0 {
		newRows := snap.NumRows(st.table)
		if newRows == st.rows {
			// The commits since st.version touched other tables only: the
			// cached result is still exact, so republish it at the current
			// version without scanning anything.
			ent.state.Store(&cubeState{res: st.res, version: snap.Version(), epoch: snap.Epoch(), table: st.table, rows: st.rows,
				buildNanos: st.buildNanos, bytes: st.bytes})
			e.cacheHit(ent, st)
			return st.res, nil
		}
		ent.computing.Store(true)
		view, err := e.viewAt(snap, tables)
		if err != nil {
			return nil, err
		}
		// Scan only [st.rows, newRows) — the rows of the blocks sealed
		// since the cached version — with the cached cube's own dims and
		// tracked columns, then merge the partial into the published
		// result copy-on-write.
		start := time.Now()
		delta, err := e.runCubeDelta(ctx, view, tables, st.res.Dims, st.res.trackedCols(), st.rows, newRows)
		if err != nil {
			return nil, err
		}
		merged := st.res.mergeAppend(delta)
		ent.state.Store(&cubeState{res: merged, version: snap.Version(), epoch: snap.Epoch(), table: st.table, rows: newRows,
			buildNanos: st.buildNanos + time.Since(start).Nanoseconds(), bytes: merged.memBytes()})
		e.Stats.DeltaScans.Add(1)
		e.Stats.BlocksDelta.Add(int64(len(snap.BlocksSince(st.table, st.rows))))
		e.cacheHit(ent, st)
		return merged, nil
	}

	// Joined scope, changed dims/columns, or a structural change: the
	// advance cannot be expressed as an append-only delta. Rebuild at the
	// union of cached and requested shapes so literal-set churn under
	// appends converges the same way the same-version path does.
	ent.computing.Store(true)
	e.Stats.FullRebuilds.Add(1)
	if st.epoch != snap.Epoch() {
		e.Stats.EpochRebuilds.Add(1)
	}
	fresh, err := e.freshState(ctx, snap, tables, unionDims(st.res.Dims, dims), unionCols(st.res, cols))
	if err != nil {
		return nil, err
	}
	if e.admit(fresh) {
		ent.state.Store(fresh)
	}
	e.Stats.CacheMisses.Add(1)
	return fresh.res, nil
}

// runCubeDelta scans joined rows [lo, hi) into a partial CubeResult using
// the same kernel dispatch as a full pass. Delta ranges are small (the
// appended blocks), so the scan is single-threaded.
func (e *Engine) runCubeDelta(ctx context.Context, view *db.JoinView, tables []string, dims []DimSpec, cols []trackedCol, lo, hi int) (*CubeResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.Stats.RowsScanned.Add(int64(hi - lo))
	pc := passConfig{stats: &e.Stats, scalar: e.scalarKernel, zones: e.zoneMaps}
	return computeCubeRange(ctx, view, tables, dims, cols, lo, hi, pc)
}

// missingCols returns the requested tracked columns the cube does not cover.
func missingCols(r *CubeResult, cols []trackedCol) []trackedCol {
	var missing []trackedCol
	for _, tc := range cols {
		if tc.ref.IsStar() {
			continue
		}
		if !r.hasColumn(tc.ref, tc.needDistinct) {
			missing = append(missing, tc)
		}
	}
	return missing
}

func (e *Engine) runCube(ctx context.Context, view *db.JoinView, tables []string, dims []DimSpec, cols []trackedCol) (*CubeResult, error) {
	if e.testHookBeforeCubePass != nil {
		e.testHookBeforeCubePass()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.Stats.CubePasses.Add(1)
	e.Stats.RowsScanned.Add(int64(view.NumRows()))
	pc := passConfig{
		stats:  &e.Stats,
		scalar: e.scalarKernel,
		zones:  e.zoneMaps,
		sched:  e.sched,
	}
	return computeCubeRange(ctx, view, tables, dims, cols, 0, view.NumRows(), pc)
}

// trackedColsFor deduplicates aggregate requests into tracked columns.
func trackedColsFor(reqs []AggRequest) []trackedCol {
	byKey := make(map[string]*trackedCol)
	var order []string
	for _, r := range reqs {
		if r.Col.IsStar() {
			continue
		}
		k := r.Col.String()
		tc, ok := byKey[k]
		if !ok {
			tc = &trackedCol{ref: r.Col}
			byKey[k] = tc
			order = append(order, k)
		}
		if r.Fn == CountDistinct {
			tc.needDistinct = true
		}
	}
	out := make([]trackedCol, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out
}

// dimsCover reports whether a cached cube's dims can encode every request
// dim: the same columns, with each cached literal list containing every
// requested literal. Extra cached literals only carve more values out of the
// InOrDefault bucket — cells for shared literals and the rollup are byte-for
// byte what a narrower build produces — so a covering cube answers the
// request exactly like a freshly built one.
func dimsCover(have, want []DimSpec) bool {
	if len(have) != len(want) {
		return false
	}
	hm := make(map[string]map[string]struct{}, len(have))
	for _, d := range have {
		set, ok := hm[d.Col.String()]
		if !ok {
			set = make(map[string]struct{}, len(d.Literals))
			hm[d.Col.String()] = set
		}
		for _, lit := range d.Literals {
			set[lit] = struct{}{}
		}
	}
	for _, d := range want {
		set, ok := hm[d.Col.String()]
		if !ok {
			return false
		}
		for _, lit := range d.Literals {
			if _, ok := set[lit]; !ok {
				return false
			}
		}
	}
	return true
}

// unionDims widens cached dims with any requested literals they are missing:
// cached literals keep their positions, new ones append in request order, so
// the result is deterministic and still covers everything the cached cube
// answered. Falls back to the request when the column sets diverge (distinct
// signatures — cannot happen for dims reaching one cache entry).
func unionDims(have, want []DimSpec) []DimSpec {
	if len(have) != len(want) {
		return want
	}
	wm := make(map[string][]string, len(want))
	for _, d := range want {
		wm[d.Col.String()] = d.Literals
	}
	out := make([]DimSpec, len(have))
	for i, d := range have {
		if _, ok := wm[d.Col.String()]; !ok {
			return want
		}
		lits := append([]string(nil), d.Literals...)
		seen := make(map[string]struct{}, len(lits))
		for _, l := range lits {
			seen[l] = struct{}{}
		}
		for _, l := range wm[d.Col.String()] {
			if _, ok := seen[l]; !ok {
				lits = append(lits, l)
				seen[l] = struct{}{}
			}
		}
		out[i] = DimSpec{Col: d.Col, Literals: lits}
	}
	return out
}

// unionCols is the cached cube's tracked columns plus the requested ones it
// is missing — the column set a literal-widening rebuild must carry so no
// previously cached aggregate is dropped from the entry.
func unionCols(r *CubeResult, cols []trackedCol) []trackedCol {
	return append(r.trackedCols(), missingCols(r, cols)...)
}

// AnswerFromCube evaluates q against a cube, recording the answered-query
// statistic. It returns an error when the cube does not cover q (callers
// are expected to construct covering cubes).
func (e *Engine) AnswerFromCube(r *CubeResult, q Query) (float64, error) {
	v, ok := r.Value(q)
	if !ok {
		return math.NaN(), fmt.Errorf("sqlexec: cube %v does not cover query %s", r.Dims, q.Key())
	}
	e.Stats.CubeAnswers.Add(1)
	return v, nil
}
