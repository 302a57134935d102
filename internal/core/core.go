// Package core wires the AggChecker pipeline end to end (Figure 1 of the
// paper): fragment extraction and indexing, document parsing and claim
// detection, keyword matching, the expectation-maximization probabilistic
// model, and massive-scale candidate evaluation. The root aggchecker
// package re-exports the public surface.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"aggchecker/internal/colstore"
	"aggchecker/internal/db"
	"aggchecker/internal/document"
	"aggchecker/internal/evaluate"
	"aggchecker/internal/fragments"
	"aggchecker/internal/keywords"
	"aggchecker/internal/model"
	"aggchecker/internal/shard"
	"aggchecker/internal/sqlexec"
)

// EvalMode selects the query evaluation strategy (the rows of Table 6).
type EvalMode int

const (
	// EvalCached merges candidates into cube queries and caches cube
	// results across claims and EM iterations (the paper's full system).
	EvalCached EvalMode = iota
	// EvalMerged merges candidates into cube queries but never reuses
	// results across requests.
	EvalMerged
	// EvalNaive evaluates every candidate query with its own scan.
	EvalNaive
)

func (m EvalMode) String() string {
	switch m {
	case EvalCached:
		return "merged+cached"
	case EvalMerged:
		return "merged"
	case EvalNaive:
		return "naive"
	}
	return "unknown"
}

// ParseEvalMode parses a user-supplied evaluation mode name. It accepts the
// String() forms plus common aliases ("cached", "merged+cached", "merged",
// "naive"), case-insensitively.
func ParseEvalMode(s string) (EvalMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "cached", "merged+cached", "merged-cached":
		return EvalCached, nil
	case "merged":
		return EvalMerged, nil
	case "naive":
		return EvalNaive, nil
	}
	return EvalCached, fmt.Errorf("unknown eval mode %q (want cached, merged, or naive)", s)
}

// Config aggregates the tunables of every pipeline stage.
type Config struct {
	Fragments fragments.Options
	Context   keywords.ContextConfig
	Model     model.Config
	Mode      EvalMode
	// Workers bounds the engine-side worker pool that executes the merged
	// cube passes of each document-level batch; ≤ 0 uses GOMAXPROCS.
	Workers int
	// Exec configures every engine this config builds (the checker's cached
	// engine and the fresh per-request engines of merged/naive modes):
	// scan-worker bounds, zone maps, kernel selection, and — installed by
	// core.WithScheduler at the service layer — the process-wide shared
	// morsel scheduler. See sqlexec's ExecOption.
	Exec []sqlexec.ExecOption
	// Shards > 1 partitions the database's fact tables into that many
	// independent snapshot-versioned partitions at checker build time and
	// answers every candidate query by scatter-gather over per-shard
	// workers (package shard). Results are identical to unsharded
	// execution; 0 or 1 runs unsharded.
	Shards int
	// ShardKeys maps fact-table name to the column rows are hash-placed by
	// (co-locating equal keys on one shard). Tables without an entry fall
	// back to round-robin placement; dimension tables are replicated.
	ShardKeys map[string]string
	// ShardEndpoints switches shard workers from in-process engines to
	// remote peers speaking the shard HTTP protocol (aggcheckd's
	// /v1/shard/databases/{name}/cube and /scan): each partition is placed
	// on an endpoint by consistent hashing and served under the partition
	// database's name. Remote workers pin their own partition snapshots per
	// request, so cross-shard version consistency is per-fan-out rather
	// than per-check. Empty runs shards in process.
	ShardEndpoints []string
	// DataDir, when non-empty, backs each service-hosted database with a
	// persistent columnar block store under DataDir/<name>: every Commit is
	// made durable, and a restart reopens the store at the last published
	// version without touching the source files. Empty runs memory-only.
	DataDir string
	// CompactAfter > 0 triggers a background compaction when a refresh
	// leaves any table with at least that many sealed blocks: blocks are
	// resealed into one per table with adaptively re-chunked zone maps and
	// republished under a new structural epoch. The threshold counts
	// blocks, not refreshes: the initial load is one block and every
	// refresh that appends rows seals one more, so CompactAfter = 3 reseals
	// on the second refresh after a load or a reseal. 0 never compacts.
	CompactAfter int
}

// DefaultConfig is the paper's main configuration.
func DefaultConfig() Config {
	return Config{
		Fragments: fragments.DefaultOptions(),
		Context:   keywords.DefaultContext(),
		Model:     model.DefaultConfig(),
		Mode:      EvalCached,
	}
}

// Checker verifies text documents against one relational database. Create
// it once per database; Check may be called for many documents.
type Checker struct {
	DB      *db.Database
	Catalog *fragments.Catalog
	Engine  *sqlexec.Engine
	Config  Config

	// shards and coord are set when Config.Shards > 1: the hash-partitioned
	// storage and the cached-mode coordinator whose partition engines keep
	// their cube caches across documents (merged/naive modes build fresh
	// partition engines per request, mirroring the unsharded strategy
	// isolation).
	shards *db.Sharder
	coord  *shard.Coordinator

	// store is the persistent block store behind DB when Config.DataDir is
	// set (service-built checkers only); compacting serializes background
	// compactions.
	store      *colstore.Store
	compacting atomic.Bool
	// compactDone, when non-nil, is called with the outcome of every
	// background compaction once it has finished; tests wait on it.
	compactDone func(error)
}

// NewChecker builds the fragment catalog and indexes for the database
// (the per-dataset preprocessing of §4.2). With cfg.Shards > 1 it also
// partitions the fact tables and stands up the shard coordinator.
func NewChecker(d *db.Database, cfg Config) *Checker {
	c := &Checker{
		DB:      d,
		Catalog: fragments.BuildCatalog(d, cfg.Fragments),
		Engine:  sqlexec.NewEngine(d, cfg.Exec...),
		Config:  cfg,
	}
	if cfg.Shards > 1 {
		if sh, err := db.NewSharder(d, cfg.Shards, db.ShardOptions{Keys: cfg.ShardKeys}); err == nil {
			c.shards = sh
			c.coord = shard.NewCoordinator(c.buildShardWorkers(cfg, false), c.Engine)
		}
	}
	return c
}

// buildShardWorkers wraps each partition in a worker: an in-process engine
// built with the config's Exec options (so partitions share the service's
// morsel scheduler when one is installed), or — with ShardEndpoints — an
// HTTP client against the consistent-hash-placed peer serving the
// partition's database. Remote workers manage their own caching, so
// noCache only applies in process.
func (c *Checker) buildShardWorkers(cfg Config, noCache bool) []shard.Worker {
	workers := make([]shard.Worker, 0, c.shards.NumShards())
	if len(cfg.ShardEndpoints) > 0 {
		ring := shard.NewRing(cfg.ShardEndpoints)
		for i, p := range c.shards.Partitions() {
			workers = append(workers, &shard.Client{Base: ring.NodeForShard(i), Database: p.Name})
		}
		return workers
	}
	for _, p := range c.shards.Partitions() {
		e := sqlexec.NewEngine(p, cfg.Exec...)
		if noCache {
			e.Tune(sqlexec.WithCaching(false))
		}
		workers = append(workers, &shard.LocalWorker{Engine: e})
	}
	return workers
}

// Sharder exposes the checker's partitioned storage, or nil when the
// checker runs unsharded.
func (c *Checker) Sharder() *db.Sharder { return c.shards }

// Store exposes the checker's persistent block store, or nil when the
// checker runs memory-only.
func (c *Checker) Store() *colstore.Store { return c.store }

// Compact reseals the database's small sealed blocks into one block per
// table with adaptively re-chunked zone maps, republishing under a new
// structural epoch. In-flight checks keep their pinned snapshots; the next
// check pays one counted full cube rebuild (Stats.EpochRebuilds) against
// the resealed layout. With a store attached the reseal is recorded
// durably before Compact returns.
func (c *Checker) Compact() error {
	_, err := c.DB.Compact()
	return err
}

// maybeCompactAsync starts a background compaction if any table has
// reached the sealed-block threshold and no compaction is already running.
func (c *Checker) maybeCompactAsync(after int) {
	if after <= 0 || c.DB.MaxBlocks() < after {
		return
	}
	if !c.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		// A failed compaction surfaces through Database.PersistError on the
		// next commit; there is no caller to report to here.
		err := c.Compact()
		c.compacting.Store(false)
		if c.compactDone != nil {
			c.compactDone(err)
		}
	}()
}

// detachStore releases the store's file handles while keeping its column
// mappings valid for snapshot readers still draining. Called on eviction.
func (c *Checker) detachStore() {
	if c.store != nil {
		c.store.Detach()
	}
}

// AbsorbShards routes rows committed to the source database since the last
// absorption into the partitions (sealing per-shard delta blocks), and
// reports how many rows moved. It is a no-op returning 0 when unsharded.
func (c *Checker) AbsorbShards() (int, error) {
	if c.shards == nil {
		return 0, nil
	}
	return c.shards.Absorb()
}

// Report is the outcome of checking one document.
type Report struct {
	Document *document.Document
	Result   *model.Result

	// TotalTime covers the whole pipeline; QueryTime only the model's
	// candidate evaluation phase (the "Query" column of Table 6).
	TotalTime time.Duration
	QueryTime time.Duration
	Stats     map[string]int64
}

// Claims returns the per-claim verification results.
func (r *Report) Claims() []model.ClaimResult { return r.Result.Claims }

// ErroneousClaims returns the claims tentatively marked wrong.
func (r *Report) ErroneousClaims() []model.ClaimResult {
	var out []model.ClaimResult
	for _, c := range r.Result.Claims {
		if c.Erroneous {
			out = append(out, c)
		}
	}
	return out
}

// Check runs the full verification pipeline on a parsed document. The
// request is abandoned — promptly, mid-EM if necessary — once ctx is
// cancelled or a WithDeadline option expires, returning ctx's error.
// Per-request options override the checker's Config without mutating it,
// so concurrent Check calls with different options are safe.
func (c *Checker) Check(ctx context.Context, doc *document.Document, opts ...CheckOption) (*Report, error) {
	return c.check(ctx, doc, newCheckSettings(c.Config, opts))
}

// check is the shared pipeline behind Check and Stream.
func (c *Checker) check(ctx context.Context, doc *document.Document, set checkSettings) (*Report, error) {
	if set.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, set.deadline)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	scores := keywords.MatchAll(c.Catalog, doc, set.cfg.Context, set.cfg.Model.TopKHits)

	ev, engine := c.evaluatorFor(set.cfg)
	if w := set.window; w != nil && set.cfg.Mode == EvalCached {
		// Pooling axis: the window wraps the checker-lifetime runner, so it
		// applies exactly when this request runs on that runner. Everyone
		// registered must eventually park a batch or leave, or the other
		// documents wait out the flush deadline every EM iteration.
		ev.Runner = w
		w.Join()
		defer w.Leave()
	}
	// Pin one storage snapshot for the whole request: every cube pass and
	// direct scan of this check observes a single version, so a Refresh
	// committing mid-check cannot mix row sets between EM iterations. A
	// sharded checker additionally pins every partition snapshot, so shard
	// workers stay version-consistent across the fan-outs of one check even
	// while AbsorbShards commits partition deltas concurrently.
	ctx = sqlexec.WithSnapshot(ctx, engine.DB.Snapshot())
	if c.shards != nil {
		for _, p := range c.shards.Partitions() {
			ctx = sqlexec.WithSnapshot(ctx, p.Snapshot())
		}
	}
	// Per-request execution overrides (WithScanWorkers, WithZoneMaps) ride
	// the context: the shared engine is never retuned for one request.
	if len(set.exec) > 0 {
		ctx = sqlexec.ContextWithOptions(ctx, set.exec...)
	}
	// Diff the engine counters around the run so Report.Stats is
	// per-document even in cached mode, where the checker-lifetime engine
	// is shared across calls. Snapshot reads are atomic loads, so taking
	// one while other checks or streams are in flight is race-free (the
	// diff then also includes their interleaved work — the counters are
	// engine-wide by design).
	before := engine.Stats.Snapshot()
	queryStart := time.Now()
	res, err := model.Run(ctx, c.Catalog, doc, scores, ev, set.cfg.Model, set.observer)
	if err != nil {
		return nil, err
	}
	queryTime := time.Since(queryStart)

	return &Report{
		Document:  doc,
		Result:    res,
		TotalTime: time.Since(start),
		QueryTime: queryTime,
		Stats:     diffStats(before, engine.Stats.Snapshot()),
	}, nil
}

// diffStats subtracts the before-snapshot from the after-snapshot, keeping
// every counter of after (counters are monotonic).
func diffStats(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// runner is the topology axis over the checker-lifetime engine: the engine
// itself, or the coordinator that fans its passes out to the partitions.
func (c *Checker) runner() evaluate.BatchRunner {
	if c.coord != nil {
		return c.coord
	}
	return c.Engine
}

// evaluatorFor composes the executor of one request from its strategy and
// the checker's topology (check adds the third axis, pooling). Strategy:
// cached mode runs on the checker-lifetime engine so cube results persist
// across documents of the same database; merged and naive modes get a fresh
// non-caching engine (and fresh partition engines) so cached state cannot
// leak between strategy comparisons, and naive additionally plans every
// query as its own scan. Topology: a sharded checker puts a coordinator
// over the partitions in front of whichever engine the strategy chose.
func (c *Checker) evaluatorFor(cfg Config) (*evaluate.CubeEvaluator, *sqlexec.Engine) {
	engine, run := c.Engine, c.runner()
	if cfg.Mode != EvalCached {
		engine = sqlexec.NewEngine(c.DB, cfg.Exec...)
		engine.Tune(sqlexec.WithCaching(false))
		run = engine
		if c.shards != nil {
			run = shard.NewCoordinator(c.buildShardWorkers(cfg, true), engine)
		}
	}
	ev := evaluate.NewCubeEvaluator(engine)
	if cfg.Mode == EvalNaive {
		ev = evaluate.NewNaiveEvaluator(engine)
	}
	ev.Workers = cfg.Workers
	ev.Runner = run
	return ev, engine
}

// GroundTruth is the hand-built translation of one claim: the matching
// query plus whether the claimed value is correct (Definition 1), used for
// the accuracy metrics of §7 and Appendix C.
type GroundTruth struct {
	Query   sqlexec.Query
	Correct bool
}

// RankOf returns the 0-based rank of the ground-truth query in a claim's
// posterior ranking, or -1 when absent.
func RankOf(cr model.ClaimResult, truth sqlexec.Query) int {
	key := truth.Key()
	for i, rq := range cr.Ranked {
		if rq.Query.Key() == key {
			return i
		}
	}
	return -1
}
