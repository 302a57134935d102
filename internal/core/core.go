// Package core wires the AggChecker pipeline end to end (Figure 1 of the
// paper): fragment extraction and indexing, document parsing and claim
// detection, keyword matching, the expectation-maximization probabilistic
// model, and massive-scale candidate evaluation. The root aggchecker
// package re-exports the public surface.
package core

import (
	"context"
	"sync/atomic"
	"time"

	"aggchecker/internal/colstore"
	"aggchecker/internal/db"
	"aggchecker/internal/document"
	"aggchecker/internal/evaluate"
	"aggchecker/internal/fragments"
	"aggchecker/internal/keywords"
	"aggchecker/internal/model"
	"aggchecker/internal/sqlexec"
)

// Config aggregates the tunables of every pipeline stage.
type Config struct {
	Fragments fragments.Options
	Context   keywords.ContextConfig
	Model     model.Config
	// Workers caps how many cube passes and direct scans of one claim batch
	// run at once on the engine's scheduler; ≤ 0 leaves the pool width as
	// the only bound.
	Workers int
	// Exec configures the checker's engine: caching, zone maps, kernel
	// selection, cache budget, and the scheduler — installed by
	// core.WithScheduler at the service layer, the process-wide default
	// pool otherwise. An engine's settings are fixed when it is built. See
	// sqlexec's ExecOption.
	Exec []sqlexec.ExecOption
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
	}
}

// Checker verifies text documents against one relational database. Create
// it once per database; Check may be called for many documents.
type Checker struct {
	DB      *db.Database
	Catalog *fragments.Catalog
	Engine  *sqlexec.Engine
	Config  Config

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
// (the per-dataset preprocessing of §4.2).
func NewChecker(d *db.Database, cfg Config) *Checker {
	return &Checker{
		DB:      d,
		Catalog: fragments.BuildCatalog(d, cfg.Fragments),
		Engine:  sqlexec.NewEngine(d, cfg.Exec...),
		Config:  cfg,
	}
}

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
	// Claim by claim rather than keywords.MatchAll, so a deadline expiring
	// during keyword matching of a long document is honored between claims.
	scores := make([]keywords.Scores, len(doc.Claims))
	for i, claim := range doc.Claims {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scores[i] = keywords.Match(c.Catalog, claim, set.cfg.Context, set.cfg.Model.TopKHits)
	}

	// The checker's engine answers every batch, inside an Audit through
	// the planning window that wraps it.
	ev := evaluate.NewCubeEvaluator(c.Engine)
	ev.Workers = set.cfg.Workers
	if w := set.window; w != nil {
		// Everyone registered must eventually park a batch or leave, or the
		// other documents wait out the flush deadline every EM iteration.
		ev.Runner = w
		w.Join()
		defer w.Leave()
	}
	// Pin one storage snapshot for the whole request: every cube pass and
	// direct scan of this check observes a single version, so a Refresh
	// committing mid-check cannot mix row sets between EM iterations.
	ctx = sqlexec.WithSnapshot(ctx, c.Engine.DB.Snapshot())
	// Diff the engine counters around the run so Report.Stats is
	// per-document although the checker-lifetime engine is shared across
	// calls. Snapshot reads are atomic loads, so taking one while other
	// checks or streams are in flight is race-free (the diff then also
	// includes their interleaved work — the counters are engine-wide by
	// design).
	before := c.Engine.Stats.Snapshot()
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
		Stats:     diffStats(before, c.Engine.Stats.Snapshot()),
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
