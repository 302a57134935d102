package sqlexec

// This file is the execution-options surface of the engine: one
// functional-options type configures an engine at construction
// (NewEngine(d, opts...)), and the settings are fixed for the engine's
// life. An engine that needs different settings is a different engine.

// ExecOption configures engine execution; NewEngine applies the options in
// order, so a later option overrides an earlier one.
type ExecOption func(*Engine)

// WithZoneMaps toggles zone-map pruning in the shared scan pipeline (on by
// default). With pruning off, direct scans and cube passes process every
// block; results are identical either way (pruning only skips provably
// irrelevant rows), so off is the oracle of the scan differential tests
// and an operational escape hatch.
func WithZoneMaps(on bool) ExecOption {
	return func(e *Engine) { e.zoneMaps = on }
}

// WithCaching toggles the cube-result cache (on by default; Table 6's
// "+ Caching" row turns it off to isolate the effect of query merging).
func WithCaching(on bool) ExecOption {
	return func(e *Engine) { e.caching = on }
}

// WithCubeCacheBudget bounds the cube cache's estimated resident bytes
// (the cost-aware cache policy's sweep target). n <= 0 removes the bound.
// Publishes that push the cache over the budget trigger a score-ordered
// eviction sweep (buildNanos×(1+hits)/bytes ascending: cheap-to-rebuild,
// rarely-hit giants evict first); a single result larger than the whole
// budget is served but never cached. Results are identical at any budget —
// only rebuild work changes.
func WithCubeCacheBudget(n int64) ExecOption {
	return func(e *Engine) { e.cubeCacheBudget = n }
}

// WithScheduler sets the pool the engine runs on: its batches' cube passes
// and direct scans, and the zone-aligned morsels large passes and scans
// split into, all share it fairly with every other engine using it. The
// pool's width is the engine's only parallelism setting. nil (and an
// engine built without this option) selects the process-wide default pool,
// GOMAXPROCS wide. The engine does not own the scheduler; whoever created
// it calls Close.
func WithScheduler(s *Scheduler) ExecOption {
	return func(e *Engine) { e.sched = s }
}
