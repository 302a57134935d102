package sqlexec

import "context"

// This file is the unified execution-options surface of the engine: one
// functional-options type configures an engine at construction
// (NewEngine(d, opts...)), retunes it atomically at runtime
// (Engine.Tune(opts...)), and — for the per-request subset — overrides a
// single request through its context (ContextWithOptions).

// execOptions collects the knobs an ExecOption list sets. Pointer fields
// distinguish "not mentioned" from an explicit value, so Tune only touches
// the knobs its options name.
type execOptions struct {
	zoneMaps        *bool
	scalarKernel    *bool
	caching         *bool
	pushdown        *bool
	scheduler       *Scheduler
	schedulerSet    bool
	cubeCacheBudget *int64
}

// ExecOption configures engine execution: accepted by NewEngine, applied
// atomically at runtime by Engine.Tune, and (WithZoneMaps only) carried per
// request by ContextWithOptions.
type ExecOption func(*execOptions)

// WithZoneMaps toggles zone-map pruning in the shared scan pipeline (on by
// default). With pruning off, direct scans and cube passes process every
// block; results are identical either way (pruning only skips provably
// irrelevant rows), so off is the oracle of the scan differential tests
// and a per-request escape hatch. Honored per request by
// ContextWithOptions.
func WithZoneMaps(on bool) ExecOption {
	return func(o *execOptions) { o.zoneMaps = &on }
}

// WithScalarKernel routes cube passes to the scalar interpreter
// (row-at-a-time, map-keyed cell store) instead of the vectorized columnar
// kernel. Both kernels produce identical results: the scalar one is the
// oracle of the kernel differential tests and the yardstick of
// BenchmarkCubeKernel.
func WithScalarKernel(on bool) ExecOption {
	return func(o *execOptions) { o.scalarKernel = &on }
}

// WithCaching toggles the cube-result cache (Table 6's "+ Caching" row
// turns it off to isolate the effect of query merging). Turning it off
// also drops already-cached results.
func WithCaching(on bool) ExecOption {
	return func(o *execOptions) { o.caching = &on }
}

// WithSelectionPushdown toggles selection-vector pushdown in the batch
// planner (on by default): queries sharing an equality predicate may merge
// into one filtered cube pass whose kernel compacts each scan segment
// through the shared predicate's selection vector before accumulating.
// Results are bit-for-bit identical either way — off is the oracle of the
// pushdown differential tests.
func WithSelectionPushdown(on bool) ExecOption {
	return func(o *execOptions) { o.pushdown = &on }
}

// WithCubeCacheBudget bounds the cube cache's estimated resident bytes
// (the cost-aware cache policy's sweep target). n <= 0 removes the bound.
// Publishes that push the cache over the budget trigger a score-ordered
// eviction sweep (buildNanos×(1+hits)/bytes ascending: cheap-to-rebuild,
// rarely-hit giants evict first); a single result larger than the whole
// budget is served but never cached. Results are identical at any budget —
// only rebuild work changes.
func WithCubeCacheBudget(n int64) ExecOption {
	return func(o *execOptions) { o.cubeCacheBudget = &n }
}

// WithScheduler sets the pool the engine runs on: its batches' cube passes
// and direct scans, and the zone-aligned morsels large passes and scans
// split into, all share it fairly with every other engine using it. The
// pool's width is the engine's only parallelism setting. nil (and an
// engine built without this option) selects the process-wide default pool,
// GOMAXPROCS wide. The engine does not own the scheduler; whoever created
// it calls Close.
func WithScheduler(s *Scheduler) ExecOption {
	return func(o *execOptions) { o.scheduler = s; o.schedulerSet = true }
}

// Tune applies options to a live engine. Each knob is an independent
// atomic: concurrent requests observe either the old or the new value,
// never a torn mix of one knob.
func (e *Engine) Tune(opts ...ExecOption) {
	var o execOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.zoneMaps != nil {
		e.zoneMaps.Store(*o.zoneMaps)
	}
	if o.scalarKernel != nil {
		e.scalarKernel.Store(*o.scalarKernel)
	}
	if o.pushdown != nil {
		e.pushdown.Store(*o.pushdown)
	}
	if o.schedulerSet {
		if o.scheduler == nil {
			o.scheduler = defaultScheduler()
		}
		e.sched.Store(o.scheduler)
	}
	if o.cubeCacheBudget != nil {
		e.cubeCacheBudget.Store(*o.cubeCacheBudget)
		e.maybeEvict()
	}
	if o.caching != nil {
		e.caching.Store(*o.caching)
		if !*o.caching {
			e.ResetCache()
		}
	}
}

// zoneMapsCtxKey carries a per-request zone-map override through a context.
type zoneMapsCtxKey struct{}

// ContextWithOptions returns a context overriding execution options for
// every engine read under it. Only WithZoneMaps is honored — the one knob
// that is safe to vary between concurrent requests on a shared engine (it
// parameterizes a single scan, not shared cache state); kernel, caching,
// and scheduler options are ignored here. Without a WithZoneMaps option the
// enclosing override, if any, stays in force.
func ContextWithOptions(ctx context.Context, opts ...ExecOption) context.Context {
	var o execOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.zoneMaps == nil {
		return ctx
	}
	return context.WithValue(ctx, zoneMapsCtxKey{}, *o.zoneMaps)
}

// zoneMapsFor resolves zone-map pruning for one request: the context
// override when present, the engine setting otherwise.
func (e *Engine) zoneMapsFor(ctx context.Context) bool {
	if on, ok := ctx.Value(zoneMapsCtxKey{}).(bool); ok {
		return on
	}
	return e.zoneMaps.Load()
}
