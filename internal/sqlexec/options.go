package sqlexec

import (
	"context"
	"runtime"
)

// This file is the unified execution-options surface of the engine: one
// functional-options type configures an engine at construction
// (NewEngine(d, opts...)), retunes it atomically at runtime
// (Engine.Tune(opts...)), and — for the per-request subset — overrides a
// single request through its context (ContextWithOptions).

// execOptions collects the knobs an ExecOption list sets. Pointer fields
// distinguish "not mentioned" from an explicit value, so Tune only touches
// the knobs its options name.
type execOptions struct {
	scanWorkers     *int
	zoneMaps        *bool
	scalarKernel    *bool
	caching         *bool
	pushdown        *bool
	scheduler       *Scheduler
	schedulerSet    bool
	cubeCacheBudget *int64
}

// ExecOption configures engine execution: accepted by NewEngine, applied
// atomically at runtime by Engine.Tune, and (WithScanWorkers, WithZoneMaps
// only) carried per request by ContextWithOptions.
type ExecOption func(*execOptions)

// WithScanWorkers bounds how many workers one cube pass or direct scan may
// occupy at once (its morsels in flight on the shared scheduler, or its
// private row-range partials without one). n <= 0 restores the default:
// the scheduler's pool width when one is installed, min(GOMAXPROCS,
// defaultScanWorkers) otherwise. Honored per request by
// ContextWithOptions.
func WithScanWorkers(n int) ExecOption {
	return func(o *execOptions) { o.scanWorkers = &n }
}

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

// WithScheduler installs a shared morsel scheduler: the engine's cube
// passes and large direct scans then decompose into zone-aligned morsels
// dispatched on the scheduler's pool — shared fairly with every other
// engine using it — instead of sizing private goroutine pools. nil
// detaches the engine (private pools again). The engine does not own the
// scheduler; whoever created it calls Close.
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
	if o.scanWorkers != nil {
		e.scanWorkers.Store(int64(*o.scanWorkers))
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

// execCtxKey carries per-request execution overrides through a context.
type execCtxKey struct{}

// execOverride is the per-request subset of the execution options: the two
// knobs that are safe to vary between concurrent requests on one shared
// engine (they parameterize a single scan, not shared cache state).
type execOverride struct {
	scanWorkers *int
	zoneMaps    *bool
}

// ContextWithOptions returns a context overriding execution options for
// every engine read under it. Only WithScanWorkers and WithZoneMaps are
// honored — the per-request knobs; kernel, caching, and scheduler options
// configure shared engine state and are ignored here. Overrides stack:
// unset knobs fall through to an enclosing override, then to the engine.
func ContextWithOptions(ctx context.Context, opts ...ExecOption) context.Context {
	var o execOptions
	for _, opt := range opts {
		opt(&o)
	}
	ov := &execOverride{scanWorkers: o.scanWorkers, zoneMaps: o.zoneMaps}
	if prev, ok := ctx.Value(execCtxKey{}).(*execOverride); ok && prev != nil {
		if ov.scanWorkers == nil {
			ov.scanWorkers = prev.scanWorkers
		}
		if ov.zoneMaps == nil {
			ov.zoneMaps = prev.zoneMaps
		}
	}
	return context.WithValue(ctx, execCtxKey{}, ov)
}

// overrideFor extracts the request's execution override, if any.
func overrideFor(ctx context.Context) *execOverride {
	ov, _ := ctx.Value(execCtxKey{}).(*execOverride)
	return ov
}

// zoneMapsFor resolves zone-map pruning for one request: the context
// override when present, the engine setting otherwise.
func (e *Engine) zoneMapsFor(ctx context.Context) bool {
	if ov := overrideFor(ctx); ov != nil && ov.zoneMaps != nil {
		return *ov.zoneMaps
	}
	return e.zoneMaps.Load()
}

// rawScanWorkersFor resolves the request's scan-worker bound before
// defaulting (<= 0 means "use the default").
func (e *Engine) rawScanWorkersFor(ctx context.Context) int {
	if ov := overrideFor(ctx); ov != nil && ov.scanWorkers != nil {
		return *ov.scanWorkers
	}
	return int(e.scanWorkers.Load())
}

// resolveScanWorkers turns a raw bound into the effective one. With a
// shared scheduler the default is the pool width (the scheduler is the
// global throttle, so a pass may occupy the whole pool when it is idle);
// without one it stays min(GOMAXPROCS, defaultScanWorkers) — private
// per-pass pools under a saturated batch pool must stay small or
// goroutines and partial accumulators multiply quadratically.
func (e *Engine) resolveScanWorkers(raw int) int {
	if raw > 0 {
		return raw
	}
	if s := e.sched.Load(); s != nil {
		return s.Workers()
	}
	w := runtime.GOMAXPROCS(0)
	if w > defaultScanWorkers {
		w = defaultScanWorkers
	}
	return w
}
