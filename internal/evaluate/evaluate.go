// Package evaluate adapts §6 of the paper — massive-scale evaluation of
// candidate queries — to the EM loop. There is one batch loop,
// sqlexec.Engine.EvaluateBatch (deduplicate, plan into merged cube passes,
// run them on the engine's scheduler, answer each query from its cell,
// fall back to a scan), and every way of executing a document is a point
// in the product of two independent axes that nest around it:
//
//   - strategy, the rows of Table 6: cached plans cube passes with
//     InOrDefault literal coding over an engine whose cube cache carries
//     results across claims, EM iterations and documents, and is how a
//     checker always runs; merged is the same over an engine built with
//     caching off (core.Config.Exec); naive plans every candidate as its
//     own scan (NewNaiveEvaluator), the reference that only Table 6 and
//     its tests build;
//   - pooling: a *sqlexec.Window wrapped around the engine merges the
//     batches of concurrently-checked documents into shared passes.
//
// CubeEvaluator adds the one piece of per-document policy — the literal
// pool that keeps cube signatures stable — and implements model.Evaluator.
// Its Parallel runs the EM loop's per-claim phases on the engine's
// scheduler too, so one pool, whatever the axes, bounds a whole check. It
// is safe for concurrent use.
package evaluate

import (
	"context"

	"aggchecker/internal/sqlexec"
)

// CubeEvaluator feeds a document's claim batches to a batch runner.
// Literal sets per column are document-wide (SetPool) so cube signatures
// stay stable across claims, which is what makes the engine's result cache
// effective (§6.3); literals seen in batches are accumulated as a fallback
// when no pool is provided.
type CubeEvaluator struct {
	Engine *sqlexec.Engine
	// Workers caps how many of a batch's passes and scans run at once on
	// the engine's scheduler; ≤ 0 leaves the pool width as the only bound.
	Workers int
	// Runner, when non-nil, executes the batches instead of the engine
	// directly: a sqlexec.Window pools them with batches from other
	// documents being checked concurrently (corpus audits).
	Runner BatchRunner

	naive bool
	pool  sqlexec.LiteralPool
}

// BatchRunner executes one document's claim batches; see
// sqlexec.BatchRunner.
type BatchRunner = sqlexec.BatchRunner

// NewCubeEvaluator returns a merging evaluator over the engine.
func NewCubeEvaluator(e *sqlexec.Engine) *CubeEvaluator {
	return &CubeEvaluator{Engine: e}
}

// NewNaiveEvaluator returns the Table 6 "Naive" strategy: the same loop
// with every query planned as its own scan.
func NewNaiveEvaluator(e *sqlexec.Engine) *CubeEvaluator {
	return &CubeEvaluator{Engine: e, naive: true}
}

// SetPool folds the document-wide literal pool (column reference string →
// literals) into the evaluator's pool.
func (c *CubeEvaluator) SetPool(pool map[string][]string) { c.pool.Add(pool) }

// Parallel runs fn(0..n-1) as one job on the engine's scheduler, the
// pool the check's batches, passes and morsels share, so the pool width
// bounds the model's per-claim phases too. The job passes no stats: the
// scheduler counters keep counting execution-layer tasks only. fn never
// blocks or nests a job, so owner participation keeps it deadlock-free.
func (c *CubeEvaluator) Parallel(ctx context.Context, n int, fn func(i int)) {
	// The error is ctx.Err(), which the EM loop checks after every phase.
	_ = c.Engine.Scheduler().Run(ctx, nil, n, 0, func(i int) error {
		fn(i)
		return nil
	})
}

// EvaluateBatch answers every query of the batch positionally, NaN marking
// undefined results. Cancellation is honored between and inside cube
// passes; see sqlexec.Engine.EvaluateBatch.
func (c *CubeEvaluator) EvaluateBatch(ctx context.Context, queries []sqlexec.Query) []float64 {
	opts := sqlexec.BatchOptions{Pool: c.pool.For(queries), Workers: c.Workers, Naive: c.naive}
	if c.Runner != nil {
		return c.Runner.EvaluateBatch(ctx, queries, opts)
	}
	return c.Engine.EvaluateBatch(ctx, queries, opts)
}
