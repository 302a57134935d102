// Package evaluate adapts §6 of the paper — massive-scale evaluation of
// candidate queries — to the EM loop. There is one batch loop,
// sqlexec.RunBatch (deduplicate, plan into merged cube passes, run them on
// a bounded pool, answer each query from its cell, fall back to a scan),
// and every way of executing a document is a point in the product of three
// independent axes that nest around it:
//
//   - strategy, the rows of Table 6: naive plans every candidate as its own
//     scan (NewNaiveEvaluator); merged plans cube passes with InOrDefault
//     literal coding over an engine that does not cache; cached is merged
//     over an engine whose cube cache carries results across claims, EM
//     iterations and documents;
//   - topology: the Runner is a local *sqlexec.Engine, or a
//     *shard.Coordinator that fans each pass and scan out to partitions;
//   - pooling: a *sqlexec.Window wrapped around either runner merges the
//     batches of concurrently-checked documents into shared passes.
//
// CubeEvaluator adds the one piece of per-document policy — the literal
// pool that keeps cube signatures stable — and implements model.Evaluator.
// It is safe for concurrent use.
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
	// Workers bounds the worker pool per batch; ≤ 0 uses GOMAXPROCS.
	Workers int
	// Runner, when non-nil, executes the batches instead of the engine
	// directly: a shard.Coordinator scatter-gathers them over partitions, a
	// sqlexec.Window pools them with batches from other documents being
	// checked concurrently (corpus audits).
	Runner BatchRunner

	naive bool
	pool  sqlexec.LiteralPool
}

// BatchRunner executes one document's claim batches; see
// sqlexec.BatchRunner for the implementations.
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

// EvaluateBatch answers every query of the batch positionally, NaN marking
// undefined results. Cancellation is honored between and inside cube
// passes; see sqlexec.RunBatch.
func (c *CubeEvaluator) EvaluateBatch(ctx context.Context, queries []sqlexec.Query) []float64 {
	opts := sqlexec.BatchOptions{Pool: c.pool.For(queries), Workers: c.Workers, Naive: c.naive}
	if c.Runner != nil {
		return c.Runner.EvaluateBatch(ctx, queries, opts)
	}
	return c.Engine.EvaluateBatch(ctx, queries, opts)
}
