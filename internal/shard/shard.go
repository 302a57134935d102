// Package shard implements sharded scatter-gather execution over
// hash-partitioned fact tables (db.Sharder). A Coordinator fans one planned
// cube pass (or one direct scan) out to K shard workers, each running the
// ordinary vectorized kernel over its own snapshot-versioned partition, and
// folds the per-shard partials back together with the exact mergeAppend
// algebra of the delta path — so a K-shard answer is bit-for-bit the
// unsharded answer for integer-valued data, and exact for counts, min/max,
// and distinct sets always. Those two operations make the Coordinator a
// sqlexec.Backend: batches run through the same sqlexec.RunBatch loop as
// on a local engine, and nest under a sqlexec.Window the same way.
//
// Workers come in two transports behind the same interface: LocalWorker
// wraps an in-process partition engine (sharing the morsel scheduler of the
// front engine), and Client speaks the same requests over HTTP to a peer
// aggcheckd serving its partitions, with consistent-hash placement (Ring)
// deciding which peer owns which shard.
package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"aggchecker/internal/sqlexec"
)

// Worker executes one shard's share of a pass. Implementations must be safe
// for concurrent use; the Coordinator calls every worker of a fan-out
// concurrently.
type Worker interface {
	// Cube runs the requested cube pass over the worker's partition.
	Cube(ctx context.Context, req sqlexec.CubeRequest) (*sqlexec.CubePartial, error)
	// Scan runs one direct query over the worker's partition.
	Scan(ctx context.Context, req sqlexec.ScanRequest) (*sqlexec.ScanPartial, error)
}

// LocalWorker runs shard requests on an in-process partition engine.
type LocalWorker struct {
	Engine *sqlexec.Engine
}

// Cube implements Worker.
func (w *LocalWorker) Cube(ctx context.Context, req sqlexec.CubeRequest) (*sqlexec.CubePartial, error) {
	return w.Engine.CubePartialFor(ctx, req)
}

// Scan implements Worker.
func (w *LocalWorker) Scan(ctx context.Context, req sqlexec.ScanRequest) (*sqlexec.ScanPartial, error) {
	return w.Engine.ScanPartialContext(ctx, req.Query)
}

// stragglerFloor keeps the straggler detector quiet on fast in-process
// fan-outs, where 2x a microsecond median is still instantaneous: a worker
// only counts as a straggler when it also lags the median by a humanly
// observable margin.
const stragglerFloor = 2 * time.Millisecond

// Coordinator fans passes out to shard workers and merges the partials.
// Worker order is shard order: merges fold shard 0..K-1 deterministically,
// which is what makes sharded answers reproducible.
type Coordinator struct {
	workers []Worker
	front   *sqlexec.Engine
}

// NewCoordinator builds a coordinator over the shard workers. front is the
// engine over the unpartitioned source database. It scans nothing; it
// supplies what is not physical: the counter block — fan-out, partial,
// merge-time and straggler counters are recorded there so they surface in
// Report.Stats, Table 6, and service status alongside the ordinary
// execution counters — the default table, the scheduler a batch's passes
// run on, and the plan policy (small groups merge into cube passes only
// while front caches, which is how core marks partitions that cache). The
// per-worker fan-out itself stays on plain goroutines: a remote worker
// blocks on HTTP and must not hold a pool slot.
func NewCoordinator(workers []Worker, front *sqlexec.Engine) *Coordinator {
	return &Coordinator{workers: workers, front: front}
}

// NumWorkers returns the fan-out width K.
func (c *Coordinator) NumWorkers() int { return len(c.workers) }

// Stats returns the counter block the coordinator records into.
func (c *Coordinator) Stats() *sqlexec.Stats { return &c.front.Stats }

// fanOut calls fn once per worker concurrently and collects the results in
// worker order. The first error cancels the remaining workers and is
// returned (preferring a real failure over the cancellation noise of the
// others). Per-worker latencies feed the straggler counter.
func fanOut[T any](ctx context.Context, c *Coordinator, fn func(ctx context.Context, w Worker) (T, error)) ([]T, error) {
	k := len(c.workers)
	if k == 0 {
		return nil, fmt.Errorf("shard: coordinator has no workers")
	}
	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, k)
	errs := make([]error, k)
	lats := make([]time.Duration, k)
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w Worker) {
			defer wg.Done()
			start := time.Now()
			res, err := fn(fanCtx, w)
			lats[i] = time.Since(start)
			if err != nil {
				errs[i] = err
				cancel() // first failure aborts the fan-out
				return
			}
			results[i] = res
		}(i, w)
	}
	wg.Wait()

	c.front.Stats.ShardFanouts.Add(1)
	c.front.Stats.ShardPartials.Add(int64(k))
	c.front.Stats.ShardStragglers.Add(countStragglers(lats))

	// Prefer a worker's own failure over the context cancellations it
	// induced in its peers, so callers see the root cause.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || (firstErr == context.Canceled && err != context.Canceled) {
			firstErr = err
		}
	}
	if firstErr != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, firstErr
	}
	return results, nil
}

// countStragglers counts workers that finished far behind the fan-out's
// median latency (more than twice the median, and at least stragglerFloor
// beyond it).
func countStragglers(lats []time.Duration) int64 {
	if len(lats) < 2 {
		return 0
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]
	var n int64
	for _, l := range lats {
		if l > 2*median && l > median+stragglerFloor {
			n++
		}
	}
	return n
}

// Cube fans the cube pass out to every shard worker and merges the partials
// in shard order. The merged result answers exactly the queries the
// unsharded cube would.
func (c *Coordinator) Cube(ctx context.Context, req sqlexec.CubeRequest) (*sqlexec.CubeResult, error) {
	parts, err := fanOut(ctx, c, func(ctx context.Context, w Worker) (*sqlexec.CubePartial, error) {
		return w.Cube(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		c.front.Stats.RowsScanned.Add(p.Rows)
	}
	c.front.Stats.CubePasses.Add(1)
	start := time.Now()
	res, err := sqlexec.MergeCubePartials(parts)
	c.front.Stats.ShardMergeNanos.Add(time.Since(start).Nanoseconds())
	return res, err
}

// EvaluateBatch runs the batch by scatter-gather: every planned cube pass
// and direct scan is one fan-out. Selections are never pushed down — the
// wire CubeRequest carries no filter.
func (c *Coordinator) EvaluateBatch(ctx context.Context, queries []sqlexec.Query, opts sqlexec.BatchOptions) []float64 {
	return sqlexec.RunBatch(ctx, c, c.front, sqlexec.PlanOptions{MergeSmall: c.front.CachingEnabled()}, queries, opts)
}

// CubePass implements sqlexec.Backend.
func (c *Coordinator) CubePass(ctx context.Context, p *sqlexec.CubePlan) (*sqlexec.CubeResult, error) {
	return c.Cube(ctx, sqlexec.CubeRequest{Tables: p.Tables, Dims: p.Dims, Reqs: p.Reqs})
}

// DirectScan implements sqlexec.Backend.
func (c *Coordinator) DirectScan(ctx context.Context, q sqlexec.Query) (float64, error) {
	return c.Evaluate(ctx, q)
}

// Evaluate fans one direct query out to every shard worker and finalizes
// the folded accumulators, preserving the ratio-aggregate base contract
// (each shard contributes numerator and denominator rows alike).
func (c *Coordinator) Evaluate(ctx context.Context, q sqlexec.Query) (float64, error) {
	parts, err := fanOut(ctx, c, func(ctx context.Context, w Worker) (*sqlexec.ScanPartial, error) {
		return w.Scan(ctx, sqlexec.ScanRequest{Query: q})
	})
	if err != nil {
		return 0, err
	}
	c.front.Stats.DirectQueries.Add(1)
	for _, p := range parts {
		c.front.Stats.RowsScanned.Add(p.RowsRead)
		c.front.Stats.BlocksScanned.Add(p.Scanned)
		c.front.Stats.BlocksPruned.Add(p.Pruned)
	}
	start := time.Now()
	v, err := sqlexec.FinalizeScanPartials(q, parts)
	c.front.Stats.ShardMergeNanos.Add(time.Since(start).Nanoseconds())
	return v, err
}
