package sqlexec

import (
	"context"
	"math/rand"
	"testing"
)

// benchBatch builds an overlapping candidate workload in the shape the EM
// loop produces: many queries over few predicate columns and literals.
func benchBatch(n int, seed int64) []Query {
	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	avals := []string{"p", "q", "r", "s"}
	bvals := []string{"u", "v", "w"}
	fns := []AggFunc{Count, Sum, Avg, Min, Max, CountDistinct, Percentage}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, n)
	for i := range out {
		var preds []Predicate
		if rng.Intn(2) == 0 {
			preds = append(preds, Predicate{Col: cr("a"), Value: avals[rng.Intn(len(avals))]})
		}
		if rng.Intn(2) == 0 {
			preds = append(preds, Predicate{Col: cr("b"), Value: bvals[rng.Intn(len(bvals))]})
		}
		fn := fns[rng.Intn(len(fns))]
		q := Query{Agg: fn, Preds: preds}
		if fn.NeedsNumericColumn() || fn == CountDistinct {
			q.AggCol = cr("x")
		}
		out[i] = q
	}
	return out
}

// BenchmarkEngineConcurrentBatches measures the shared engine under the
// document-checking access pattern: many goroutines submitting overlapping
// batches against one cache. Lock striping plus singleflight keep the
// goroutines off each other's locks; Stats (dedups, lock waits) profile the
// run.
func BenchmarkEngineConcurrentBatches(b *testing.B) {
	d := stressDB(b, 20000)
	pool := map[string][]string{
		"t.a": {"p", "q", "r", "s"},
		"t.b": {"u", "v", "w"},
	}
	e := NewEngine(d)
	batch := benchBatch(400, 3)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			e.EvaluateBatch(context.Background(), batch, BatchOptions{Pool: pool, Workers: 2})
		}
	})
	b.StopTimer()
	s := e.Stats.Snapshot()
	b.ReportMetric(float64(s["cube_passes"]), "cube-passes")
	b.ReportMetric(float64(s["cube_dedups"]), "dedups")
	b.ReportMetric(float64(s["lock_waits"]), "lock-waits")
}

// BenchmarkEngineSerialBatches is the single-goroutine baseline for the
// concurrent benchmark above.
func BenchmarkEngineSerialBatches(b *testing.B) {
	d := stressDB(b, 20000)
	pool := map[string][]string{
		"t.a": {"p", "q", "r", "s"},
		"t.b": {"u", "v", "w"},
	}
	e := NewEngine(d)
	batch := benchBatch(400, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvaluateBatch(context.Background(), batch, BatchOptions{Pool: pool, Workers: 1})
	}
}
