package sqlexec

import (
	"context"
	"testing"
)

// TestCacheEconomicsCounters: a repeated batch hits the cube cache and the
// hit records the build time and bytes it avoided re-spending.
func TestCacheEconomicsCounters(t *testing.T) {
	e := NewEngine(nflDB(t))
	batch := []Query{
		{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}},
		{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "4"}}},
	}
	first := e.EvaluateBatch(context.Background(), batch, BatchOptions{})
	second := e.EvaluateBatch(context.Background(), batch, BatchOptions{})
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("q%d changed across runs: %v then %v", i, first[i], second[i])
		}
	}
	if e.Stats.CacheHits.Load() == 0 {
		t.Fatal("repeat batch recorded no cache hits")
	}
	if e.Stats.CubeCacheNsSaved.Load() <= 0 {
		t.Error("cache hit saved no build time")
	}
	if e.Stats.CubeCacheBytesSaved.Load() <= 0 {
		t.Error("cache hit saved no bytes")
	}
	entries, bytes := e.CacheUsage()
	if entries <= 0 || bytes <= 0 {
		t.Errorf("CacheUsage = %d entries, %d bytes after caching a cube", entries, bytes)
	}
}

// distinctCubeBatches returns single-query batches over different
// dimension sets, so each one builds its own cube entry.
func distinctCubeBatches() [][]Query {
	var out [][]Query
	for _, col := range []string{"games", "category", "team", "name"} {
		out = append(out, []Query{{Agg: Count, Preds: []Predicate{{Col: ref(col), Value: "x"}}}})
	}
	out = append(out, []Query{{Agg: Count, Preds: []Predicate{
		{Col: ref("team"), Value: "CIN"}, {Col: ref("category"), Value: "gambling"},
	}}})
	return out
}

// TestCubeCacheBudgetEviction: once resident bytes exceed the budget, the
// cost-aware sweep evicts entries down to the budget; evicted cubes
// recompute correctly on demand.
func TestCubeCacheBudgetEviction(t *testing.T) {
	// Each one-dimension cube estimates 41 bytes and the two-dimension one
	// 115: the budget holds two of the former, not the third or the latter.
	const budget = 110
	e := NewEngine(nflDB(t), WithCubeCacheBudget(budget))
	for _, batch := range distinctCubeBatches() {
		e.EvaluateBatch(context.Background(), batch, BatchOptions{})
	}
	if e.Stats.CubeCacheEvictions.Load() == 0 {
		_, bytes := e.CacheUsage()
		t.Fatalf("no evictions with %d resident bytes against a %d budget", bytes, budget)
	}
	if _, bytes := e.CacheUsage(); bytes > budget {
		t.Errorf("resident bytes %d exceed budget %d after sweep", bytes, budget)
	}
	// Evicted cubes rebuild with the same answers.
	q := Query{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}}
	if got := e.EvaluateBatch(context.Background(), []Query{q}, BatchOptions{}); got[0] != 4 {
		t.Errorf("post-eviction count = %v, want 4", got[0])
	}
}

// TestCubeCacheAdmitReject: a result bigger than the whole budget is
// served but never cached.
func TestCubeCacheAdmitReject(t *testing.T) {
	e := NewEngine(nflDB(t), WithCubeCacheBudget(1))
	q := []Query{{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}}}
	if got := e.EvaluateBatch(context.Background(), q, BatchOptions{}); got[0] != 4 {
		t.Fatalf("count = %v, want 4", got[0])
	}
	if e.Stats.CubeCacheAdmitRejects.Load() == 0 {
		t.Error("oversized result was not counted as an admission reject")
	}
	if entries, _ := e.CacheUsage(); entries != 0 {
		t.Errorf("%d entries resident under a 1-byte budget", entries)
	}
	// Still correct on re-evaluation (recomputed, not cached).
	if got := e.EvaluateBatch(context.Background(), q, BatchOptions{}); got[0] != 4 {
		t.Errorf("repeat count = %v, want 4", got[0])
	}
}
