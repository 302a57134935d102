package sqlexec

import (
	"context"
	"testing"
)

func planRef(col string) ColumnRef { return ColumnRef{Table: "t", Column: col} }

func countQ(cols ...string) Query {
	q := Query{Agg: Count}
	for i := 0; i < len(cols); i += 2 {
		q.Preds = append(q.Preds, Predicate{Col: planRef(cols[i]), Value: cols[i+1]})
	}
	return q
}

func TestPlanCubesSubsetMerge(t *testing.T) {
	batch := []Query{
		countQ("a", "p"),
		countQ("b", "u"),
		countQ("a", "p", "b", "u"),
	}
	plan := PlanCubesOpt(batch, "t", PlanOptions{MergeSmall: true})
	if len(plan.Cubes) != 1 || len(plan.Direct) != 0 {
		t.Fatalf("plan = %d cubes, %d direct; want 1 cube (subset merging)", len(plan.Cubes), len(plan.Direct))
	}
	if got := len(plan.Cubes[0].Dims); got != 2 {
		t.Errorf("host dims = %d, want 2", got)
	}
	if got := len(plan.Cubes[0].QueryIdx); got != 3 {
		t.Errorf("host covers %d queries, want 3", got)
	}
}

func TestPlanCubesUnionMergesDisjointGroups(t *testing.T) {
	// Three disjoint single-column groups fit one m<=3 cube; a fourth
	// column forces a second cube.
	batch := []Query{
		countQ("a", "p"), countQ("a", "q"), countQ("a", "r"),
		countQ("b", "u"), countQ("b", "v"), countQ("b", "w"),
		countQ("c", "1"), countQ("c", "2"), countQ("c", "3"),
	}
	plan := PlanCubesOpt(batch, "t", PlanOptions{MergeSmall: true})
	if len(plan.Cubes) != 1 {
		t.Fatalf("plan = %d cubes, want 1 (disjoint groups packed into one m<=3 cube)", len(plan.Cubes))
	}
	if got := len(plan.Cubes[0].Dims); got != maxCubeDims {
		t.Errorf("packed cube has %d dims, want %d", got, maxCubeDims)
	}
	batch = append(batch, countQ("d", "x"), countQ("d", "y"), countQ("d", "z"))
	plan = PlanCubesOpt(batch, "t", PlanOptions{MergeSmall: true})
	if len(plan.Cubes) != 2 {
		t.Fatalf("plan = %d cubes, want 2 (fourth column exceeds the dimension limit)", len(plan.Cubes))
	}
}

func TestPlanCubesTooManyPredColumnsGoDirect(t *testing.T) {
	wide := countQ("a", "p", "b", "u", "c", "1", "d", "x")
	plan := PlanCubesOpt([]Query{wide, countQ("a", "p")}, "t", PlanOptions{MergeSmall: true})
	if len(plan.Direct) != 1 || plan.Direct[0] != 0 {
		t.Fatalf("direct = %v, want [0] (four predicate columns exceed maxCubeDims)", plan.Direct)
	}
	if len(plan.Cubes) != 1 {
		t.Fatalf("cubes = %d, want 1 for the narrow query", len(plan.Cubes))
	}
}

func TestPlanCubesSmallGroupsDirectWithoutCache(t *testing.T) {
	plan := PlanCubesOpt([]Query{countQ("a", "p"), countQ("a", "q")}, "t", PlanOptions{MergeSmall: false})
	if len(plan.Cubes) != 0 || len(plan.Direct) != 2 {
		t.Fatalf("plan = %d cubes, %d direct; want all direct (cost model, no cache)", len(plan.Cubes), len(plan.Direct))
	}
	// The same group is worth a cube once a cache amortizes the pass.
	plan = PlanCubesOpt([]Query{countQ("a", "p"), countQ("a", "q")}, "t", PlanOptions{MergeSmall: true})
	if len(plan.Cubes) != 1 || len(plan.Direct) != 0 {
		t.Fatalf("plan = %d cubes, %d direct; want 1 cube with caching", len(plan.Cubes), len(plan.Direct))
	}
}

func TestPlanCubesPoolLiteralsIncluded(t *testing.T) {
	pool := map[string][]string{planRef("a").String(): {"p", "q", "r", "s"}}
	plan := PlanCubesOpt([]Query{countQ("a", "p")}, "t", PlanOptions{Pool: pool, MergeSmall: true})
	if len(plan.Cubes) != 1 {
		t.Fatalf("plan = %d cubes, want 1", len(plan.Cubes))
	}
	lits := plan.Cubes[0].Dims[0].Literals
	if len(lits) != 4 {
		t.Errorf("dim literals = %v, want the full document pool", lits)
	}
}

func TestEvaluateBatchDeduplicates(t *testing.T) {
	e := NewEngine(nflDB(t))
	q := Query{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}}
	batch := []Query{q, q, q, {Agg: Count}}
	got := e.EvaluateBatch(context.Background(), batch, BatchOptions{})
	if got[0] != 4 || got[1] != 4 || got[2] != 4 || got[3] != 7 {
		t.Fatalf("batch results = %v, want [4 4 4 7]", got)
	}
	if bq := e.Stats.BatchQueries.Load(); bq != 4 {
		t.Errorf("batch_queries = %d, want 4", bq)
	}
	// The three duplicates must share one evaluation: at most one cube pass
	// plus one direct scan can have happened.
	work := e.Stats.CubePasses.Load() + e.Stats.DirectQueries.Load()
	if work > 2 {
		t.Errorf("duplicate queries were re-evaluated: %d scans", work)
	}
}

func TestEvaluateBatchEmptyAndSerial(t *testing.T) {
	e := NewEngine(nflDB(t))
	if got := e.EvaluateBatch(context.Background(), nil, BatchOptions{}); len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
	// Workers=1 must take the serial path and produce identical results.
	batch := []Query{
		{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}},
		{Agg: Sum, AggCol: ref("fine")},
	}
	got := e.EvaluateBatch(context.Background(), batch, BatchOptions{Workers: 1})
	if got[0] != 4 || got[1] != 560 {
		t.Fatalf("serial batch = %v, want [4 560]", got)
	}
}
