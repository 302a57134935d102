package evaluate

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggchecker/internal/db"
	"aggchecker/internal/sqlexec"
)

func testDB(t *testing.T) *db.Database {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("region,product,units,price\n")
	rng := rand.New(rand.NewSource(4))
	regions := []string{"east", "west", "north", "south"}
	products := []string{"widget", "gadget", "doohickey"}
	for i := 0; i < 400; i++ {
		sb.WriteString(regions[rng.Intn(4)] + "," + products[rng.Intn(3)] + ",")
		sb.WriteString(strings.TrimSpace(itoa(rng.Intn(50))) + "," + itoa(5+rng.Intn(20)) + "\n")
	}
	tbl, err := db.LoadCSV(strings.NewReader(sb.String()), "sales")
	if err != nil {
		t.Fatal(err)
	}
	d := db.NewDatabase("shop")
	d.MustAddTable(tbl)
	return d
}

func itoa(v int) string {
	return strings.TrimSpace(strings.Map(func(r rune) rune { return r }, fmtInt(v)))
}

func fmtInt(v int) string {
	if v == 0 {
		return "0"
	}
	digits := ""
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return digits
}

func cr(col string) sqlexec.ColumnRef { return sqlexec.ColumnRef{Table: "sales", Column: col} }

// testBatch builds a mixed batch exercising every function and several
// predicate column sets.
func testBatch() []sqlexec.Query {
	regions := []string{"east", "west", "north", "south"}
	products := []string{"widget", "gadget"}
	var qs []sqlexec.Query
	for _, r := range regions {
		qs = append(qs,
			sqlexec.Query{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{{Col: cr("region"), Value: r}}},
			sqlexec.Query{Agg: sqlexec.Sum, AggCol: cr("units"), Preds: []sqlexec.Predicate{{Col: cr("region"), Value: r}}},
			sqlexec.Query{Agg: sqlexec.Percentage, Preds: []sqlexec.Predicate{{Col: cr("region"), Value: r}}},
		)
		for _, p := range products {
			qs = append(qs,
				sqlexec.Query{Agg: sqlexec.Avg, AggCol: cr("price"), Preds: []sqlexec.Predicate{
					{Col: cr("region"), Value: r}, {Col: cr("product"), Value: p}}},
				sqlexec.Query{Agg: sqlexec.ConditionalProbability, Preds: []sqlexec.Predicate{
					{Col: cr("region"), Value: r}, {Col: cr("product"), Value: p}}},
			)
		}
	}
	qs = append(qs,
		sqlexec.Query{Agg: sqlexec.Count},
		sqlexec.Query{Agg: sqlexec.CountDistinct, AggCol: cr("product")},
		sqlexec.Query{Agg: sqlexec.Max, AggCol: cr("units")},
		sqlexec.Query{Agg: sqlexec.Min, AggCol: cr("price"), Preds: []sqlexec.Predicate{{Col: cr("product"), Value: "gadget"}}},
	)
	return qs
}

func TestEvaluatorsAgree(t *testing.T) {
	d := testDB(t)
	naive := NewNaiveEvaluator(sqlexec.NewEngine(d))
	merged := NewCubeEvaluator(sqlexec.NewEngine(d))
	cachedEngine := sqlexec.NewEngine(d)
	cached := NewCubeEvaluator(cachedEngine)

	batch := testBatch()
	a := naive.EvaluateBatch(context.Background(), batch)
	b := merged.EvaluateBatch(context.Background(), batch)
	c := cached.EvaluateBatch(context.Background(), batch)
	// Run the cached evaluator twice: the second pass must hit the cache
	// and produce identical results.
	c2 := cached.EvaluateBatch(context.Background(), batch)
	for i := range batch {
		if !eqNaN(a[i], b[i]) || !eqNaN(a[i], c[i]) || !eqNaN(a[i], c2[i]) {
			t.Errorf("query %s: naive=%v merged=%v cached=%v cached2=%v",
				batch[i].Key(), a[i], b[i], c[i], c2[i])
		}
	}
}

func eqNaN(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) < 1e-9
}

func TestMergingReducesScans(t *testing.T) {
	d := testDB(t)
	naiveEngine := sqlexec.NewEngine(d)
	naive := NewNaiveEvaluator(naiveEngine)
	mergedEngine := sqlexec.NewEngine(d)
	mergedEngine.Tune(sqlexec.WithCaching(false))
	merged := NewCubeEvaluator(mergedEngine)

	batch := testBatch()
	naive.EvaluateBatch(context.Background(), batch)
	merged.EvaluateBatch(context.Background(), batch)
	naiveRows := naiveEngine.Stats.RowsScanned.Load()
	mergedRows := mergedEngine.Stats.RowsScanned.Load()
	if mergedRows >= naiveRows {
		t.Errorf("merging should scan fewer rows: naive=%d merged=%d", naiveRows, mergedRows)
	}
	// The whole batch uses two predicate columns, so it should collapse
	// into very few cube passes.
	if passes := mergedEngine.Stats.CubePasses.Load(); passes > 4 {
		t.Errorf("cube passes = %d, want <= 4", passes)
	}
}

func TestCachingEliminatesRepeatScans(t *testing.T) {
	d := testDB(t)
	e := sqlexec.NewEngine(d)
	ev := NewCubeEvaluator(e)
	batch := testBatch()
	ev.EvaluateBatch(context.Background(), batch)
	passes := e.Stats.CubePasses.Load()
	// Re-evaluating the same batch (as happens across EM iterations) must
	// not trigger new cube passes.
	ev.EvaluateBatch(context.Background(), batch)
	if got := e.Stats.CubePasses.Load(); got != passes {
		t.Errorf("cached re-evaluation ran %d extra passes", got-passes)
	}
}

func TestSetPoolStabilizesSignatures(t *testing.T) {
	d := testDB(t)
	e := sqlexec.NewEngine(d)
	ev := NewCubeEvaluator(e)
	ev.SetPool(map[string][]string{
		cr("region").String():  {"east", "west", "north", "south"},
		cr("product").String(): {"widget", "gadget", "doohickey"},
	})
	// First, a narrow batch touching one literal.
	q1 := []sqlexec.Query{{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{{Col: cr("region"), Value: "east"}}}}
	ev.EvaluateBatch(context.Background(), q1)
	passes := e.Stats.CubePasses.Load()
	// A later batch over another literal of the same column must reuse the
	// same cube: the pool already contained the literal.
	q2 := []sqlexec.Query{{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{{Col: cr("region"), Value: "west"}}}}
	ev.EvaluateBatch(context.Background(), q2)
	if got := e.Stats.CubePasses.Load(); got != passes {
		t.Errorf("pooled literals should make the second batch a cache hit (passes %d -> %d)", passes, got)
	}
}

func TestSubsetGroupsShareHostCube(t *testing.T) {
	d := testDB(t)
	e := sqlexec.NewEngine(d)
	e.Tune(sqlexec.WithCaching(false))
	ev := NewCubeEvaluator(e)
	// Three column sets: {region}, {product}, {region, product}; the first
	// two are subsets of the third, so one cube pass suffices.
	batch := []sqlexec.Query{
		{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{{Col: cr("region"), Value: "east"}}},
		{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{{Col: cr("product"), Value: "widget"}}},
		{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{
			{Col: cr("region"), Value: "east"}, {Col: cr("product"), Value: "widget"}}},
	}
	res := ev.EvaluateBatch(context.Background(), batch)
	if passes := e.Stats.CubePasses.Load(); passes != 1 {
		t.Errorf("cube passes = %d, want 1 (subset merging)", passes)
	}
	// Cross-check results directly.
	direct := NewNaiveEvaluator(sqlexec.NewEngine(d))
	want := direct.EvaluateBatch(context.Background(), batch)
	for i := range batch {
		if !eqNaN(res[i], want[i]) {
			t.Errorf("query %d: got %v want %v", i, res[i], want[i])
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	d := testDB(t)
	ev := NewCubeEvaluator(sqlexec.NewEngine(d))
	if got := ev.EvaluateBatch(context.Background(), nil); len(got) != 0 {
		t.Errorf("empty batch returned %v", got)
	}
}

func TestConcurrentBatches(t *testing.T) {
	d := testDB(t)
	e := sqlexec.NewEngine(d)
	ev := NewCubeEvaluator(e)
	batch := testBatch()
	want := NewNaiveEvaluator(sqlexec.NewEngine(d)).EvaluateBatch(context.Background(), batch)
	done := make(chan []float64, 8)
	for w := 0; w < 8; w++ {
		go func() { done <- ev.EvaluateBatch(context.Background(), batch) }()
	}
	for w := 0; w < 8; w++ {
		got := <-done
		for i := range batch {
			if !eqNaN(got[i], want[i]) {
				t.Errorf("concurrent batch query %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
}
