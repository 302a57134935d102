package sqlexec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aggchecker/internal/db"
)

// Selection-pushdown tests: a cube pass filtered on a shared equality
// predicate must be bit-for-bit identical to the scalar filtered oracle,
// and a batch planned with pushdown must answer every query exactly as the
// same batch planned without it.

// randomFilter draws a filter predicate from the schema's dimension
// columns and literal pools — present values, absent values, and garbage
// numeric literals all included, so never-matching filters are exercised.
func randomFilter(rng *rand.Rand, sc *diffSchema) *Predicate {
	ref := sc.dimCols[rng.Intn(len(sc.dimCols))]
	pool := sc.litPool[ref.String()]
	return &Predicate{Col: ref, Value: pool[rng.Intn(len(pool))]}
}

// TestFilteredKernelDifferentialRandomized is the single-threaded property
// test for selection pushdown: the vectorized kernel compacting each
// segment through the filter's selection vector must match the scalar
// row-loop oracle bit-for-bit — float data, NULLs, joins, and all.
func TestFilteredKernelDifferentialRandomized(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		joined := rng.Intn(2) == 0
		rows := 50 + rng.Intn(900)
		sc := randomDiffSchema(rng, rows, joined, false)
		view, err := db.BuildJoinView(sc.d, sc.tables)
		if err != nil {
			t.Fatal(err)
		}
		dims, cols := randomCubeSpec(rng, sc)
		filter := randomFilter(rng, sc)
		label := fmt.Sprintf("filtered trial %d (joined=%v rows=%d dims=%d filter=%s)",
			trial, joined, rows, len(dims), filter.String())
		want, err := computeCubeRange(ctx, view, sc.tables, dims, cols, 0, view.NumRows(), passConfig{scalar: true, filter: filter})
		if err != nil {
			t.Fatalf("%s: scalar: %v", label, err)
		}
		got, err := computeCubeRange(ctx, view, sc.tables, dims, cols, 0, view.NumRows(), passConfig{zones: true, filter: filter})
		if err != nil {
			t.Fatalf("%s: vectorized: %v", label, err)
		}
		requireCubesIdentical(t, want, got, label)
		if want.BaseRows() != got.BaseRows() {
			t.Fatalf("%s: baseRows %d vs %d", label, want.BaseRows(), got.BaseRows())
		}
		if got.Filter() == nil || *got.Filter() != *filter {
			t.Fatalf("%s: filter not recorded on result", label)
		}
		// baseRows counts every scanned row, matching or not — it is the
		// Percentage denominator and must be independent of the filter.
		if got.BaseRows() != int64(view.NumRows()) {
			t.Fatalf("%s: baseRows %d, want every scanned row %d", label, got.BaseRows(), view.NumRows())
		}
	}
}

// TestFilteredKernelParallelPartials runs the filtered kernel across
// morsels on a width-4 scheduler (integer data, so merges are exact) and
// checks the merged result — including the summed baseRows — against the
// oracle.
func TestFilteredKernelParallelPartials(t *testing.T) {
	defer func(old int) { kernelParallelMinRows = old }(kernelParallelMinRows)
	kernelParallelMinRows = 64
	sched := NewScheduler(4)
	defer sched.Close()
	var stats Stats

	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(9500 + trial)))
		joined := rng.Intn(2) == 0
		rows := 2*kernelBlockRows + rng.Intn(4*kernelBlockRows)
		sc := randomDiffSchema(rng, rows, joined, true)
		view, err := db.BuildJoinView(sc.d, sc.tables)
		if err != nil {
			t.Fatal(err)
		}
		dims, cols := randomCubeSpec(rng, sc)
		filter := randomFilter(rng, sc)
		label := fmt.Sprintf("filtered parallel trial %d (joined=%v rows=%d filter=%s)",
			trial, joined, rows, filter.String())
		want, err := computeCubeRange(ctx, view, sc.tables, dims, cols, 0, view.NumRows(), passConfig{scalar: true, filter: filter})
		if err != nil {
			t.Fatalf("%s: scalar: %v", label, err)
		}
		got, err := computeCubeRange(ctx, view, sc.tables, dims, cols, 0, view.NumRows(), passConfig{stats: &stats, zones: true, sched: sched, filter: filter})
		if err != nil {
			t.Fatalf("%s: vectorized: %v", label, err)
		}
		requireCubesIdentical(t, want, got, label)
		if want.BaseRows() != got.BaseRows() {
			t.Fatalf("%s: baseRows %d vs %d", label, want.BaseRows(), got.BaseRows())
		}
	}
	if stats.PartialsMerged.Load() == 0 {
		t.Fatal("no filtered pass split into morsels: the multi-partial merge went untested")
	}
}

// TestStripFilter pins the query-mapping rules of a filtered cube: exactly
// one occurrence of the filter is absorbed, ConditionalProbability only in
// the conditioning position, Percentage only over star.
func TestStripFilter(t *testing.T) {
	ca := ColumnRef{Table: "t", Column: "a"}
	cb := ColumnRef{Table: "t", Column: "b"}
	f := Predicate{Col: ca, Value: "x"}
	other := Predicate{Col: cb, Value: "y"}
	r := &CubeResult{filter: &f}

	cases := []struct {
		name string
		q    Query
		want []Predicate
		ok   bool
	}{
		{"count strips one occurrence", Query{Agg: Count, Preds: []Predicate{other, f}}, []Predicate{other}, true},
		{"count without filter", Query{Agg: Count, Preds: []Predicate{other}}, nil, false},
		{"duplicate filter keeps one", Query{Agg: Count, Preds: []Predicate{f, f}}, []Predicate{f}, true},
		{"cp conditioning position", Query{Agg: ConditionalProbability, Preds: []Predicate{f, other}}, []Predicate{other}, true},
		{"cp wrong position", Query{Agg: ConditionalProbability, Preds: []Predicate{other, f}}, nil, false},
		{"percentage star", Query{Agg: Percentage, Preds: []Predicate{f}}, []Predicate{}, true},
		{"percentage non-star", Query{Agg: Percentage, AggCol: cb, Preds: []Predicate{f}}, nil, false},
	}
	for _, tc := range cases {
		got, ok := r.stripFilter(tc.q)
		if ok != tc.ok {
			t.Errorf("%s: ok=%v want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: stripped %v want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: stripped %v want %v", tc.name, got, tc.want)
			}
		}
	}

	// An unfiltered cube passes queries through untouched.
	u := &CubeResult{}
	if got, ok := u.stripFilter(Query{Agg: Count, Preds: []Predicate{other}}); !ok || len(got) != 1 {
		t.Errorf("unfiltered stripFilter = (%v, %v)", got, ok)
	}
}

// TestFilterEligible pins the planner-side mirror of stripFilter.
func TestFilterEligible(t *testing.T) {
	ca := ColumnRef{Table: "t", Column: "a"}
	cb := ColumnRef{Table: "t", Column: "b"}
	f := Predicate{Col: ca, Value: "x"}
	other := Predicate{Col: cb, Value: "y"}
	cases := []struct {
		name string
		q    Query
		want bool
	}{
		{"count with filter", Query{Agg: Count, Preds: []Predicate{other, f}}, true},
		{"count without filter", Query{Agg: Count, Preds: []Predicate{other}}, false},
		{"cp conditioning", Query{Agg: ConditionalProbability, Preds: []Predicate{f, other}}, true},
		{"cp wrong position", Query{Agg: ConditionalProbability, Preds: []Predicate{other, f}}, false},
		{"percentage star", Query{Agg: Percentage, Preds: []Predicate{f}}, true},
		{"percentage non-star", Query{Agg: Percentage, AggCol: cb, Preds: []Predicate{f}}, false},
	}
	for _, tc := range cases {
		if got := filterEligible(tc.q, f); got != tc.want {
			t.Errorf("%s: filterEligible = %v want %v", tc.name, got, tc.want)
		}
	}
}

// pdCol names a column of the planner-test scope.
func pdCol(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }

// TestPlanPushdownClaims drives the pre-pass: queries sharing a predicate
// whose full column union exceeds the cube dimension limit are claimed
// into a filtered pass; groups an unfiltered cube could host stay with the
// regular planner.
func TestPlanPushdownClaims(t *testing.T) {
	f := Predicate{Col: pdCol("f"), Value: "x"}
	wide := []Query{
		{Agg: Count, Preds: []Predicate{f, {Col: pdCol("c1"), Value: "1"}}},
		{Agg: Count, Preds: []Predicate{f, {Col: pdCol("c2"), Value: "2"}}},
		{Agg: Count, Preds: []Predicate{f, {Col: pdCol("c3"), Value: "3"}}},
	}
	opt := PlanOptions{MergeSmall: true, Pushdown: true}

	plan := PlanCubesOpt(wide, "t", opt)
	var filtered, plain int
	for _, p := range plan.Cubes {
		if p.Filter != nil {
			filtered++
			if *p.Filter != f {
				t.Errorf("claimed filter = %v, want %v", *p.Filter, f)
			}
			if len(p.QueryIdx) != 3 {
				t.Errorf("filtered pass claims %d queries, want 3", len(p.QueryIdx))
			}
			if len(p.Dims) != 3 {
				t.Errorf("filtered pass has %d dims, want 3 residual columns", len(p.Dims))
			}
			for _, d := range p.Dims {
				if d.Col == f.Col {
					t.Errorf("filter column %v leaked into dims", d.Col)
				}
			}
		} else {
			plain++
		}
	}
	if filtered != 1 {
		t.Fatalf("filtered passes = %d, want 1 (full union of 4 cols exceeds maxCubeDims)", filtered)
	}
	if plain != 0 {
		t.Errorf("plain passes = %d, want 0 (all queries claimed)", plain)
	}

	// Narrow union: the same queries constrained to 2 residual columns fit
	// one unfiltered cube — pushdown must stand aside.
	narrow := []Query{
		{Agg: Count, Preds: []Predicate{f, {Col: pdCol("c1"), Value: "1"}}},
		{Agg: Count, Preds: []Predicate{f, {Col: pdCol("c1"), Value: "2"}}},
		{Agg: Count, Preds: []Predicate{f, {Col: pdCol("c2"), Value: "3"}}},
	}
	plan = PlanCubesOpt(narrow, "t", opt)
	for _, p := range plan.Cubes {
		if p.Filter != nil {
			t.Errorf("narrow union planned a filtered pass: %+v", p)
		}
	}

	// Below the sharing threshold nothing is claimed either.
	plan = PlanCubesOpt(wide[:2], "t", opt)
	for _, p := range plan.Cubes {
		if p.Filter != nil {
			t.Errorf("2-query group planned a filtered pass: %+v", p)
		}
	}

	// Pushdown off: identical batch, no filtered passes.
	plan = PlanCubesOpt(wide, "t", PlanOptions{MergeSmall: true})
	for _, p := range plan.Cubes {
		if p.Filter != nil {
			t.Errorf("pushdown off planned a filtered pass: %+v", p)
		}
	}
}

// TestPlanPushdownDeterministic re-plans a shuffled-free batch repeatedly:
// claim order and pass contents must be identical every time.
func TestPlanPushdownDeterministic(t *testing.T) {
	f1 := Predicate{Col: pdCol("f"), Value: "x"}
	f2 := Predicate{Col: pdCol("g"), Value: "y"}
	var queries []Query
	for i := 0; i < 4; i++ {
		queries = append(queries,
			Query{Agg: Count, Preds: []Predicate{f1, {Col: pdCol(fmt.Sprintf("c%d", i)), Value: "1"}}},
			Query{Agg: Count, Preds: []Predicate{f2, {Col: pdCol(fmt.Sprintf("d%d", i)), Value: "2"}}},
		)
	}
	opt := PlanOptions{MergeSmall: true, Pushdown: true}
	base := PlanCubesOpt(queries, "t", opt)
	for rep := 0; rep < 5; rep++ {
		p := PlanCubesOpt(queries, "t", opt)
		if len(p.Cubes) != len(base.Cubes) {
			t.Fatalf("rep %d: %d cubes vs %d", rep, len(p.Cubes), len(base.Cubes))
		}
		for i := range p.Cubes {
			a, b := p.Cubes[i], base.Cubes[i]
			if fmt.Sprint(a.QueryIdx) != fmt.Sprint(b.QueryIdx) || (a.Filter == nil) != (b.Filter == nil) {
				t.Fatalf("rep %d cube %d: %+v vs %+v", rep, i, a, b)
			}
		}
	}
}

// pushdownBatch builds a batch over the randomized joined schema whose
// queries mostly share one filter predicate across a 4-column residual
// scope — wide enough that the pre-pass claims them.
func pushdownBatch(rng *rand.Rand, sc *diffSchema, filter Predicate, n int) []Query {
	fns := []AggFunc{Count, Sum, Avg, Min, Max, CountDistinct, Percentage, ConditionalProbability}
	var queries []Query
	for i := 0; i < n; i++ {
		fn := fns[rng.Intn(len(fns))]
		var preds []Predicate
		if fn == ConditionalProbability {
			preds = append(preds, filter) // conditioning position
		}
		// Residual predicates over the other dim columns.
		for _, ref := range sc.dimCols {
			if ref == filter.Col || rng.Intn(2) == 0 {
				continue
			}
			pool := sc.litPool[ref.String()]
			preds = append(preds, Predicate{Col: ref, Value: pool[rng.Intn(len(pool))]})
		}
		if fn != ConditionalProbability && rng.Intn(8) != 0 {
			preds = append(preds, filter) // most queries share the filter
		}
		q := Query{Agg: fn, Preds: preds}
		if fn.NeedsNumericColumn() || fn == CountDistinct {
			q.AggCol = sc.aggCols[rng.Intn(len(sc.aggCols))]
		}
		if fn == Percentage && rng.Intn(4) == 0 {
			q.AggCol = sc.aggCols[0] // non-star Percentage: pushdown-ineligible
		}
		queries = append(queries, q)
	}
	return queries
}

// pdEq is eqNaN extended to infinities (Min/Max over zero non-null rows
// answer ±Inf, where the subtraction-based tolerance breaks down).
func pdEq(a, b float64) bool {
	return a == b || eqNaN(a, b)
}

// TestPushdownEndToEndIdentical evaluates the same batch with pushdown on
// and off, plus a per-query direct-scan oracle: all three must agree.
// The pushdown engine must actually have planned filtered passes, and the
// baseline none.
func TestPushdownEndToEndIdentical(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	sc := randomDiffSchema(rng, 4000, true, false)
	filter := Predicate{Col: ColumnRef{Table: "f", Column: "s1"}, Value: "p"}
	queries := pushdownBatch(rng, sc, filter, 80)

	serial := NewEngine(sc.d)
	want := make([]float64, len(queries))
	for i, q := range queries {
		v, err := serial.EvaluateContext(context.Background(), q)
		if err != nil {
			v = math.NaN()
		}
		want[i] = v
	}

	eOn := NewEngine(sc.d)
	eOff := NewEngine(sc.d, WithSelectionPushdown(false))
	if !eOn.PushdownEnabled() || eOff.PushdownEnabled() {
		t.Fatal("pushdown flag not plumbed")
	}
	gotOn := eOn.EvaluateBatch(ctx, queries, BatchOptions{})
	gotOff := eOff.EvaluateBatch(ctx, queries, BatchOptions{})
	for i := range queries {
		if !pdEq(gotOn[i], want[i]) {
			t.Errorf("pushdown on: query %s = %v, direct oracle %v", queries[i].Key(), gotOn[i], want[i])
		}
		if !pdEq(gotOff[i], want[i]) {
			t.Errorf("pushdown off: query %s = %v, direct oracle %v", queries[i].Key(), gotOff[i], want[i])
		}
	}
	if eOn.Stats.PushdownCubes.Load() == 0 {
		t.Error("pushdown engine planned no filtered passes")
	}
	if eOff.Stats.PushdownCubes.Load() != 0 {
		t.Errorf("baseline engine planned %d filtered passes", eOff.Stats.PushdownCubes.Load())
	}
	if eOn.Stats.PushdownRowsSkipped.Load() == 0 {
		t.Error("filtered passes skipped no rows (filter should be selective)")
	}
}

// TestFilteredCubeCacheDistinct pins cache identity: a filtered cube and
// the unfiltered cube over identical scope/dims occupy different cache
// slots, and the filtered slot is reused on repeat and delta-extended like
// any other cube.
func TestFilteredCubeCacheDistinct(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(101))
	sc := randomDiffSchema(rng, 2000, false, false)
	e := NewEngine(sc.d)
	dims := []DimSpec{
		{Col: ColumnRef{Table: "f", Column: "s2"}, Literals: []string{"u", "v", "w"}},
	}
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}}
	filter := &Predicate{Col: ColumnRef{Table: "f", Column: "s1"}, Value: "q"}

	plain, err := e.CubeForContext(ctx, sc.tables, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	filt, err := e.FilteredCubeForContext(ctx, sc.tables, dims, reqs, filter)
	if err != nil {
		t.Fatal(err)
	}
	if passes := e.Stats.CubePasses.Load(); passes != 2 {
		t.Fatalf("cube passes = %d, want 2 (filtered and unfiltered must not share a slot)", passes)
	}
	if plain.Filter() != nil || filt.Filter() == nil {
		t.Fatal("filter field not carried through the cache")
	}

	// Repeat request: served from cache, no third pass.
	if _, err := e.FilteredCubeForContext(ctx, sc.tables, dims, reqs, filter); err != nil {
		t.Fatal(err)
	}
	if passes := e.Stats.CubePasses.Load(); passes != 2 {
		t.Fatalf("cube passes after repeat = %d, want 2", passes)
	}

	// The two cubes answer the same filtered query identically — one from
	// its cells, one by combining the filter dimension — but only when the
	// unfiltered cube also has the filter column as a dimension would it
	// answer at all; here it must decline while the filtered cube answers.
	q := Query{Agg: Count, Preds: []Predicate{*filter, {Col: dims[0].Col, Value: "u"}}}
	if _, ok := plain.Value(q); ok {
		t.Error("unfiltered cube without the filter dim claimed to answer a filtered query")
	}
	fv, ok := filt.Value(q)
	if !ok {
		t.Fatal("filtered cube cannot answer its own query shape")
	}
	dv, err := e.EvaluateContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !eqNaN(fv, dv) {
		t.Errorf("filtered cube = %v, direct = %v", fv, dv)
	}

	// Delta extension: a new aggregation column on the filtered signature
	// reuses the cached cells instead of a full repass.
	more := []AggRequest{{Fn: Count, Col: ColumnRef{}}, {Fn: Sum, Col: ColumnRef{Table: "f", Column: "n1"}}}
	ext, err := e.FilteredCubeForContext(ctx, sc.tables, dims, reqs, filter)
	if err != nil {
		t.Fatal(err)
	}
	ext2, err := e.FilteredCubeForContext(ctx, sc.tables, dims, more, filter)
	if err != nil {
		t.Fatal(err)
	}
	if ext2.Filter() == nil || ext2.BaseRows() != ext.BaseRows() {
		t.Error("delta-extended filtered cube lost filter or baseRows")
	}
	qs := Query{Agg: Sum, AggCol: ColumnRef{Table: "f", Column: "n1"}, Preds: []Predicate{*filter}}
	sv, ok := ext2.Value(qs)
	if !ok {
		t.Fatal("extended filtered cube cannot answer Sum")
	}
	dsv, err := e.EvaluateContext(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if !eqNaN(sv, dsv) {
		t.Errorf("extended filtered cube Sum = %v, direct = %v", sv, dsv)
	}
}

// TestFilteredCubeRatioAggregates pins the denominator semantics under a
// filter: Percentage-of-star uses every scanned row (baseRows), and
// ConditionalProbability conditions on exactly the filter's matches.
func TestFilteredCubeRatioAggregates(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(202))
	sc := randomDiffSchema(rng, 3000, false, false)
	e := NewEngine(sc.d)
	filter := &Predicate{Col: ColumnRef{Table: "f", Column: "s1"}, Value: "p"}
	dims := []DimSpec{
		{Col: ColumnRef{Table: "f", Column: "s2"}, Literals: []string{"u", "v", "w"}},
	}
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}}
	cube, err := e.FilteredCubeForContext(ctx, sc.tables, dims, reqs, filter)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		{Agg: Percentage, Preds: []Predicate{*filter}},
		{Agg: Percentage, Preds: []Predicate{*filter, {Col: dims[0].Col, Value: "v"}}},
		{Agg: ConditionalProbability, Preds: []Predicate{*filter, {Col: dims[0].Col, Value: "w"}}},
	} {
		cv, ok := cube.Value(q)
		if !ok {
			t.Fatalf("filtered cube cannot answer %s", q.Key())
		}
		dv, err := e.EvaluateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !eqNaN(cv, dv) {
			t.Errorf("%s: filtered cube = %v, direct = %v", q.Key(), cv, dv)
		}
	}
	// Percentage over a non-star column must be declined, not misanswered.
	bad := Query{Agg: Percentage, AggCol: ColumnRef{Table: "f", Column: "n1"}, Preds: []Predicate{*filter}}
	if _, ok := cube.Value(bad); ok {
		t.Error("filtered cube answered non-star Percentage (denominator needs unfiltered rows)")
	}
}
