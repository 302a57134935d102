package sqlexec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"aggchecker/internal/db"
)

// Differential tests for the vectorized direct-scan pipeline: results must
// be bit-for-bit identical to the retired row-at-a-time closure-matcher
// implementation, which survives here as the test oracle. Unlike the cube
// kernel's parallel partials, direct scans accumulate strictly in row
// order, so even float sums must match to the last bit — with zone-map
// pruning on or off, across NULL-heavy data, single-block and multi-block
// (append-schedule) layouts, and fully pruned scans.

// scalarOracleEvaluate is the retired EvaluateContext loop: per-row
// closure matchers, one row at a time. Kept verbatim as the reference
// semantics for the pipeline, including the ratio-aggregate base contract
// (Percentage: every row; ConditionalProbability: rows matching Preds[0]).
func scalarOracleEvaluate(tb testing.TB, view *db.JoinView, q Query) float64 {
	tb.Helper()
	matchers := make([]func(int) bool, 0, len(q.Preds))
	for _, p := range q.Preds {
		acc, err := view.Accessor(p.Col.Table, p.Col.Column)
		if err != nil {
			tb.Fatal(err)
		}
		if acc.Column().Kind == db.KindString {
			code := acc.Column().CodeOf(p.Value)
			a := acc
			matchers = append(matchers, func(row int) bool { return a.Code(row) == code && code >= 0 })
		} else {
			want, err := parseLiteralFloat(p.Value)
			if err != nil {
				matchers = append(matchers, func(int) bool { return false })
				continue
			}
			a := acc
			matchers = append(matchers, func(row int) bool { return a.Float(row) == want })
		}
	}
	star := q.AggCol.IsStar()
	var aggAcc db.ColumnAccessor
	aggIsStr := false
	if !star {
		var err error
		aggAcc, err = view.Accessor(q.AggCol.Table, q.AggCol.Column)
		if err != nil {
			tb.Fatal(err)
		}
		aggIsStr = aggAcc.Column().Kind == db.KindString
	}
	main := newAccumulator(q.Agg == CountDistinct)
	var base *accumulator
	needBase := q.Agg == Percentage || q.Agg == ConditionalProbability
	if needBase {
		base = newAccumulator(false)
	}
	n := view.NumRows()
	for row := 0; row < n; row++ {
		all := true
		for i := range matchers {
			if !matchers[i](row) {
				all = false
				break
			}
		}
		inBase := false
		if needBase {
			switch q.Agg {
			case Percentage:
				inBase = true
			case ConditionalProbability:
				inBase = len(matchers) == 0 || matchers[0](row)
			}
		}
		if !all && !inBase {
			continue
		}
		var null bool
		var v float64
		var key uint64
		if star {
			null, v = false, math.NaN()
		} else if aggIsStr {
			c := aggAcc.Code(row)
			null, v, key = c < 0, math.NaN(), uint64(uint32(c))
		} else {
			v = aggAcc.Float(row)
			null, key = math.IsNaN(v), math.Float64bits(v)
		}
		if all {
			main.addRow(null, v, key)
		}
		if inBase {
			base.addRow(null, v, key)
		}
	}
	return main.finalize(q.Agg, star, base)
}

// bandedDB builds a single-table database committed in batches, so zones
// never span a batch, with literals that cluster per batch: band is the
// batch label, num counts up monotonically across batches, cat is uniform
// noise with NULLs, val a NULL-heavy measure, and dead an all-NULL column.
func bandedDB(tb testing.TB, rng *rand.Rand, batches, rowsPerBatch int, nullFrac float64) *db.Database {
	tb.Helper()
	band := db.NewStringColumn("band")
	num := db.NewFloatColumn("num")
	cat := db.NewStringColumn("cat")
	val := db.NewFloatColumn("val")
	dead := db.NewFloatColumn("dead")
	d := db.NewDatabase("banded")
	d.MustAddTable(db.MustNewTable("t", band, num, cat, val, dead))
	cats := []string{"p", "q", "r"}
	row := 0
	for b := 0; b < batches; b++ {
		rows := make([][]any, rowsPerBatch)
		for i := range rows {
			var c any = cats[rng.Intn(len(cats))]
			if rng.Float64() < nullFrac {
				c = nil
			}
			var v any = float64(rng.Intn(50))
			if rng.Float64() < nullFrac {
				v = nil
			}
			rows[i] = []any{"b" + strconv.Itoa(b), float64(row), c, v, nil}
			row++
		}
		if err := d.Append("t", rows...); err != nil {
			tb.Fatal(err)
		}
		if _, err := d.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// randomDirectQuery draws a query against bandedDB's table: 0–3 predicates
// mixing clustered literals (present in one batch only), uniform literals,
// and absent literals, over every aggregate function.
func randomDirectQuery(rng *rand.Rand, batches, totalRows int) Query {
	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	var preds []Predicate
	if rng.Intn(3) > 0 {
		lit := "b" + strconv.Itoa(rng.Intn(batches+1)) // +1: sometimes absent
		preds = append(preds, Predicate{Col: cr("band"), Value: lit})
	}
	if rng.Intn(3) == 0 {
		lit := strconv.Itoa(rng.Intn(totalRows + 10))
		preds = append(preds, Predicate{Col: cr("num"), Value: lit})
	}
	if rng.Intn(3) == 0 {
		lit := []string{"p", "q", "r", "zz", "notanumber"}[rng.Intn(5)]
		preds = append(preds, Predicate{Col: cr("cat"), Value: lit})
	}
	fns := []AggFunc{Count, CountDistinct, Sum, Avg, Min, Max, Percentage, ConditionalProbability}
	q := Query{Agg: fns[rng.Intn(len(fns))], Preds: preds}
	switch rng.Intn(4) {
	case 0: // star
	case 1:
		q.AggCol = cr("val")
	case 2:
		q.AggCol = cr("cat")
	case 3:
		q.AggCol = cr("dead")
	}
	return q
}

// refusesDistinctStar reports whether q counts distinct values of *, which
// has no answer, and if so checks that the direct scan refuses it.
func refusesDistinctStar(t *testing.T, label string, e *Engine, q Query) bool {
	t.Helper()
	if q.Agg != CountDistinct || !q.AggCol.IsStar() {
		return false
	}
	if v, err := e.EvaluateContext(context.Background(), q); err == nil {
		t.Fatalf("%s: answered %v, want a refusal", label, v)
	}
	return true
}

func requireSameFloat(t *testing.T, label string, want, got float64) {
	t.Helper()
	if math.Float64bits(want) != math.Float64bits(got) && !(math.IsNaN(want) && math.IsNaN(got)) {
		t.Fatalf("%s: oracle=%v (bits %x) pipeline=%v (bits %x)",
			label, want, math.Float64bits(want), got, math.Float64bits(got))
	}
}

// TestDirectScanDifferentialRandomized is the pipeline property test:
// across randomized append schedules (single-block and multi-block),
// NULL-heavy data, and literal draws that hit every pruning shape (never,
// all-pruned, partially pruned, unprunable), the vectorized direct scan —
// with zone maps on AND off — equals the scalar oracle bit for bit.
func TestDirectScanDifferentialRandomized(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		batches := 1 + rng.Intn(4)
		rowsPerBatch := 30 + rng.Intn(300)
		nullFrac := []float64{0.05, 0.3, 0.9}[rng.Intn(3)]
		d := bandedDB(t, rng, batches, rowsPerBatch, nullFrac)
		pruner := NewEngine(d)
		flat := NewEngine(d, WithZoneMaps(false))
		view, err := db.BuildJoinView(d, []string{"t"})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 30; qi++ {
			q := randomDirectQuery(rng, batches, batches*rowsPerBatch)
			label := fmt.Sprintf("trial %d query %d (%s, batches=%d nulls=%.0f%%)",
				trial, qi, q.Key(), batches, 100*nullFrac)
			if refusesDistinctStar(t, label, pruner, q) {
				continue
			}
			want := scalarOracleEvaluate(t, view, q)
			got, err := pruner.EvaluateContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameFloat(t, label+" [zones on]", want, got)
			got, err = flat.EvaluateContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameFloat(t, label+" [zones off]", want, got)
		}
	}
}

// TestDirectScanDifferentialJoined covers the gather path (materialized
// join views have no zones; the pipeline must behave identically). The
// oracle runs over the very view instance the engine resolves for each
// query, so both sides see the same join scope and row order.
func TestDirectScanDifferentialJoined(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(8100 + trial)))
		sc := randomDiffSchema(rng, 100+rng.Intn(700), true, false)
		e := NewEngine(sc.d)
		for qi := 0; qi < 20; qi++ {
			var preds []Predicate
			for _, ref := range sc.dimCols {
				if rng.Intn(3) == 0 {
					pool := sc.litPool[ref.String()]
					preds = append(preds, Predicate{Col: ref, Value: pool[rng.Intn(len(pool))]})
				}
			}
			fns := []AggFunc{Count, Sum, Avg, Min, Max, CountDistinct, Percentage, ConditionalProbability}
			q := Query{Agg: fns[rng.Intn(len(fns))], Preds: preds}
			if rng.Intn(2) == 0 {
				q.AggCol = sc.aggCols[rng.Intn(len(sc.aggCols))]
			}
			label := fmt.Sprintf("joined trial %d query %d (%s)", trial, qi, q.Key())
			if refusesDistinctStar(t, label, e, q) {
				continue
			}
			view, err := e.viewAt(sc.d.Snapshot(), q.Tables(e.DefaultTable()))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want := scalarOracleEvaluate(t, view, q)
			got, err := e.EvaluateContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameFloat(t, label, want, got)
		}
	}
}

// TestRatioBaseContract is the regression test for the base-predicate
// contract the old implementation left implicit: Percentage's denominator
// covers every row regardless of predicates, ConditionalProbability's
// exactly the rows matching the conditioning predicate Preds[0] — and
// zone pruning of the numerator must never shrink either denominator.
func TestRatioBaseContract(t *testing.T) {
	// Two committed blocks: a=x only in block 1, b=y only in block 2, so
	// the conjunction (a=x AND b=y) is zone-refuted in every block while
	// both denominators stay non-empty.
	a := db.NewStringColumn("a")
	b := db.NewStringColumn("b")
	d := db.NewDatabase("ratio")
	d.MustAddTable(db.MustNewTable("t", a, b))
	block1 := [][]any{{"x", "other"}, {"x", "other"}, {"w", "other"}, {"w", "other"}}
	block2 := [][]any{{"w", "y"}, {"w", "y"}, {"w", "y"}, {"w", "other"}}
	if err := d.Append("t", block1...); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append("t", block2...); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(d)
	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	conj := []Predicate{{Col: cr("a"), Value: "x"}, {Col: cr("b"), Value: "y"}}

	// ConditionalProbability: P(b=y | a=x) = 0/2 = 0, not NaN — the two
	// a=x rows live in a block the numerator's conjunction prunes.
	cp := Query{Agg: ConditionalProbability, Preds: conj}
	v, err := e.EvaluateContext(context.Background(), cp)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("CP(b=y|a=x) = %v, want 0 (denominator = 2 a=x rows)", v)
	}
	if pruned := e.Stats.BlocksPruned.Load(); pruned == 0 {
		t.Error("conjunction should be zone-pruned in every block")
	}

	// The denominator is Preds[0] alone — never the conjunction, never
	// Preds[1]: swapping the condition flips the answer.
	swapped := Query{Agg: ConditionalProbability, Preds: []Predicate{conj[1], conj[0]}}
	v, err = e.EvaluateContext(context.Background(), swapped)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("CP(a=x|b=y) = %v, want 0 (denominator = 3 b=y rows)", v)
	}
	// A conditioning predicate with matches yields the exact ratio.
	one := Query{Agg: ConditionalProbability, Preds: []Predicate{
		{Col: cr("a"), Value: "w"}, {Col: cr("b"), Value: "y"},
	}}
	v, err = e.EvaluateContext(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100.0 * 3 / 6; !eqNaN(v, want) {
		t.Errorf("CP(b=y|a=w) = %v, want %v", v, want)
	}

	// Percentage: denominator is every row of the view even when the
	// numerator is pruned everywhere ("absent" exists in no block).
	pct := Query{Agg: Percentage, Preds: []Predicate{{Col: cr("a"), Value: "absent"}}}
	v, err = e.EvaluateContext(context.Background(), pct)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("Percentage(a=absent) = %v, want 0 (8-row denominator)", v)
	}
	pctX := Query{Agg: Percentage, Preds: conj}
	v, err = e.EvaluateContext(context.Background(), pctX)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("Percentage(a=x AND b=y) = %v, want 0", v)
	}
	pctW := Query{Agg: Percentage, Preds: []Predicate{{Col: cr("a"), Value: "x"}}}
	v, err = e.EvaluateContext(context.Background(), pctW)
	if err != nil {
		t.Fatal(err)
	}
	if want := 100.0 * 2 / 8; !eqNaN(v, want) {
		t.Errorf("Percentage(a=x) = %v, want %v", v, want)
	}

	// The contract matches the cube's base cells bit for bit.
	dims := []DimSpec{
		{Col: cr("a"), Literals: []string{"x", "w"}},
		{Col: cr("b"), Literals: []string{"y"}},
	}
	cube, err := e.CubeForContext(context.Background(), []string{"t"}, dims, []AggRequest{{Fn: Count, Col: ColumnRef{}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{cp, one, pctX, pctW,
		{Agg: Percentage, Preds: nil}, {Agg: ConditionalProbability, Preds: nil}} {
		cv, ok := cube.Value(q)
		if !ok {
			t.Fatalf("cube cannot answer %s", q.Key())
		}
		dv, err := e.EvaluateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !eqNaN(cv, dv) {
			t.Errorf("%s: cube=%v direct=%v", q.Key(), cv, dv)
		}
	}
}

// TestDirectScanPruningStats pins the new counters: a clustered literal
// prunes every block but its own, the scan is counted as one vectorized
// direct scan, selection-vector buffers are reused across surviving
// segments, and rows_scanned reflects only the processed rows.
func TestDirectScanPruningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	batches, rowsPer := 6, 200
	d := bandedDB(t, rng, batches, rowsPer, 0.1)
	e := NewEngine(d)
	q := Query{Agg: Count, Preds: []Predicate{{Col: ColumnRef{Table: "t", Column: "band"}, Value: "b3"}}}
	v, err := e.EvaluateContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if v != float64(rowsPer) {
		t.Fatalf("Count(band=b3) = %v, want %d", v, rowsPer)
	}
	s := e.Stats.Snapshot()
	if s["direct_vector_scans"] != 1 {
		t.Errorf("direct_vector_scans = %d, want 1", s["direct_vector_scans"])
	}
	if s["blocks_pruned"] != int64(batches-1) {
		t.Errorf("blocks_pruned = %d, want %d", s["blocks_pruned"], batches-1)
	}
	if s["blocks_scanned"] != 1 {
		t.Errorf("blocks_scanned = %d, want 1", s["blocks_scanned"])
	}
	if s["rows_scanned"] != int64(rowsPer) {
		t.Errorf("rows_scanned = %d, want %d (pruned blocks are not scanned)", s["rows_scanned"], rowsPer)
	}

	// Numeric range pruning: num is monotone, so an equality literal
	// survives only its own block.
	e2 := NewEngine(d)
	q2 := Query{Agg: Count, Preds: []Predicate{{Col: ColumnRef{Table: "t", Column: "num"}, Value: "250"}}}
	v, err = e2.EvaluateContext(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("Count(num=250) = %v, want 1", v)
	}
	if s2 := e2.Stats.Snapshot(); s2["blocks_pruned"] != int64(batches-1) {
		t.Errorf("numeric blocks_pruned = %d, want %d", s2["blocks_pruned"], batches-1)
	}

	// A multi-segment unpruned scan reuses the selection vector.
	e3 := NewEngine(d)
	q3 := Query{Agg: Count, Preds: []Predicate{{Col: ColumnRef{Table: "t", Column: "cat"}, Value: "p"}}}
	if _, err := e3.EvaluateContext(context.Background(), q3); err != nil {
		t.Fatal(err)
	}
	if s3 := e3.Stats.Snapshot(); s3["selvec_reuses"] != int64(batches-1) {
		t.Errorf("selvec_reuses = %d, want %d", s3["selvec_reuses"], batches-1)
	}
}

// TestDirectScanCancellation: the pipeline aborts between segments.
func TestDirectScanCancellation(t *testing.T) {
	d := stressDB(t, 20000)
	e := NewEngine(d)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.EvaluateContext(ctx, Query{Agg: Count})
	if err != context.Canceled {
		t.Errorf("cancelled direct scan returned %v, want context.Canceled", err)
	}
}

// TestCubeZoneMapPruning drives a cube pass whose dimension literals are
// confined to one block: every other block must take the batched
// rolled-up update, and the result must equal both the unpruned pass and
// the row-at-a-time oracle bit for bit.
func TestCubeZoneMapPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	batches, rowsPer := 5, 300
	d := bandedDB(t, rng, batches, rowsPer, 0.2)
	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	dims := []DimSpec{
		{Col: cr("band"), Literals: []string{"b2"}},
		{Col: cr("num"), Literals: []string{"650", "700"}}, // block 2 only
	}
	reqs := []AggRequest{
		{Fn: Count, Col: ColumnRef{}},
		{Fn: Sum, Col: cr("val")},
		{Fn: CountDistinct, Col: cr("cat")},
		{Fn: CountDistinct, Col: cr("val")},
	}

	pruner := NewEngine(d)
	pruned, err := pruner.CubeForContext(context.Background(), []string{"t"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	s := pruner.Stats.Snapshot()
	if s["blocks_pruned"] != int64(batches-1) {
		t.Errorf("cube blocks_pruned = %d, want %d", s["blocks_pruned"], batches-1)
	}
	if s["blocks_scanned"] != 1 {
		t.Errorf("cube blocks_scanned = %d, want 1", s["blocks_scanned"])
	}

	flat := NewEngine(d, WithZoneMaps(false))
	unpruned, err := flat.CubeForContext(context.Background(), []string{"t"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if fs := flat.Stats.Snapshot(); fs["blocks_pruned"] != 0 {
		t.Errorf("zone maps disabled but blocks_pruned = %d", fs["blocks_pruned"])
	}
	requireCubesIdentical(t, oracleOf(unpruned), pruned, "pruned vs unpruned cube")

	view, err := db.BuildJoinView(d, []string{"t"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := computeCubeScalarRange(context.Background(), view, []string{"t"}, dims, trackedColsFor(reqs), 0, view.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	requireCubesIdentical(t, want, pruned, "pruned cube vs oracle")
}

// TestCubeZoneMapPruningRandomized: randomized banded schedules, random
// dimension/literal draws (some clustered, some absent, some uniform),
// pruned kernel vs row-at-a-time oracle, bit for bit. Data is float-
// valued: single-threaded passes preserve row order even on the batched
// rolled-up path (register-seeded accumulation).
func TestCubeZoneMapPruningRandomized(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 8
	}
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9300 + trial)))
		batches := 1 + rng.Intn(5)
		rowsPer := 50 + rng.Intn(250)
		nullFrac := []float64{0.05, 0.4, 1}[rng.Intn(3)]
		d := bandedDB(t, rng, batches, rowsPer, nullFrac)
		view, err := db.BuildJoinView(d, []string{"t"})
		if err != nil {
			t.Fatal(err)
		}
		cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
		var dims []DimSpec
		dimPool := []DimSpec{
			{Col: cr("band"), Literals: []string{"b0", "b" + strconv.Itoa(rng.Intn(batches+2))}},
			{Col: cr("num"), Literals: []string{strconv.Itoa(rng.Intn(batches * rowsPer)), "-5"}},
			{Col: cr("cat"), Literals: []string{"p", "zz"}},
		}
		for _, ds := range dimPool {
			if rng.Intn(2) == 0 {
				dims = append(dims, ds)
			}
		}
		var cols []trackedCol
		for _, c := range []string{"val", "cat", "dead"} {
			switch rng.Intn(3) {
			case 1:
				cols = append(cols, trackedCol{ref: cr(c)})
			case 2:
				cols = append(cols, trackedCol{ref: cr(c), needDistinct: true})
			}
		}
		label := fmt.Sprintf("trial %d (batches=%d rowsPer=%d dims=%d)", trial, batches, rowsPer, len(dims))
		want, err := computeCubeScalarRange(ctx, view, []string{"t"}, dims, cols, 0, view.NumRows())
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		got, err := computeCubeRange(ctx, view, []string{"t"}, dims, cols, 0, view.NumRows(), passConfig{zones: true})
		if err != nil {
			t.Fatalf("%s: kernel+zones: %v", label, err)
		}
		requireCubesIdentical(t, want, got, label)
	}
}
