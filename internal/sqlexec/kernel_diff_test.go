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

// Differential tests: the cube kernel must produce CubeResults bit-for-bit
// identical to the row-at-a-time oracle (computeCubeScalarRange in
// cube_oracle_test.go) over randomized schemas, dimension sets, and literal
// pools — including NaN/NULL handling, empty cells, CountDistinct on string
// and numeric columns, and joined views. Single-threaded passes accumulate
// in the exact row order of the oracle, so even float sums must match to
// the last bit; parallel partial merging is exercised separately with
// integer-valued data, where every association order is exact.

// diffSchema is one randomized database plus the dimension/column pool the
// trials draw from.
type diffSchema struct {
	d       *db.Database
	tables  []string
	dimCols []ColumnRef // candidate dimension columns
	aggCols []ColumnRef // candidate aggregation columns
	// litPool lists, per dimension column key, plausible literals (present
	// values, absent values, and garbage for numeric columns).
	litPool map[string][]string
}

// randomDiffSchema builds a one- or two-table database with string and
// numeric columns, NULLs sprinkled in, and (when joined) dangling foreign
// keys so inner-join row drops are exercised.
func randomDiffSchema(rng *rand.Rand, rows int, joined, integral bool) *diffSchema {
	sVals := [][]string{
		{"p", "q", "r", "s"},
		{"u", "v", "w"},
	}
	s1 := db.NewStringColumn("s1")
	s2 := db.NewStringColumn("s2")
	n1 := db.NewFloatColumn("n1")
	n2 := db.NewFloatColumn("n2")
	fk := db.NewStringColumn("k")
	dimKeys := []string{"k0", "k1", "k2", "k3", "k4"}
	num := func() float64 {
		if integral {
			return float64(rng.Intn(40))
		}
		return rng.NormFloat64() * 100
	}
	for i := 0; i < rows; i++ {
		if rng.Intn(10) == 0 {
			s1.AppendString("") // NULL
		} else {
			s1.AppendString(sVals[0][rng.Intn(len(sVals[0]))])
		}
		s2.AppendString(sVals[1][rng.Intn(len(sVals[1]))])
		if rng.Intn(8) == 0 {
			n1.AppendFloat(math.NaN()) // NULL
		} else {
			n1.AppendFloat(num())
		}
		n2.AppendFloat(float64(rng.Intn(6))) // small numeric domain for dims
		switch rng.Intn(12) {
		case 0:
			fk.AppendString("") // NULL join key: row drops from joins
		case 1:
			fk.AppendString("dangling") // no match: row drops from joins
		default:
			fk.AppendString(dimKeys[rng.Intn(len(dimKeys))])
		}
	}
	fact := db.MustNewTable("f", s1, s2, n1, n2, fk)
	d := db.NewDatabase("diff")
	d.MustAddTable(fact)

	sc := &diffSchema{
		d:      d,
		tables: []string{"f"},
		dimCols: []ColumnRef{
			{Table: "f", Column: "s1"},
			{Table: "f", Column: "s2"},
			{Table: "f", Column: "n2"},
		},
		aggCols: []ColumnRef{
			{Table: "f", Column: "n1"},
			{Table: "f", Column: "n2"},
			{Table: "f", Column: "s1"},
		},
		litPool: map[string][]string{
			"f.s1": {"p", "q", "r", "s", "absent"},
			"f.s2": {"u", "v", "w", "zz"},
			"f.n2": {"0", "1", "2", "3", "4", "5", "9", "notanumber"},
		},
	}
	if joined {
		dk := db.NewStringColumn("k")
		ds := db.NewStringColumn("ds")
		dn := db.NewFloatColumn("dn")
		for i, key := range dimKeys {
			dk.AppendString(key)
			ds.AppendString([]string{"red", "green", "blue"}[i%3])
			dn.AppendFloat(float64(10 * i))
		}
		dim := db.MustNewTable("dim", dk, ds, dn)
		dim.PrimaryKey = "k"
		d.MustAddTable(dim)
		d.MustAddForeignKey(db.ForeignKey{FromTable: "f", FromColumn: "k", ToTable: "dim", ToColumn: "k"})
		sc.tables = []string{"f", "dim"}
		sc.dimCols = append(sc.dimCols, ColumnRef{Table: "dim", Column: "ds"})
		sc.aggCols = append(sc.aggCols, ColumnRef{Table: "dim", Column: "dn"}, ColumnRef{Table: "dim", Column: "ds"})
		sc.litPool["dim.ds"] = []string{"red", "green", "blue", "mauve"}
	}
	return sc
}

// randomCubeSpec draws a dimension set (0..3 distinct columns with random
// literal subsets, some absent from the data) and tracked columns (random
// distinct-count flags) from the schema.
func randomCubeSpec(rng *rand.Rand, sc *diffSchema) ([]DimSpec, []trackedCol) {
	perm := rng.Perm(len(sc.dimCols))
	ndims := rng.Intn(maxCubeDims + 1)
	if ndims > len(perm) {
		ndims = len(perm)
	}
	var dims []DimSpec
	for _, pi := range perm[:ndims] {
		ref := sc.dimCols[pi]
		pool := sc.litPool[ref.String()]
		nlits := 1 + rng.Intn(len(pool))
		litPerm := rng.Perm(len(pool))
		lits := make([]string, 0, nlits)
		for _, li := range litPerm[:nlits] {
			lits = append(lits, pool[li])
		}
		dims = append(dims, DimSpec{Col: ref, Literals: lits})
	}
	var cols []trackedCol
	for _, ref := range sc.aggCols {
		switch rng.Intn(3) {
		case 0:
			// not tracked
		case 1:
			cols = append(cols, trackedCol{ref: ref})
		case 2:
			cols = append(cols, trackedCol{ref: ref, needDistinct: true})
		}
	}
	return dims, cols
}

// sampleQueries enumerates queries the cube claims to cover: every agg
// function over every tracked column, at the rolled-up cell and at
// single-literal cells of each dimension (first literals, including ones
// absent from the data, so empty cells are asserted too).
func sampleQueries(r *CubeResult) []Query {
	var predSets [][]Predicate
	predSets = append(predSets, nil)
	for _, d := range r.Dims {
		for li, lit := range d.Literals {
			if li > 2 {
				break
			}
			predSets = append(predSets, []Predicate{{Col: d.Col, Value: lit}})
		}
	}
	if len(r.Dims) >= 2 {
		predSets = append(predSets, []Predicate{
			{Col: r.Dims[0].Col, Value: r.Dims[0].Literals[0]},
			{Col: r.Dims[1].Col, Value: r.Dims[1].Literals[0]},
		})
	}
	var qs []Query
	for _, ps := range predSets {
		qs = append(qs, Query{Agg: Count, Preds: ps}, Query{Agg: Percentage, Preds: ps})
		if len(ps) >= 1 {
			qs = append(qs, Query{Agg: ConditionalProbability, Preds: ps})
		}
		for ci := 1; ci < len(r.cols); ci++ {
			ref := r.cols[ci].ref
			qs = append(qs,
				Query{Agg: Count, AggCol: ref, Preds: ps},
				Query{Agg: Sum, AggCol: ref, Preds: ps},
				Query{Agg: Avg, AggCol: ref, Preds: ps},
				Query{Agg: Min, AggCol: ref, Preds: ps},
				Query{Agg: Max, AggCol: ref, Preds: ps},
			)
			if r.cols[ci].needDistinct {
				qs = append(qs, Query{Agg: CountDistinct, AggCol: ref, Preds: ps})
			}
		}
	}
	return qs
}

// TestKernelDifferentialRandomized is the single-threaded property test:
// kernel and oracle must agree bit-for-bit, float data and all.
func TestKernelDifferentialRandomized(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		joined := rng.Intn(2) == 0
		rows := 50 + rng.Intn(900)
		sc := randomDiffSchema(rng, rows, joined, false)
		view, err := db.BuildJoinView(sc.d, sc.tables)
		if err != nil {
			t.Fatal(err)
		}
		dims, cols := randomCubeSpec(rng, sc)
		label := fmt.Sprintf("trial %d (joined=%v rows=%d dims=%d cols=%d)",
			trial, joined, rows, len(dims), len(cols))
		want, err := computeCubeScalarRange(ctx, view, sc.tables, dims, cols, 0, view.NumRows())
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		got, err := computeCubeRange(ctx, view, sc.tables, dims, cols, 0, view.NumRows(), passConfig{zones: true})
		if err != nil {
			t.Fatalf("%s: kernel: %v", label, err)
		}
		requireCubesIdentical(t, want, got, label)
	}
}

// TestKernelDifferentialParallelPartials lowers the parallelism threshold
// so passes split into morsels on a width-4 scheduler and the multi-partial
// merge path runs on small inputs. Data is integer-valued, so sums are
// exact under any partial association order and bit-for-bit comparison
// remains valid.
func TestKernelDifferentialParallelPartials(t *testing.T) {
	defer func(old int) { kernelParallelMinRows = old }(kernelParallelMinRows)
	kernelParallelMinRows = 64
	sched := NewScheduler(4)
	defer sched.Close()
	var stats Stats

	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		joined := rng.Intn(2) == 0
		rows := 2*kernelBlockRows + rng.Intn(4*kernelBlockRows)
		sc := randomDiffSchema(rng, rows, joined, true)
		view, err := db.BuildJoinView(sc.d, sc.tables)
		if err != nil {
			t.Fatal(err)
		}
		dims, cols := randomCubeSpec(rng, sc)
		label := fmt.Sprintf("parallel trial %d (joined=%v rows=%d dims=%d)", trial, joined, rows, len(dims))
		want, err := computeCubeScalarRange(ctx, view, sc.tables, dims, cols, 0, view.NumRows())
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		got, err := computeCubeRange(ctx, view, sc.tables, dims, cols, 0, view.NumRows(), passConfig{stats: &stats, zones: true, sched: sched})
		if err != nil {
			t.Fatalf("%s: kernel: %v", label, err)
		}
		requireCubesIdentical(t, want, got, label)
	}
	if stats.PartialsMerged.Load() == 0 {
		t.Fatal("no pass split into morsels: the multi-partial merge went untested")
	}
}

// TestKernelEmptyView verifies kernel and oracle agree on a zero-row scan
// (an inner join that drops every row): no cells at all.
func TestKernelEmptyView(t *testing.T) {
	s := db.NewStringColumn("s")
	n := db.NewFloatColumn("n")
	// Zero-row table.
	tbl := db.MustNewTable("e", s, n)
	d := db.NewDatabase("empty")
	d.MustAddTable(tbl)
	view, err := db.BuildJoinView(d, []string{"e"})
	if err != nil {
		t.Fatal(err)
	}
	dims := []DimSpec{{Col: ColumnRef{Table: "e", Column: "s"}, Literals: []string{"x"}}}
	cols := []trackedCol{{ref: ColumnRef{Table: "e", Column: "n"}, needDistinct: true}}
	want, err := computeCubeScalarRange(context.Background(), view, []string{"e"}, dims, cols, 0, view.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	got, err := computeCubeRange(context.Background(), view, []string{"e"}, dims, cols, 0, view.NumRows(), passConfig{zones: true})
	if err != nil {
		t.Fatal(err)
	}
	requireCubesIdentical(t, want, got, "empty view")
	if n := len(latticeCells(got)); n != 0 {
		t.Errorf("empty view produced %d cells", n)
	}
	// Count over an empty cube answers 0, Avg answers NaN.
	q := Query{Agg: Count, Preds: []Predicate{{Col: dims[0].Col, Value: "x"}}}
	if v, ok := got.Value(q); !ok || v != 0 {
		t.Errorf("Count on empty cube = (%v, %v), want (0, true)", v, ok)
	}
	qa := Query{Agg: Avg, AggCol: cols[0].ref, Preds: nil}
	if v, ok := got.Value(qa); !ok || !math.IsNaN(v) {
		t.Errorf("Avg on empty cube = (%v, %v), want (NaN, true)", v, ok)
	}
}

// TestKernelLatticeBound drives a cube pass whose literal pool makes the
// lattice too large for the kernel (72^3 cells): the pass is refused before
// it reads a row and publishes nothing, and a batch whose queries plan onto
// that cube answers every one of them exactly as a direct scan does.
func TestKernelLatticeBound(t *testing.T) {
	wide := make([]string, 70)
	for i := range wide {
		wide[i] = "L" + strconv.Itoa(i)
	}
	wide[0], wide[1], wide[2] = "p", "u", "7" // values present in the data
	d := stressDB(t, 500)
	e := NewEngine(d)
	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	dims := []DimSpec{
		{Col: cr("a"), Literals: wide},
		{Col: cr("b"), Literals: wide},
		{Col: cr("x"), Literals: wide},
	}
	if flatLatticeSize(dims) != -1 {
		t.Fatalf("72^3 lattice should exceed maxFlatCells")
	}
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}}
	if _, err := e.CubeForContext(context.Background(), []string{"t"}, dims, reqs); err == nil {
		t.Fatal("oversized lattice built a cube")
	}
	if n := e.Stats.RowsScanned.Load(); n != 0 {
		t.Errorf("refused pass scanned %d rows", n)
	}
	if n := e.Stats.BlocksScanned.Load(); n != 0 {
		t.Errorf("refused pass scanned %d blocks", n)
	}
	if entries, bytes := e.CacheUsage(); entries != 0 || bytes != 0 {
		t.Errorf("refused pass published %d entries (%d bytes)", entries, bytes)
	}

	pool := map[string][]string{"t.a": wide, "t.b": wide, "t.x": wide}
	var queries []Query
	for _, a := range []string{"p", "q", "L9"} {
		for _, b := range []string{"u", "w"} {
			preds := []Predicate{{Col: cr("a"), Value: a}, {Col: cr("b"), Value: b}, {Col: cr("x"), Value: "7"}}
			queries = append(queries,
				Query{Agg: Count, Preds: preds},
				Query{Agg: Percentage, Preds: preds},
				Query{Agg: ConditionalProbability, Preds: preds},
				Query{Agg: Sum, AggCol: cr("x"), Preds: preds[:2]},
				Query{Agg: CountDistinct, AggCol: cr("b"), Preds: preds[:1]},
			)
		}
	}
	plan := PlanCubesOpt(queries, "t", PlanOptions{MergeSmall: true, Pool: pool})
	if len(plan.Cubes) != 1 || len(plan.Direct) != 0 || flatLatticeSize(plan.Cubes[0].Dims) != -1 {
		t.Fatalf("queries do not plan onto one oversized cube: %d cubes, %d direct", len(plan.Cubes), len(plan.Direct))
	}
	got := e.EvaluateBatch(context.Background(), queries, BatchOptions{Pool: pool})
	for i, q := range queries {
		want, err := e.EvaluateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
			t.Errorf("%s: batch %v, direct %v", q.Key(), got[i], want)
		}
	}
	if n := e.Stats.CubeAnswers.Load(); n != 0 {
		t.Errorf("%d queries answered from a refused cube", n)
	}
}

// TestKernelCancellation verifies the vectorized kernel aborts between
// blocks once the context is cancelled and publishes nothing.
func TestKernelCancellation(t *testing.T) {
	d := stressDB(t, 20000)
	view, err := db.BuildJoinView(d, []string{"t"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = computeCubeRange(ctx, view, []string{"t"}, stressDims(), nil, 0, view.NumRows(), passConfig{zones: true})
	if err != context.Canceled {
		t.Errorf("cancelled vectorized pass returned %v, want context.Canceled", err)
	}
}

// TestKernelStatsCounters checks the block/gather accounting: a joined view
// gathers dimension and aggregation columns through row maps, a single-table
// view reads all blocks zero-copy.
func TestKernelStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := randomDiffSchema(rng, 1000, true, true)
	e := NewEngine(sc.d)
	dims := []DimSpec{
		{Col: ColumnRef{Table: "f", Column: "s1"}, Literals: []string{"p", "q"}},
		{Col: ColumnRef{Table: "dim", Column: "ds"}, Literals: []string{"red", "green"}},
	}
	reqs := []AggRequest{{Fn: Sum, Col: ColumnRef{Table: "dim", Column: "dn"}}}
	if _, err := e.CubeForContext(context.Background(), sc.tables, dims, reqs); err != nil {
		t.Fatal(err)
	}
	s := e.Stats.Snapshot()
	if s["blocks_scanned"] == 0 {
		t.Error("no blocks counted")
	}
	// Joined views have no identity row maps at all: every read gathers.
	if s["gather_block_reads"] != 3*s["blocks_scanned"] || s["direct_block_reads"] != 0 {
		t.Errorf("joined view reads: gather=%d direct=%d blocks=%d",
			s["gather_block_reads"], s["direct_block_reads"], s["blocks_scanned"])
	}

	e2 := NewEngine(sc.d)
	dims2 := []DimSpec{{Col: ColumnRef{Table: "f", Column: "s1"}, Literals: []string{"p"}}}
	reqs2 := []AggRequest{{Fn: Sum, Col: ColumnRef{Table: "f", Column: "n1"}}}
	if _, err := e2.CubeForContext(context.Background(), []string{"f"}, dims2, reqs2); err != nil {
		t.Fatal(err)
	}
	s2 := e2.Stats.Snapshot()
	if s2["direct_block_reads"] != 2*s2["blocks_scanned"] || s2["gather_block_reads"] != 0 {
		t.Errorf("single-table reads: gather=%d direct=%d blocks=%d",
			s2["gather_block_reads"], s2["direct_block_reads"], s2["blocks_scanned"])
	}
}
