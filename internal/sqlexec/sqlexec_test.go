package sqlexec

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggchecker/internal/db"
)

func nflDB(t *testing.T) *db.Database {
	t.Helper()
	csvData := `name,team,games,category,year,fine
Art Schlichter,IND,indef,gambling,1983,100
Josh Gordon,CLE,indef,substance abuse repeated offense,2014,250
Stanley Wilson,CIN,indef,substance abuse repeated offense,1989,
Dexter Manley,WAS,indef,substance abuse repeated offense,1991,50
Leon Lett,DAL,4,substance abuse,1995,25
Ray Rice,BAL,2,personal conduct,2014,75
Adam Jones,CIN,4,personal conduct,2007,60
`
	tbl, err := db.LoadCSV(strings.NewReader(csvData), "nflsuspensions")
	if err != nil {
		t.Fatal(err)
	}
	d := db.NewDatabase("nfl")
	d.MustAddTable(tbl)
	return d
}

func ref(col string) ColumnRef { return ColumnRef{Table: "nflsuspensions", Column: col} }

func TestEvaluateCount(t *testing.T) {
	e := NewEngine(nflDB(t))
	q := Query{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}}
	v, err := e.EvaluateContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Errorf("Count(games=indef) = %v, want 4 (the paper's running example)", v)
	}
}

func TestEvaluateCountTwoPreds(t *testing.T) {
	e := NewEngine(nflDB(t))
	q := Query{Agg: Count, Preds: []Predicate{
		{Col: ref("games"), Value: "indef"},
		{Col: ref("category"), Value: "substance abuse repeated offense"},
	}}
	v, err := e.EvaluateContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("two-predicate count = %v, want 3", v)
	}
	q2 := Query{Agg: Count, Preds: []Predicate{
		{Col: ref("games"), Value: "indef"},
		{Col: ref("category"), Value: "gambling"},
	}}
	v2, _ := e.EvaluateContext(context.Background(), q2)
	if v2 != 1 {
		t.Errorf("gambling lifetime bans = %v, want 1", v2)
	}
}

func TestEvaluateNumericAggregates(t *testing.T) {
	e := NewEngine(nflDB(t))
	cases := []struct {
		fn   AggFunc
		col  string
		want float64
	}{
		{Sum, "fine", 560},
		{Avg, "fine", 560.0 / 6},
		{Min, "fine", 25},
		{Max, "fine", 250},
		{Sum, "year", 1983 + 2014 + 1989 + 1991 + 1995 + 2014 + 2007},
	}
	for _, c := range cases {
		v, err := e.EvaluateContext(context.Background(), Query{Agg: c.fn, AggCol: ref(c.col)})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-c.want) > 1e-9 {
			t.Errorf("%v(%s) = %v, want %v", c.fn, c.col, v, c.want)
		}
	}
}

func TestEvaluateCountDistinct(t *testing.T) {
	e := NewEngine(nflDB(t))
	v, err := e.EvaluateContext(context.Background(), Query{Agg: CountDistinct, AggCol: ref("team")})
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 {
		t.Errorf("CountDistinct(team) = %v, want 6 (CIN repeats)", v)
	}
	v, err = e.EvaluateContext(context.Background(), Query{Agg: CountDistinct, AggCol: ref("year"),
		Preds: []Predicate{{Col: ref("games"), Value: "indef"}}})
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Errorf("CountDistinct(year | indef) = %v, want 4", v)
	}
}

func TestEvaluatePercentage(t *testing.T) {
	e := NewEngine(nflDB(t))
	v, err := e.EvaluateContext(context.Background(), Query{Agg: Percentage, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0 * 4 / 7
	if math.Abs(v-want) > 1e-9 {
		t.Errorf("Percentage(games=indef) = %v, want %v", v, want)
	}
}

func TestEvaluateConditionalProbability(t *testing.T) {
	e := NewEngine(nflDB(t))
	// P(category = gambling | games = indef) = 1/4.
	q := Query{Agg: ConditionalProbability, Preds: []Predicate{
		{Col: ref("games"), Value: "indef"},
		{Col: ref("category"), Value: "gambling"},
	}}
	v, err := e.EvaluateContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-25) > 1e-9 {
		t.Errorf("CondProb = %v, want 25", v)
	}
}

func TestEvaluateNullHandling(t *testing.T) {
	e := NewEngine(nflDB(t))
	// Stanley Wilson has a NULL fine; Count(fine) skips it.
	v, err := e.EvaluateContext(context.Background(), Query{Agg: Count, AggCol: ref("fine")})
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 {
		t.Errorf("Count(fine) = %v, want 6 (one NULL)", v)
	}
	// Aggregates of an empty cell are NaN.
	v, err = e.EvaluateContext(context.Background(), Query{Agg: Avg, AggCol: ref("fine"),
		Preds: []Predicate{{Col: ref("team"), Value: "ZZZ"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(v) {
		t.Errorf("Avg over empty cell = %v, want NaN", v)
	}
}

func TestEvaluateNumericPredicate(t *testing.T) {
	e := NewEngine(nflDB(t))
	v, err := e.EvaluateContext(context.Background(), Query{Agg: Count, Preds: []Predicate{{Col: ref("year"), Value: "2014"}}})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("Count(year=2014) = %v, want 2", v)
	}
	// Garbage literal on numeric column matches nothing.
	v, _ = e.EvaluateContext(context.Background(), Query{Agg: Count, Preds: []Predicate{{Col: ref("year"), Value: "abc"}}})
	if v != 0 {
		t.Errorf("Count(year=abc) = %v, want 0", v)
	}
}

func TestQueryKeyCanonical(t *testing.T) {
	a := Query{Agg: Count, Preds: []Predicate{
		{Col: ref("games"), Value: "indef"},
		{Col: ref("category"), Value: "gambling"},
	}}
	b := Query{Agg: Count, Preds: []Predicate{
		{Col: ref("category"), Value: "gambling"},
		{Col: ref("games"), Value: "indef"},
	}}
	if a.Key() != b.Key() {
		t.Errorf("predicate order changed Key: %q vs %q", a.Key(), b.Key())
	}
	// ConditionalProbability keys are sensitive to the condition.
	c := Query{Agg: ConditionalProbability, Preds: a.Preds}
	d := Query{Agg: ConditionalProbability, Preds: b.Preds}
	if c.Key() == d.Key() {
		t.Error("conditional probability should distinguish the condition predicate")
	}
}

func TestQuerySQLAndDescribe(t *testing.T) {
	q := Query{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}}
	sql := q.SQL("nflsuspensions")
	if !strings.Contains(sql, "SELECT Count(*)") || !strings.Contains(sql, "games = 'indef'") {
		t.Errorf("SQL = %q", sql)
	}
	desc := q.Describe()
	if !strings.Contains(desc, "number of rows") || !strings.Contains(desc, "games is indef") {
		t.Errorf("Describe = %q", desc)
	}
}

func buildNFLDims() []DimSpec {
	return []DimSpec{
		{Col: ref("games"), Literals: []string{"indef", "4"}},
		{Col: ref("category"), Literals: []string{"gambling", "substance abuse repeated offense"}},
	}
}

func TestCubeMatchesDirectEvaluation(t *testing.T) {
	e := NewEngine(nflDB(t))
	dims := buildNFLDims()
	reqs := []AggRequest{
		{Fn: Count, Col: ColumnRef{}},
		{Fn: Sum, Col: ref("fine")},
		{Fn: Avg, Col: ref("fine")},
		{Fn: CountDistinct, Col: ref("team")},
		{Fn: Percentage, Col: ColumnRef{}},
	}
	cube, err := e.CubeForContext(context.Background(), []string{"nflsuspensions"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Every query expressible in the cube must agree with direct evaluation.
	var queries []Query
	predSets := [][]Predicate{
		nil,
		{{Col: ref("games"), Value: "indef"}},
		{{Col: ref("games"), Value: "4"}},
		{{Col: ref("category"), Value: "gambling"}},
		{{Col: ref("games"), Value: "indef"}, {Col: ref("category"), Value: "gambling"}},
		{{Col: ref("games"), Value: "indef"}, {Col: ref("category"), Value: "substance abuse repeated offense"}},
	}
	for _, ps := range predSets {
		queries = append(queries,
			Query{Agg: Count, Preds: ps},
			Query{Agg: Sum, AggCol: ref("fine"), Preds: ps},
			Query{Agg: Avg, AggCol: ref("fine"), Preds: ps},
			Query{Agg: CountDistinct, AggCol: ref("team"), Preds: ps},
			Query{Agg: Percentage, Preds: ps},
		)
		if len(ps) == 2 {
			queries = append(queries, Query{Agg: ConditionalProbability, Preds: ps})
		}
	}
	for _, q := range queries {
		cv, ok := cube.Value(q)
		if !ok {
			t.Errorf("cube cannot answer %s", q.Key())
			continue
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

func eqNaN(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) < 1e-9
}

func TestCubeRandomizedAgainstDirect(t *testing.T) {
	// Property: on a random table, every query covered by a random cube
	// agrees with direct evaluation.
	rng := rand.New(rand.NewSource(99))
	colA := db.NewStringColumn("a")
	colB := db.NewStringColumn("b")
	colX := db.NewFloatColumn("x")
	avals := []string{"p", "q", "r", "s"}
	bvals := []string{"u", "v", "w"}
	for i := 0; i < 500; i++ {
		if rng.Intn(10) == 0 {
			colA.AppendString("")
		} else {
			colA.AppendString(avals[rng.Intn(len(avals))])
		}
		colB.AppendString(bvals[rng.Intn(len(bvals))])
		if rng.Intn(15) == 0 {
			colX.AppendFloat(math.NaN())
		} else {
			colX.AppendFloat(float64(rng.Intn(100)))
		}
	}
	tbl := db.MustNewTable("t", colA, colB, colX)
	d := db.NewDatabase("rand")
	d.MustAddTable(tbl)
	e := NewEngine(d)
	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	dims := []DimSpec{
		{Col: cr("a"), Literals: []string{"p", "q"}},
		{Col: cr("b"), Literals: []string{"u", "v", "w"}},
	}
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}, {Fn: Sum, Col: cr("x")},
		{Fn: CountDistinct, Col: cr("x")}, {Fn: Min, Col: cr("x")}, {Fn: Max, Col: cr("x")}}
	cube, err := e.CubeForContext(context.Background(), []string{"t"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	fns := []AggFunc{Count, Sum, Avg, Min, Max, CountDistinct, Percentage}
	for i := 0; i < 300; i++ {
		var preds []Predicate
		if rng.Intn(2) == 0 {
			preds = append(preds, Predicate{Col: cr("a"), Value: []string{"p", "q"}[rng.Intn(2)]})
		}
		if rng.Intn(2) == 0 {
			preds = append(preds, Predicate{Col: cr("b"), Value: bvals[rng.Intn(3)]})
		}
		fn := fns[rng.Intn(len(fns))]
		q := Query{Agg: fn, Preds: preds}
		if fn.NeedsNumericColumn() || fn == CountDistinct {
			q.AggCol = cr("x")
		}
		cv, ok := cube.Value(q)
		if !ok {
			t.Fatalf("cube cannot answer %s", q.Key())
		}
		dv, err := e.EvaluateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !eqNaN(cv, dv) {
			t.Fatalf("query %s: cube=%v direct=%v", q.Key(), cv, dv)
		}
	}
}

func TestCubeCacheReuse(t *testing.T) {
	e := NewEngine(nflDB(t))
	dims := buildNFLDims()
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}}
	if _, err := e.CubeForContext(context.Background(), []string{"nflsuspensions"}, dims, reqs); err != nil {
		t.Fatal(err)
	}
	misses := e.Stats.CacheMisses.Load()
	if _, err := e.CubeForContext(context.Background(), []string{"nflsuspensions"}, dims, reqs); err != nil {
		t.Fatal(err)
	}
	if e.Stats.CacheMisses.Load() != misses {
		t.Error("second identical cube request should hit the cache")
	}
	if e.Stats.CacheHits.Load() == 0 {
		t.Error("cache hit not recorded")
	}
}

func TestCubeCacheExtension(t *testing.T) {
	e := NewEngine(nflDB(t))
	dims := buildNFLDims()
	if _, err := e.CubeForContext(context.Background(), []string{"nflsuspensions"}, dims,
		[]AggRequest{{Fn: Count, Col: ColumnRef{}}}); err != nil {
		t.Fatal(err)
	}
	passes := e.Stats.CubePasses.Load()
	// Requesting a new aggregation column extends the cached cube in one
	// additional pass, after which the merged cube answers both.
	cube, err := e.CubeForContext(context.Background(), []string{"nflsuspensions"}, dims,
		[]AggRequest{{Fn: Sum, Col: ref("fine")}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats.CubePasses.Load() != passes+1 {
		t.Errorf("extension should cost exactly one pass")
	}
	q := Query{Agg: Sum, AggCol: ref("fine"), Preds: []Predicate{{Col: ref("games"), Value: "indef"}}}
	cv, ok := cube.Value(q)
	if !ok {
		t.Fatal("merged cube cannot answer extended query")
	}
	dv, _ := e.EvaluateContext(context.Background(), q)
	if !eqNaN(cv, dv) {
		t.Errorf("merged cube: %v want %v", cv, dv)
	}
	// The original count queries must survive the merge.
	q2 := Query{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}}
	cv2, ok := cube.Value(q2)
	if !ok || cv2 != 4 {
		t.Errorf("count after merge = %v ok=%v, want 4", cv2, ok)
	}

	// Counting distinct values of a tracked column replaces its statistics
	// with distinct-capable ones in one more pass; the cube extended
	// before cannot count them and still answers its own queries.
	q3 := Query{Agg: CountDistinct, AggCol: ref("fine"), Preds: []Predicate{{Col: ref("games"), Value: "indef"}}}
	wider, err := e.CubeForContext(context.Background(), []string{"nflsuspensions"}, dims,
		[]AggRequest{{Fn: CountDistinct, Col: ref("fine")}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats.CubePasses.Load() != passes+2 {
		t.Errorf("distinct extension should cost exactly one pass")
	}
	for _, q := range []Query{q, q2, q3} {
		wv, ok := wider.Value(q)
		dv, _ := e.EvaluateContext(context.Background(), q)
		if !ok || !eqNaN(wv, dv) {
			t.Errorf("%s after distinct extension = %v ok=%v, want %v", q.Key(), wv, ok, dv)
		}
	}
	if _, ok := cube.Value(q3); ok {
		t.Error("cube extended before answers a distinct count it does not track")
	}
	if v, ok := cube.Value(q); !ok || !eqNaN(v, dv) {
		t.Errorf("cube extended before: %s = %v ok=%v, want %v", q.Key(), v, ok, dv)
	}
}

func TestCubeCachingDisabled(t *testing.T) {
	e := NewEngine(nflDB(t), WithCaching(false))
	dims := buildNFLDims()
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}}
	for i := 0; i < 3; i++ {
		if _, err := e.CubeForContext(context.Background(), []string{"nflsuspensions"}, dims, reqs); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats.CubePasses.Load(); got != 3 {
		t.Errorf("with caching off, 3 requests should cost 3 passes, got %d", got)
	}
}

func TestCubeDimensionLimit(t *testing.T) {
	e := NewEngine(nflDB(t))
	dims := []DimSpec{
		{Col: ref("games"), Literals: []string{"indef"}},
		{Col: ref("category"), Literals: []string{"gambling"}},
		{Col: ref("team"), Literals: []string{"CIN"}},
		{Col: ref("name"), Literals: []string{"Ray Rice"}},
	}
	if _, err := e.CubeForContext(context.Background(), []string{"nflsuspensions"}, dims, nil); err == nil {
		t.Error("four cube dimensions should be rejected")
	}
}

func TestCubeUncoveredQuery(t *testing.T) {
	e := NewEngine(nflDB(t))
	cube, err := e.CubeForContext(context.Background(), []string{"nflsuspensions"}, buildNFLDims(), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Agg: Count, Preds: []Predicate{{Col: ref("team"), Value: "CIN"}}}
	if _, ok := cube.Value(q); ok {
		t.Error("cube should not answer a predicate outside its dimensions")
	}
	if !cube.CanAnswer(Query{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}}) {
		t.Error("cube should answer covered query")
	}
	// Literal outside the InOrDefault set is not answerable either.
	q2 := Query{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "2"}}}
	if cube.CanAnswer(q2) {
		t.Error("literal outside the relevant set must not be answerable")
	}
}

func TestEngineStats(t *testing.T) {
	e := NewEngine(nflDB(t))
	if _, err := e.EvaluateContext(context.Background(), Query{Agg: Count}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats.Snapshot()
	if s["direct_queries"] != 1 || s["rows_scanned"] != 7 {
		t.Errorf("stats = %v", s)
	}
}
