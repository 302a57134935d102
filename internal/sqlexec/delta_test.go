package sqlexec

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"aggchecker/internal/db"
)

// Tests for incremental cube maintenance: a cached cube at snapshot version
// N is advanced to N+1 by scanning only the appended blocks and merging the
// partial into the published result. The differential tests assert the
// delta-merged cube is bit-for-bit identical to a from-scratch rebuild at
// every version of randomized append schedules; data is integer-valued
// (like the parallel-partials tests) so float sums are exact under any
// association order and bit-for-bit comparison is valid.

// appendRandomRows stages and returns n rows for the diff schema's fact
// table "f" (columns s1, s2, n1, n2, k), drawn from the same distributions
// randomDiffSchema uses — plus occasional brand-new string values, so
// appends grow the dictionary and the delta kernel's lookup tables are
// exercised against codes the cached cube never saw.
func appendRandomRows(t *testing.T, d *db.Database, rng *rand.Rand, n int) {
	t.Helper()
	sVals0 := []string{"p", "q", "r", "s"}
	sVals1 := []string{"u", "v", "w"}
	dimKeys := []string{"k0", "k1", "k2", "k3", "k4"}
	rows := make([][]any, n)
	for i := range rows {
		var s1 any = sVals0[rng.Intn(len(sVals0))]
		if rng.Intn(10) == 0 {
			s1 = nil
		}
		var s2 any = sVals1[rng.Intn(len(sVals1))]
		if rng.Intn(7) == 0 {
			s2 = "fresh" + strconv.Itoa(rng.Intn(5))
		}
		var n1 any = float64(rng.Intn(40))
		if rng.Intn(8) == 0 {
			n1 = nil
		}
		n2 := float64(rng.Intn(6))
		var k any = dimKeys[rng.Intn(len(dimKeys))]
		switch rng.Intn(12) {
		case 0:
			k = nil
		case 1:
			k = "dangling"
		}
		rows[i] = []any{s1, s2, n1, n2, k}
	}
	if err := d.Append("f", rows...); err != nil {
		t.Fatal(err)
	}
}

// reqsFor converts a random tracked-column draw into aggregate requests
// that trackedColsFor maps back onto exactly the same columns and flags.
func reqsFor(cols []trackedCol) []AggRequest {
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}}
	for _, tc := range cols {
		if tc.needDistinct {
			reqs = append(reqs, AggRequest{Fn: CountDistinct, Col: tc.ref})
		} else {
			reqs = append(reqs, AggRequest{Fn: Sum, Col: tc.ref})
		}
	}
	return reqs
}

// TestDeltaMergeDifferentialRandomized drives randomized append schedules
// through a caching engine and asserts, at every published version, that
// the delta-merged cube equals the row-at-a-time oracle's from-scratch
// rebuild bit for bit, and that the cube published before the advance
// still equals its own version's rebuild (the fold ran on a copy). Appends
// grow the string dictionaries, so the fold also grows distinct bitsets.
func TestDeltaMergeDifferentialRandomized(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 4
	}
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		sc := randomDiffSchema(rng, 200+rng.Intn(400), false, true)
		dims, cols := randomCubeSpec(rng, sc)
		reqs := reqsFor(cols)

		oracle := func(label string) *scalarCube {
			view, err := db.BuildSnapshotView(sc.d.Snapshot(), sc.tables)
			if err != nil {
				t.Fatal(err)
			}
			want, err := computeCubeScalarRange(ctx, view, sc.tables, dims, trackedColsFor(reqs), 0, view.NumRows())
			if err != nil {
				t.Fatalf("%s: rebuild: %v", label, err)
			}
			return want
		}

		e := NewEngine(sc.d)
		prev, err := e.CubeForContext(context.Background(), sc.tables, dims, reqs)
		if err != nil {
			t.Fatal(err)
		}
		prevWant := oracle("initial")

		versions := 2 + rng.Intn(4)
		for v := 0; v < versions; v++ {
			commits := 1 + rng.Intn(3)
			for c := 0; c < commits; c++ {
				appendRandomRows(t, sc.d, rng, 1+rng.Intn(60))
				if _, err := sc.d.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("trial %d version %d (dims=%d cols=%d commits=%d)",
				trial, v, len(dims), len(cols), commits)

			deltasBefore := e.Stats.DeltaScans.Load()
			blocksBefore := e.Stats.BlocksDelta.Load()
			got, err := e.CubeForContext(context.Background(), sc.tables, dims, reqs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if d := e.Stats.DeltaScans.Load() - deltasBefore; d != 1 {
				t.Fatalf("%s: delta scans = %d, want 1", label, d)
			}
			if b := e.Stats.BlocksDelta.Load() - blocksBefore; b != int64(commits) {
				t.Fatalf("%s: blocks delta = %d, want %d (one per commit)", label, b, commits)
			}
			if e.Stats.FullRebuilds.Load() != 0 {
				t.Fatalf("%s: full rebuilds = %d, want 0", label, e.Stats.FullRebuilds.Load())
			}

			want := oracle(label)
			requireCubesIdentical(t, want, got, label)
			requireCubesIdentical(t, prevWant, prev, label+" (cube published before the advance)")
			prev, prevWant = got, want
		}
	}
}

// TestDeltaMergeGrowsDistinctBitsets appends enough new values to a
// distinct-counted string column that its dictionary outgrows the cached
// cube's bitsets (40 codes, one word, to 140 codes, three words): the fold
// grows them, and both the advanced cube and the one published before it
// equal the oracle's rebuild at their versions.
func TestDeltaMergeGrowsDistinctBitsets(t *testing.T) {
	s := db.NewStringColumn("s")
	g := db.NewStringColumn("g")
	for i := 0; i < 200; i++ {
		s.AppendString("old" + strconv.Itoa(i%40))
		g.AppendString([]string{"x", "y"}[i%2])
	}
	d := db.NewDatabase("grow")
	d.MustAddTable(db.MustNewTable("t", s, g))
	dims := []DimSpec{{Col: ColumnRef{Table: "t", Column: "g"}, Literals: []string{"x"}}}
	reqs := []AggRequest{{Fn: CountDistinct, Col: ColumnRef{Table: "t", Column: "s"}}}
	oracle := func() *scalarCube {
		view, err := db.BuildSnapshotView(d.Snapshot(), []string{"t"})
		if err != nil {
			t.Fatal(err)
		}
		want, err := computeCubeScalarRange(context.Background(), view, []string{"t"}, dims, trackedColsFor(reqs), 0, view.NumRows())
		if err != nil {
			t.Fatal(err)
		}
		return want
	}

	e := NewEngine(d)
	before, err := e.CubeForContext(context.Background(), []string{"t"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	wantBefore := oracle()
	rows := make([][]any, 100)
	for i := range rows {
		rows[i] = []any{"new" + strconv.Itoa(i), []string{"x", "y"}[i%2]}
	}
	if err := d.Append("t", rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := e.CubeForContext(context.Background(), []string{"t"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Stats.DeltaScans.Load(); n != 1 {
		t.Fatalf("delta scans = %d, want 1", n)
	}
	requireCubesIdentical(t, oracle(), after, "advanced cube")
	requireCubesIdentical(t, wantBefore, before, "cube published before the advance")
	q := Query{Agg: CountDistinct, AggCol: reqs[0].Col}
	if v, _ := after.Value(q); v != 140 {
		t.Errorf("distinct s after the append = %v, want 140", v)
	}
}

// TestConcurrentAppendAndScan hammers one engine with readers while a
// writer keeps appending and committing. Run under -race this proves the
// copy-on-write snapshot contract: readers mid-check keep a consistent
// view, and every observed row count is one the writer actually published.
func TestConcurrentAppendAndScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := randomDiffSchema(rng, 300, false, true)
	e := NewEngine(sc.d)
	dims := []DimSpec{{Col: ColumnRef{Table: "f", Column: "s1"}, Literals: []string{"p", "q", "r"}}}
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}, {Fn: Sum, Col: ColumnRef{Table: "f", Column: "n2"}}}
	if _, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs); err != nil {
		t.Fatal(err)
	}

	// published tracks row counts the writer has committed (guarded: the
	// writer records each count before the commit that publishes it, so any
	// count a reader can observe is already in the set).
	var pubMu sync.Mutex
	published := map[int]bool{300: true}
	isPublished := func(n int) bool {
		pubMu.Lock()
		defer pubMu.Unlock()
		return published[n]
	}
	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(done)
		wrng := rand.New(rand.NewSource(8))
		rows := 300
		for i := 0; i < 25; i++ {
			n := 1 + wrng.Intn(40)
			appendRandomRows(t, sc.d, wrng, n)
			rows += n
			pubMu.Lock()
			published[rows] = true
			pubMu.Unlock()
			if _, err := sc.d.Commit(); err != nil {
				writerErr <- err
				return
			}
		}
	}()

	var readersDone sync.WaitGroup
	for g := 0; g < 4; g++ {
		readersDone.Add(1)
		go func(g int) {
			defer readersDone.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				cube, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs)
				if err != nil {
					t.Error(err)
					return
				}
				total, ok := cube.Value(Query{Agg: Count})
				if !ok {
					t.Error("cube cannot answer Count(*)")
					return
				}
				if !isPublished(int(total)) {
					t.Errorf("reader %d observed unpublished row count %v", g, total)
					return
				}
			}
		}(g)
	}
	<-done
	readersDone.Wait()
	select {
	case err := <-writerErr:
		t.Fatal(err)
	default:
	}
}

// TestEngineDeltaScanCounts is the acceptance check for incremental
// maintenance accounting: after k commits to a database with a cached
// single-table cube, one re-check performs exactly one delta scan covering
// exactly the k appended blocks and their rows — sealed blocks are never
// rescanned, and no full cube pass runs.
func TestEngineDeltaScanCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := randomDiffSchema(rng, 500, false, true)
	e := NewEngine(sc.d)
	dims := []DimSpec{{Col: ColumnRef{Table: "f", Column: "s1"}, Literals: []string{"p", "q"}}}
	reqs := []AggRequest{
		{Fn: Count, Col: ColumnRef{}},
		{Fn: Sum, Col: ColumnRef{Table: "f", Column: "n1"}},
		{Fn: CountDistinct, Col: ColumnRef{Table: "f", Column: "s2"}},
	}
	if _, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs); err != nil {
		t.Fatal(err)
	}

	const kBlocks = 3
	appended := 0
	for i := 0; i < kBlocks; i++ {
		n := 20 + 10*i
		appendRandomRows(t, sc.d, rng, n)
		appended += n
		if _, err := sc.d.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	before := e.Stats.Snapshot()
	cube, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats.Snapshot()
	if got := s["delta_scans"] - before["delta_scans"]; got != 1 {
		t.Errorf("delta scans = %d, want 1", got)
	}
	if got := s["blocks_delta"] - before["blocks_delta"]; got != kBlocks {
		t.Errorf("blocks delta = %d, want %d", got, kBlocks)
	}
	if got := s["rows_scanned"] - before["rows_scanned"]; got != int64(appended) {
		t.Errorf("rows scanned by the advance = %d, want %d (sealed blocks must not be rescanned)", got, appended)
	}
	if got := s["cube_passes"] - before["cube_passes"]; got != 0 {
		t.Errorf("full cube passes during advance = %d, want 0", got)
	}
	if got := s["full_rebuilds"] - before["full_rebuilds"]; got != 0 {
		t.Errorf("full rebuilds = %d, want 0", got)
	}

	// The merged cube answers exactly like dedicated scans over the new
	// snapshot.
	check := NewEngine(sc.d)
	for _, q := range []Query{
		{Agg: Count, Preds: []Predicate{{Col: dims[0].Col, Value: "p"}}},
		{Agg: Sum, AggCol: ColumnRef{Table: "f", Column: "n1"}, Preds: []Predicate{{Col: dims[0].Col, Value: "q"}}},
		{Agg: CountDistinct, AggCol: ColumnRef{Table: "f", Column: "s2"}},
	} {
		want, err := check.EvaluateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := cube.Value(q)
		if !ok || !eqNaN(got, want) {
			t.Errorf("query %s: cube=%v (ok=%v) direct=%v", q.Key(), got, ok, want)
		}
	}

	// Re-requesting at the same version is a pure cache hit: no scans.
	before = e.Stats.Snapshot()
	if _, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs); err != nil {
		t.Fatal(err)
	}
	s = e.Stats.Snapshot()
	if s["rows_scanned"] != before["rows_scanned"] || s["delta_scans"] != before["delta_scans"] {
		t.Error("same-version re-request scanned rows")
	}
	if s["cache_hits"] != before["cache_hits"]+1 {
		t.Errorf("cache hits = %d, want %d", s["cache_hits"], before["cache_hits"]+1)
	}
}

// TestPinnedSnapshotConsistentAcrossCommit verifies WithSnapshot: a
// request pinned to version N keeps reading exactly N's rows after later
// commits were absorbed into the cache, and serving it never regresses the
// newer published cube state.
func TestPinnedSnapshotConsistentAcrossCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	sc := randomDiffSchema(rng, 300, false, true)
	e := NewEngine(sc.d)
	dims := []DimSpec{{Col: ColumnRef{Table: "f", Column: "s1"}, Literals: []string{"p"}}}
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}}
	countAll := Query{Agg: Count}

	pinned := WithSnapshot(context.Background(), sc.d.Snapshot())
	cube, err := e.CubeForContext(pinned, []string{"f"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cube.Value(countAll); v != 300 {
		t.Fatalf("initial Count(*) = %v, want 300", v)
	}

	appendRandomRows(t, sc.d, rng, 40)
	if _, err := sc.d.Commit(); err != nil {
		t.Fatal(err)
	}

	// An unpinned request absorbs the commit by delta scan.
	fresh, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := fresh.Value(countAll); v != 340 {
		t.Fatalf("advanced Count(*) = %v, want 340", v)
	}

	// The pinned reader still sees its own version — for cube requests and
	// direct scans alike.
	stale, err := e.CubeForContext(pinned, []string{"f"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := stale.Value(countAll); v != 300 {
		t.Fatalf("pinned Count(*) = %v, want 300 (one version per request)", v)
	}
	if v, err := e.EvaluateContext(pinned, countAll); err != nil || v != 300 {
		t.Fatalf("pinned direct scan = %v (%v), want 300", v, err)
	}

	// Serving the stale reader must not regress the published state: the
	// next unpinned request is a pure hit at the new version.
	before := e.Stats.Snapshot()
	again, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := again.Value(countAll); v != 340 {
		t.Fatalf("post-stale Count(*) = %v, want 340", v)
	}
	s := e.Stats.Snapshot()
	if s["rows_scanned"] != before["rows_scanned"] || s["delta_scans"] != before["delta_scans"] || s["full_rebuilds"] != before["full_rebuilds"] {
		t.Error("stale read regressed the published cube state")
	}
}

// TestEngineDeltaRepublishAndRebuild covers the two non-scan advances: a
// commit that misses the cube's scope republishes the cached result without
// scanning, and a joined-scope cube (where appends can rewrite earlier
// joined rows) takes the counted full-rebuild path instead of a delta.
func TestEngineDeltaRepublishAndRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	sc := randomDiffSchema(rng, 400, true, true) // two tables: f + dim
	e := NewEngine(sc.d)
	fDims := []DimSpec{{Col: ColumnRef{Table: "f", Column: "s1"}, Literals: []string{"p"}}}
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}}
	single, err := e.CubeForContext(context.Background(), []string{"f"}, fDims, reqs)
	if err != nil {
		t.Fatal(err)
	}

	// Commit rows into dim only: the f-scope cube is still exact and must
	// be republished at the new version without any scan.
	if err := sc.d.Append("dim", []any{"k9", "red", 90.0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.d.Commit(); err != nil {
		t.Fatal(err)
	}
	before := e.Stats.Snapshot()
	again, err := e.CubeForContext(context.Background(), []string{"f"}, fDims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats.Snapshot()
	if again != single {
		t.Error("advance without appended rows should republish the identical result")
	}
	if s["rows_scanned"] != before["rows_scanned"] || s["delta_scans"] != before["delta_scans"] || s["full_rebuilds"] != before["full_rebuilds"] {
		t.Error("republish path scanned or rebuilt")
	}

	// A joined-scope cube cannot delta: appends to f force a full rebuild.
	jDims := []DimSpec{{Col: ColumnRef{Table: "dim", Column: "ds"}, Literals: []string{"red", "green"}}}
	if _, err := e.CubeForContext(context.Background(), sc.tables, jDims, reqs); err != nil {
		t.Fatal(err)
	}
	appendRandomRows(t, sc.d, rng, 30)
	if _, err := sc.d.Commit(); err != nil {
		t.Fatal(err)
	}
	before = e.Stats.Snapshot()
	joined, err := e.CubeForContext(context.Background(), sc.tables, jDims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	s = e.Stats.Snapshot()
	if got := s["full_rebuilds"] - before["full_rebuilds"]; got != 1 {
		t.Errorf("joined-scope advance full rebuilds = %d, want 1", got)
	}
	if got := s["delta_scans"] - before["delta_scans"]; got != 0 {
		t.Errorf("joined-scope advance delta scans = %d, want 0", got)
	}
	// And it is correct: identical to a fresh full pass over the same
	// joined scope at the new snapshot.
	fresh, err := NewEngine(sc.d).CubeForContext(context.Background(), sc.tables, jDims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	requireCubesIdentical(t, oracleOf(fresh), joined, "joined rebuild")
}

// TestDeltaZoneMapPruning is the delta-aware zone map test: a cached cube
// whose dimension literals are confined to the initially sealed rows is
// advanced through appends that miss every tracked literal. Each delta
// block must take the batched rolled-up update (counted in blocks_pruned)
// rather than the per-row coding loops, and the advanced cube must stay
// bit-for-bit identical to a from-scratch rebuild at every version.
func TestDeltaZoneMapPruning(t *testing.T) {
	band := db.NewStringColumn("band")
	num := db.NewFloatColumn("num")
	val := db.NewFloatColumn("val")
	d := db.NewDatabase("deltazone")
	d.MustAddTable(db.MustNewTable("t", band, num, val))
	seed := make([][]any, 400)
	for i := range seed {
		seed[i] = []any{"base", float64(i % 50), float64(i)}
	}
	if err := d.Append("t", seed...); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(); err != nil {
		t.Fatal(err)
	}

	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	dims := []DimSpec{
		{Col: cr("band"), Literals: []string{"base"}},
		{Col: cr("num"), Literals: []string{"7", "11"}},
	}
	reqs := []AggRequest{
		{Fn: Count, Col: ColumnRef{}},
		{Fn: Sum, Col: cr("val")},
		{Fn: CountDistinct, Col: cr("val")},
	}
	e := NewEngine(d)
	if _, err := e.CubeForContext(context.Background(), []string{"t"}, dims, reqs); err != nil {
		t.Fatal(err)
	}

	const commits = 4
	for c := 0; c < commits; c++ {
		// Appended rows carry a fresh band and out-of-range numerics: the
		// delta blocks' zones refute every tracked literal.
		rows := make([][]any, 100)
		for i := range rows {
			rows[i] = []any{"app" + strconv.Itoa(c), float64(1000 + i), float64(c*1000 + i)}
		}
		if err := d.Append("t", rows...); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Commit(); err != nil {
			t.Fatal(err)
		}
		before := e.Stats.Snapshot()
		adv, err := e.CubeForContext(context.Background(), []string{"t"}, dims, reqs)
		if err != nil {
			t.Fatal(err)
		}
		s := e.Stats.Snapshot()
		if got := s["delta_scans"] - before["delta_scans"]; got != 1 {
			t.Fatalf("commit %d: delta_scans = %d, want 1", c, got)
		}
		if got := s["blocks_pruned"] - before["blocks_pruned"]; got != 1 {
			t.Errorf("commit %d: delta blocks_pruned = %d, want 1 (rolled-up batch update)", c, got)
		}
		if got := s["blocks_scanned"] - before["blocks_scanned"]; got != 0 {
			t.Errorf("commit %d: delta blocks_scanned = %d, want 0", c, got)
		}
		fresh, err := NewEngine(d).CubeForContext(context.Background(), []string{"t"}, dims, reqs)
		if err != nil {
			t.Fatal(err)
		}
		requireCubesIdentical(t, oracleOf(fresh), adv, "delta-pruned advance commit "+strconv.Itoa(c))
	}
}
