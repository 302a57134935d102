package sqlexec

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"aggchecker/internal/db"
)

// stressDB builds a randomized two-string-one-numeric table large enough
// that cube passes take measurable time (widening the singleflight window).
func stressDB(tb testing.TB, rows int) *db.Database {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	colA := db.NewStringColumn("a")
	colB := db.NewStringColumn("b")
	colX := db.NewFloatColumn("x")
	avals := []string{"p", "q", "r", "s"}
	bvals := []string{"u", "v", "w"}
	for i := 0; i < rows; i++ {
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
	d := db.NewDatabase("stress")
	d.MustAddTable(db.MustNewTable("t", colA, colB, colX))
	return d
}

func stressDims() []DimSpec {
	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	return []DimSpec{
		{Col: cr("a"), Literals: []string{"p", "q", "r", "s"}},
		{Col: cr("b"), Literals: []string{"u", "v", "w"}},
	}
}

// TestCubeForSingleflight is the acceptance check for concurrent request
// deduplication: many goroutines released simultaneously against the same
// cube signature must trigger exactly one cube pass, share one result, and
// record the coalesced requests in Stats.CubeDedups.
func TestCubeForSingleflight(t *testing.T) {
	e := NewEngine(stressDB(t, 5000))
	dims := stressDims()
	reqs := []AggRequest{
		{Fn: Count, Col: ColumnRef{}},
		{Fn: Sum, Col: ColumnRef{Table: "t", Column: "x"}},
	}
	const goroutines = 32
	// Hold the one cube pass open until every other goroutine has arrived
	// and registered as a coalesced waiter, so the assertion below is
	// deterministic rather than a scheduling race.
	e.testHookBeforeCubePass = func() {
		deadline := time.Now().Add(10 * time.Second)
		for e.Stats.CubeDedups.Load() < goroutines-1 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	results := make([]*CubeResult, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g], errs[g] = e.CubeForContext(context.Background(), []string{"t"}, dims, reqs)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if results[g] != results[0] {
			t.Fatalf("goroutine %d received a different cube result", g)
		}
	}
	if passes := e.Stats.CubePasses.Load(); passes != 1 {
		t.Errorf("cube passes = %d, want 1 (duplicate concurrent requests must coalesce)", passes)
	}
	if misses := e.Stats.CacheMisses.Load(); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
	if dedups := e.Stats.CubeDedups.Load(); dedups != goroutines-1 {
		t.Errorf("cube dedups = %d, want %d (every waiter coalesced onto the one pass)", dedups, goroutines-1)
	}
	if hits := e.Stats.CacheHits.Load(); hits != goroutines-1 {
		t.Errorf("cache hits = %d, want %d (every waiter reuses the one result)", hits, goroutines-1)
	}
}

// TestConcurrentOverlappingBatchesMatchSerial hammers one shared engine
// with overlapping batches from many goroutines and requires results
// identical to serial evaluation on an untouched engine. Run under -race
// this also proves the striped caches and copy-on-write extension are safe.
func TestConcurrentOverlappingBatchesMatchSerial(t *testing.T) {
	d := stressDB(t, 2000)
	shared := NewEngine(d)
	serial := NewEngine(d, WithCaching(false))

	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	avals := []string{"p", "q", "r", "s"}
	bvals := []string{"u", "v", "w"}
	fns := []AggFunc{Count, Sum, Avg, Min, Max, CountDistinct, Percentage}
	rng := rand.New(rand.NewSource(11))
	const nqueries = 120
	queries := make([]Query, nqueries)
	want := make([]float64, nqueries)
	for i := range queries {
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
		queries[i] = q
		v, err := serial.EvaluateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	// Each goroutine evaluates a random overlapping slice of the workload,
	// so cube requests collide across goroutines mid-computation.
	const goroutines = 16
	type outcome struct {
		idx []int
		got []float64
	}
	outs := make([]outcome, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		gRng := rand.New(rand.NewSource(int64(100 + g)))
		n := 40 + gRng.Intn(40)
		idx := make([]int, n)
		batch := make([]Query, n)
		for k := 0; k < n; k++ {
			idx[k] = gRng.Intn(nqueries)
			batch[k] = queries[idx[k]]
		}
		outs[g].idx = idx
		wg.Add(1)
		go func(g int, batch []Query) {
			defer wg.Done()
			<-start
			outs[g].got = shared.EvaluateBatch(context.Background(), batch, BatchOptions{Workers: 4})
		}(g, batch)
	}
	close(start)
	wg.Wait()

	for g := range outs {
		for k, i := range outs[g].idx {
			if !eqNaN(outs[g].got[k], want[i]) {
				t.Fatalf("goroutine %d query %s: got %v want %v",
					g, queries[i].Key(), outs[g].got[k], want[i])
			}
		}
	}
	if passes := shared.Stats.CubePasses.Load(); passes > goroutines {
		t.Errorf("cube passes = %d; overlapping batches should coalesce well below one pass per goroutine", passes)
	}
}

// TestConcurrentExtensionSafe extends a cached cube with new aggregation
// columns while other goroutines keep answering from it; copy-on-write
// extension must never invalidate a reader's snapshot.
func TestConcurrentExtensionSafe(t *testing.T) {
	d := stressDB(t, 1000)
	e := NewEngine(d)
	dims := stressDims()
	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	base := []AggRequest{{Fn: Count, Col: ColumnRef{}}}
	if _, err := e.CubeForContext(context.Background(), []string{"t"}, dims, base); err != nil {
		t.Fatal(err)
	}
	serial := NewEngine(d)
	countQ := Query{Agg: Count, Preds: []Predicate{{Col: cr("a"), Value: "p"}}}
	sumQ := Query{Agg: Sum, AggCol: cr("x"), Preds: []Predicate{{Col: cr("b"), Value: "u"}}}
	wantCount, _ := serial.EvaluateContext(context.Background(), countQ)
	wantSum, _ := serial.EvaluateContext(context.Background(), sumQ)

	start := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(extend bool) {
			defer wg.Done()
			<-start
			for it := 0; it < 20; it++ {
				reqs := base
				if extend {
					reqs = []AggRequest{{Fn: Sum, Col: cr("x")}, {Fn: CountDistinct, Col: cr("x")}}
				}
				cube, err := e.CubeForContext(context.Background(), []string{"t"}, dims, reqs)
				if err != nil {
					errCh <- err
					return
				}
				if v, ok := cube.Value(countQ); !ok || !eqNaN(v, wantCount) {
					t.Errorf("count from cube = %v (ok=%v), want %v", v, ok, wantCount)
					return
				}
				if extend {
					if v, ok := cube.Value(sumQ); !ok || !eqNaN(v, wantSum) {
						t.Errorf("sum from cube = %v (ok=%v), want %v", v, ok, wantSum)
						return
					}
				}
			}
		}(g%2 == 0)
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConcurrentViewSingleflight verifies concurrent first touches of the
// same join view build it once.
func TestConcurrentViewSingleflight(t *testing.T) {
	e := NewEngine(stressDB(t, 3000))
	const goroutines = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	views := make([]*db.JoinView, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			v, err := e.view([]string{"t"})
			if err != nil {
				t.Error(err)
				return
			}
			views[g] = v
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if views[g] != views[0] {
			t.Fatalf("goroutine %d built a duplicate join view", g)
		}
	}
}
