package sqlexec

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMorselRangesDeterministicAndCovering checks the decomposition
// invariants everything else leans on: morselRanges is a pure function of
// its inputs, covers [lo, hi) exactly with no gaps or overlaps, aligns on
// segment boundaries, and bounds the number of live partials per job.
func TestMorselRangesDeterministicAndCovering(t *testing.T) {
	cases := []struct{ lo, hi, workers int }{
		{0, 1, 1},
		{0, kernelBlockRows, 4},
		{0, 10*morselTargetRows + 37, 1},
		{0, 10*morselTargetRows + 37, 4},
		{123, 64*morselTargetRows + 7, 4},
		{kernelBlockRows / 2, 3 * morselTargetRows, 16},
	}
	for _, c := range cases {
		a := morselRanges(nil, c.lo, c.hi, c.workers)
		b := morselRanges(nil, c.lo, c.hi, c.workers)
		if len(a) != len(b) {
			t.Fatalf("[%d,%d)x%d: nondeterministic length %d vs %d", c.lo, c.hi, c.workers, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("[%d,%d)x%d: nondeterministic morsel %d: %v vs %v", c.lo, c.hi, c.workers, i, a[i], b[i])
			}
		}
		want := c.lo
		for i, r := range a {
			if r.lo != want {
				t.Fatalf("[%d,%d)x%d: morsel %d starts at %d, want %d (gap or overlap)", c.lo, c.hi, c.workers, i, r.lo, want)
			}
			if r.hi <= r.lo {
				t.Fatalf("[%d,%d)x%d: empty morsel %d: %v", c.lo, c.hi, c.workers, i, r)
			}
			want = r.hi
		}
		if want != c.hi {
			t.Fatalf("[%d,%d)x%d: coverage ends at %d", c.lo, c.hi, c.workers, want)
		}
		maxMorsels := 2 * c.workers
		if maxMorsels < minMorselsPerJob {
			maxMorsels = minMorselsPerJob
		}
		if len(a) > maxMorsels+1 {
			t.Fatalf("[%d,%d)x%d: %d morsels, want <= %d (partial-memory bound)", c.lo, c.hi, c.workers, len(a), maxMorsels+1)
		}
	}
}

// TestSchedulerRunExecutesAllMorsels checks that every width — including 1,
// which has no helpers and runs entirely on the submitter — executes each
// morsel exactly once, across many concurrent jobs.
func TestSchedulerRunExecutesAllMorsels(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		s := NewScheduler(width)
		const jobs, morsels = 8, 37
		var wg sync.WaitGroup
		counts := make([][]atomic.Int32, jobs)
		for j := range counts {
			counts[j] = make([]atomic.Int32, morsels)
		}
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				var stats Stats
				err := s.Run(context.Background(), &stats, morsels, 0, func(i int) error {
					counts[j][i].Add(1)
					return nil
				})
				if err != nil {
					t.Errorf("width %d job %d: %v", width, j, err)
				}
				if got := stats.MorselsDispatched.Load(); got != morsels {
					t.Errorf("width %d job %d: morsels_dispatched = %d, want %d", width, j, got, morsels)
				}
			}(j)
		}
		wg.Wait()
		for j := range counts {
			for i := range counts[j] {
				if got := counts[j][i].Load(); got != 1 {
					t.Fatalf("width %d: job %d morsel %d executed %d times", width, j, i, got)
				}
			}
		}
		s.Close()
	}
}

// TestSchedulerRunPropagatesError checks that the first morsel error aborts
// the job (later morsels are skipped) and is what Run returns.
func TestSchedulerRunPropagatesError(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	boom := errors.New("boom")
	var ran atomic.Int32
	err := s.Run(context.Background(), nil, 64, 0, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n >= 64 {
		t.Fatalf("all %d morsels ran despite the early error", n)
	}
}

// TestSchedulerHelperSteals proves helper participation deterministically:
// the owner blocks inside morsel 0 until some other goroutine has executed
// morsel 1, which only a pool helper can do.
func TestSchedulerHelperSteals(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	var stats Stats
	release := make(chan struct{})
	err := s.Run(context.Background(), &stats, 2, 0, func(i int) error {
		if i == 0 {
			<-release
		} else {
			close(release)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.StealCount.Load(); got != 1 {
		t.Errorf("steal_count = %d, want 1 (helper must have taken morsel 1)", got)
	}
	if got := stats.MorselsDispatched.Load(); got != 2 {
		t.Errorf("morsels_dispatched = %d, want 2", got)
	}
}

// TestSchedulerCancelMidMorselNoLeak cancels a job while morsels are
// executing and then closes the pool: Run must return the context error
// promptly, and no scheduler goroutine may outlive Close.
func TestSchedulerCancelMidMorselNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewScheduler(4)
	ctx, cancel := context.WithCancel(context.Background())
	var stats Stats
	var ran atomic.Int32
	err := s.Run(ctx, &stats, 256, 0, func(i int) error {
		if ran.Add(1) == 2 {
			cancel() // mid-job, with other morsels in flight
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 256 {
		t.Fatalf("all %d morsels ran despite cancellation", n)
	}
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Errorf("goroutines after Close: %d, baseline %d (helper leak)", now, base)
	}
}

// TestSchedulerRunAfterCloseInline checks the documented Close contract:
// later submissions still complete, entirely on their submitter.
func TestSchedulerRunAfterCloseInline(t *testing.T) {
	s := NewScheduler(4)
	s.Close()
	var stats Stats
	var ran atomic.Int32
	if err := s.Run(context.Background(), &stats, 16, 0, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d morsels, want 16", got)
	}
	if got := stats.StealCount.Load(); got != 0 {
		t.Fatalf("steal_count = %d after Close, want 0 (inline execution)", got)
	}
}

// TestSchedulerFairnessLightUnderHeavy is the starvation check behind the
// shared-pool design: with one heavy job saturating the pool, light jobs
// submitted concurrently must still finish at roughly their own pace,
// because their submitters execute their own morsels (owner participation)
// and helpers round-robin one morsel at a time. The latency bound is
// deliberately loose — sleeps dominate, so it holds on one core and under
// the race detector.
func TestSchedulerFairnessLightUnderHeavy(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()

	heavyDone := make(chan time.Duration, 1)
	heavyStart := time.Now()
	go func() {
		_ = s.Run(context.Background(), nil, 300, 0, func(i int) error {
			time.Sleep(2 * time.Millisecond)
			return nil
		})
		heavyDone <- time.Since(heavyStart)
	}()

	// Give the heavy job time to occupy the helper.
	time.Sleep(20 * time.Millisecond)

	const lights = 20
	lat := make([]time.Duration, lights)
	for k := 0; k < lights; k++ {
		st := time.Now()
		if err := s.Run(context.Background(), nil, 3, 0, func(i int) error {
			time.Sleep(time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		lat[k] = time.Since(st)
	}
	heavyTotal := <-heavyDone

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p95 := lat[lights*95/100]
	// A light job is ~3ms of work; if it had serialized behind the heavy
	// job's remaining morsels it would measure in the hundreds of ms.
	if bound := heavyTotal / 3; p95 > bound {
		t.Errorf("light p95 = %v with heavy total %v (bound %v): light jobs starved behind the heavy pass", p95, heavyTotal, bound)
	}
}

// TestSchedulerEngineMatchesSingleThreaded is the determinism acceptance
// check: on integer-valued data (stressDB's x column), direct scans and
// cube passes through a width-4 shared scheduler must be bit-for-bit
// identical to a single-threaded engine, because the morsel decomposition
// is fixed and partials merge in morsel-index order.
func TestSchedulerEngineMatchesSingleThreaded(t *testing.T) {
	defer func(old int) { kernelParallelMinRows = old }(kernelParallelMinRows)
	kernelParallelMinRows = 64

	d := stressDB(t, 40000)
	serial := NewEngine(d, WithCaching(false), WithScheduler(NewScheduler(1)))
	sched := NewScheduler(4)
	defer sched.Close()
	par := NewEngine(d, WithScheduler(sched), WithCaching(false))

	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	avals := []string{"p", "q", "r", "s", ""}
	bvals := []string{"u", "v", "w"}
	var queries []Query
	for _, fn := range []AggFunc{Count, Sum, Avg, Min, Max, CountDistinct, Percentage} {
		for _, av := range avals {
			for _, bv := range bvals {
				q := Query{Agg: fn, Preds: []Predicate{{Col: cr("a"), Value: av}, {Col: cr("b"), Value: bv}}}
				if fn.NeedsNumericColumn() || fn == CountDistinct {
					q.AggCol = cr("x")
				}
				queries = append(queries, q)
			}
		}
	}

	// Direct-scan path: Evaluate goes through evaluateDirect morsels.
	for _, q := range queries {
		want, err := serial.EvaluateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.EvaluateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(got, want) {
			t.Fatalf("direct %s: scheduler %v (%#x) != single-threaded %v (%#x)",
				q.Key(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if par.Stats.MorselsDispatched.Load() == 0 {
		t.Fatal("no morsels dispatched: the direct scans never used the scheduler")
	}

	// Cube path: EvaluateBatch merges the battery into cube passes.
	gotBatch := par.EvaluateBatch(context.Background(), queries, BatchOptions{Workers: 4})
	for i, q := range queries {
		want, _ := serial.EvaluateContext(context.Background(), q)
		if !bitIdentical(gotBatch[i], want) {
			t.Fatalf("cube %s: scheduler %v != single-threaded %v", q.Key(), gotBatch[i], want)
		}
	}
}

// TestSchedulerPassPoolsPartials asserts the allocation contract of the
// lattice pool: once the pool is warm, further morsel-driven cube passes of
// the same lattice shape take every dense partial array from the pool —
// zero fresh allocations, counted by the latticePoolMisses test hook. GC is
// disabled for the steady-state window so sync.Pool cannot shed its
// contents mid-assertion.
func TestSchedulerPassPoolsPartials(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random; zero-miss cannot hold")
	}
	defer func(old int) { kernelParallelMinRows = old }(kernelParallelMinRows)
	kernelParallelMinRows = 64
	// sync.Pool parks one item per P in a private slot that no other P can
	// steal, so with several Ps an array released on one can be out of reach
	// of the next pass's workers and count as a miss although nothing was
	// dropped (about one run in two at GOMAXPROCS=4 on two cores). One P
	// makes every pooled array reachable; a pass still holds all of its
	// morsel partials at once, so the demand on the pool is unchanged.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	d := stressDB(t, 40000)
	sched := NewScheduler(4)
	defer sched.Close()
	e := NewEngine(d, WithScheduler(sched), WithCaching(false))
	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	dims := []DimSpec{
		{Col: cr("a"), Literals: []string{"p", "q", "r", "s"}},
		{Col: cr("b"), Literals: []string{"u", "v", "w"}},
	}
	reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}, {Fn: Sum, Col: cr("x")}}
	pass := func() {
		if _, err := e.CubeForContext(context.Background(), []string{"t"}, dims, reqs); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the pool: the first passes populate it with as many partials as
	// the scheduler keeps in flight at peak.
	for i := 0; i < 3; i++ {
		pass()
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC() // settle before the window so no collection lands inside it
	before := latticePoolMisses.Load()
	for i := 0; i < 5; i++ {
		pass()
	}
	if misses := latticePoolMisses.Load() - before; misses != 0 {
		t.Errorf("steady-state passes allocated %d dense partial arrays, want 0 (pool reuse)", misses)
	}
	if e.Stats.MorselsDispatched.Load() == 0 {
		t.Fatal("passes never used the scheduler morsel path")
	}
}

// bitIdentical compares float64s exactly (NaN equals NaN).
func bitIdentical(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestSchedulerSharedStress hammers one process-wide scheduler from a heavy
// cube-pass loop and many light direct scans at once (run under -race this
// is the data-race acceptance test for the shared pool). Light results must
// stay correct throughout.
func TestSchedulerSharedStress(t *testing.T) {
	defer func(old int) { kernelParallelMinRows = old }(kernelParallelMinRows)
	kernelParallelMinRows = 64

	d := stressDB(t, 40000)
	sched := NewScheduler(4)
	defer sched.Close()
	heavyEng := NewEngine(d, WithScheduler(sched), WithCaching(false))
	lightEng := NewEngine(d, WithScheduler(sched), WithCaching(false))
	serial := NewEngine(d, WithScheduler(NewScheduler(1)))

	cr := func(c string) ColumnRef { return ColumnRef{Table: "t", Column: c} }
	lightQ := Query{Agg: Sum, AggCol: cr("x"), Preds: []Predicate{{Col: cr("b"), Value: "v"}}}
	want, err := serial.EvaluateContext(context.Background(), lightQ)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // heavy: repeated full cube passes
		defer wg.Done()
		dims := stressDims()
		reqs := []AggRequest{{Fn: Count, Col: ColumnRef{}}, {Fn: Sum, Col: cr("x")}}
		for ctx.Err() == nil {
			if _, err := heavyEng.CubeForContext(context.Background(), []string{"t"}, dims, reqs); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() { // light: direct scans sharing the same pool
			defer wg.Done()
			for k := 0; k < 25; k++ {
				got, err := lightEng.EvaluateContext(context.Background(), lightQ)
				if err != nil {
					t.Error(err)
					return
				}
				if !bitIdentical(got, want) {
					t.Errorf("light scan under load: got %v want %v", got, want)
					return
				}
			}
		}()
	}

	// Let the mix run, then stop the heavy loop.
	time.Sleep(200 * time.Millisecond)
	cancel()
	wg.Wait()

	if heavyEng.Stats.MorselsDispatched.Load() == 0 {
		t.Error("heavy engine dispatched no morsels")
	}
	if lightEng.Stats.MorselsDispatched.Load() == 0 {
		t.Error("light engine dispatched no morsels")
	}
}

// TestEvaluateBatchNestedOnScheduler drives the one-pool path end to end:
// batch tasks run on a width-2 scheduler and, with the split threshold
// lowered, every cube pass and direct scan inside them owns a nested morsel
// job on the same pool. Four goroutines submit batches concurrently while a
// fifth batch is cancelled mid-run. Answers must be bit-identical to a
// NewScheduler(1) engine (integer-valued data), the cancelled batch must
// read NaN in every slot with ctx.Err() set, and no goroutine may survive
// Close.
func TestEvaluateBatchNestedOnScheduler(t *testing.T) {
	defer func(old int) { kernelParallelMinRows = old }(kernelParallelMinRows)
	kernelParallelMinRows = 64

	base := runtime.NumGoroutine()
	d := stressDB(t, 20000)
	serial := NewEngine(d, WithCaching(false), WithScheduler(NewScheduler(1)))
	sched := NewScheduler(2)
	e := NewEngine(d, WithScheduler(sched), WithCaching(false))

	batch := benchBatch(60, 11)
	variants := []BatchOptions{{Workers: 2}, {Workers: 2, Naive: true}, {Naive: true}}
	want := make([][]float64, len(variants))
	for v, opts := range variants {
		want[v] = serial.EvaluateBatch(context.Background(), batch, opts)
	}

	// The cancelled batch runs on its own caching engine over the same
	// pool, so its passes are cube passes the hook can interrupt.
	cancelEng := NewEngine(d, WithScheduler(sched))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelEng.testHookBeforeCubePass = cancel

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				v := (g + r) % len(variants)
				got := e.EvaluateBatch(context.Background(), batch, variants[v])
				for i := range got {
					if !bitIdentical(got[i], want[v][i]) {
						t.Errorf("goroutine %d variant %d: %s = %v, single-threaded %v", g, v, batch[i].Key(), got[i], want[v][i])
						return
					}
				}
			}
		}(g)
	}
	var cancelled []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		cancelled = cancelEng.EvaluateBatch(ctx, batch, BatchOptions{Workers: 2})
	}()
	wg.Wait()

	if ctx.Err() != context.Canceled {
		t.Fatalf("cancelled batch: ctx.Err() = %v, want context.Canceled", ctx.Err())
	}
	for i, v := range cancelled {
		if !math.IsNaN(v) {
			t.Fatalf("cancelled batch slot %d = %v, want NaN", i, v)
		}
	}
	if e.Stats.PartialsMerged.Load() == 0 {
		t.Error("no cube pass split into morsels: batch tasks never nested a job")
	}

	sched.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Errorf("goroutines after Close: %d, baseline %d", now, base)
	}
}
