package sqlexec

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"aggchecker/internal/db"
)

func windowQueries() []Query {
	return []Query{
		{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}},
		{Agg: Count, Preds: []Predicate{{Col: ref("category"), Value: "personal conduct"}}},
		{Agg: Avg, AggCol: ref("fine"), Preds: []Predicate{{Col: ref("team"), Value: "CIN"}}},
	}
}

// pinnedCtx pins d's current snapshot, as core.check does for every member
// it sends through a window.
func pinnedCtx(d *db.Database) context.Context {
	return WithSnapshot(context.Background(), d.Snapshot())
}

func TestWindowSingleParticipantMatchesEngine(t *testing.T) {
	d := nflDB(t)
	want := NewEngine(d).EvaluateBatch(context.Background(), windowQueries(), BatchOptions{})

	e := NewEngine(d)
	w := NewWindow(e, &e.Stats, WindowConfig{})
	w.Join()
	defer w.Leave()
	got := w.EvaluateBatch(pinnedCtx(d), windowQueries(), BatchOptions{})
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Errorf("q%d = %v, want %v", i, got[i], want[i])
		}
	}
	if e.Stats.WindowBatches.Load() != 1 || e.Stats.WindowFlushes.Load() != 1 {
		t.Errorf("batches/flushes = %d/%d, want 1/1",
			e.Stats.WindowBatches.Load(), e.Stats.WindowFlushes.Load())
	}
}

// TestWindowMergesConcurrentParticipants: two participants submitting
// batches over the same columns get their own correct answers from one
// merged flush, and the overlap is counted as shared passes.
func TestWindowMergesConcurrentParticipants(t *testing.T) {
	d := nflDB(t)
	qa := windowQueries()
	qb := []Query{
		{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "4"}}},
		{Agg: Count, Preds: []Predicate{{Col: ref("category"), Value: "gambling"}}},
	}
	base := NewEngine(d)
	wantA := base.EvaluateBatch(context.Background(), qa, BatchOptions{})
	wantB := base.EvaluateBatch(context.Background(), qb, BatchOptions{})

	e := NewEngine(d)
	w := NewWindow(e, &e.Stats, WindowConfig{})
	var wg sync.WaitGroup
	var gotA, gotB []float64
	w.Join()
	w.Join()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer w.Leave()
		gotA = w.EvaluateBatch(pinnedCtx(d), qa, BatchOptions{})
	}()
	go func() {
		defer wg.Done()
		defer w.Leave()
		gotB = w.EvaluateBatch(pinnedCtx(d), qb, BatchOptions{})
	}()
	wg.Wait()

	for i := range wantA {
		if gotA[i] != wantA[i] && !(math.IsNaN(gotA[i]) && math.IsNaN(wantA[i])) {
			t.Errorf("A q%d = %v, want %v", i, gotA[i], wantA[i])
		}
	}
	for i := range wantB {
		if gotB[i] != wantB[i] && !(math.IsNaN(gotB[i]) && math.IsNaN(wantB[i])) {
			t.Errorf("B q%d = %v, want %v", i, gotB[i], wantB[i])
		}
	}
	if e.Stats.SharedPasses.Load() == 0 {
		t.Error("no shared passes counted for overlapping concurrent batches")
	}
}

// TestWindowTimerFlushesPartialWindow: a parked batch whose co-traveller
// never submits is answered after the flush deadline instead of hanging.
func TestWindowTimerFlushesPartialWindow(t *testing.T) {
	d := nflDB(t)
	want := NewEngine(d).EvaluateBatch(context.Background(), windowQueries(), BatchOptions{})

	e := NewEngine(d)
	w := NewWindow(e, &e.Stats, WindowConfig{FlushDelay: 2 * time.Millisecond})
	w.Join()
	w.Join() // second participant parks nothing
	defer w.Leave()
	defer w.Leave()

	start := time.Now()
	got := w.EvaluateBatch(pinnedCtx(d), windowQueries(), BatchOptions{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("flush took %v", elapsed)
	}
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Errorf("q%d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestWindowGroupsBySnapshotVersion: participants pinned before and after
// an append must not share passes — each version group flushes its own
// merged execution and reads its own snapshot's rows.
func TestWindowGroupsBySnapshotVersion(t *testing.T) {
	d := nflDB(t)
	old := d.Snapshot()
	if err := d.Append("nflsuspensions",
		[]any{"New Player", "SEA", "indef", "gambling", 2016.0, 10.0}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	fresh := d.Snapshot()
	if old.Version() == fresh.Version() {
		t.Fatal("commit did not advance the version")
	}

	e := NewEngine(d)
	w := NewWindow(e, &e.Stats, WindowConfig{})
	q := []Query{{Agg: Count, Preds: []Predicate{{Col: ref("games"), Value: "indef"}}}}

	var wg sync.WaitGroup
	var gotOld, gotNew []float64
	w.Join()
	w.Join()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer w.Leave()
		gotOld = w.EvaluateBatch(WithSnapshot(context.Background(), old), q, BatchOptions{})
	}()
	go func() {
		defer wg.Done()
		defer w.Leave()
		gotNew = w.EvaluateBatch(WithSnapshot(context.Background(), fresh), q, BatchOptions{})
	}()
	wg.Wait()

	if gotOld[0] != 4 {
		t.Errorf("old snapshot count = %v, want 4", gotOld[0])
	}
	if gotNew[0] != 5 {
		t.Errorf("fresh snapshot count = %v, want 5", gotNew[0])
	}
}

// TestWindowRunsUnpinnedBatchesDirectly: a batch whose context pins no
// snapshot names no rows it could share, so it is answered at once by the
// wrapped runner — it neither parks (the second participant never submits
// and the flush delay is a minute) nor counts as a window batch.
func TestWindowRunsUnpinnedBatchesDirectly(t *testing.T) {
	d := nflDB(t)
	want := NewEngine(d).EvaluateBatch(context.Background(), windowQueries(), BatchOptions{})

	e := NewEngine(d)
	w := NewWindow(e, &e.Stats, WindowConfig{FlushDelay: time.Minute})
	w.Join()
	w.Join()
	defer w.Leave()
	defer w.Leave()
	got := w.EvaluateBatch(context.Background(), windowQueries(), BatchOptions{})
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Errorf("q%d = %v, want %v", i, got[i], want[i])
		}
	}
	if n := e.Stats.WindowBatches.Load() + e.Stats.WindowFlushes.Load(); n != 0 {
		t.Errorf("unpinned batch counted %d window batches+flushes, want 0", n)
	}
}

// TestWindowCancelledMemberGetsNaN: a member whose context dies before the
// flush reads NaN for every slot, and surviving members still get real
// answers.
func TestWindowCancelledMemberGetsNaN(t *testing.T) {
	d := nflDB(t)
	e := NewEngine(d)
	w := NewWindow(e, &e.Stats, WindowConfig{FlushDelay: time.Minute})
	q := windowQueries()

	cancelled, cancel := context.WithCancel(pinnedCtx(d))
	cancel()

	// Two participants, long flush delay: the dead member parks first and
	// unblocks on its own cancellation (no flush has run yet, so the NaN
	// path is deterministic); the live member's submission then completes
	// the window and flushes both batches inline.
	w.Join()
	w.Join()
	defer w.Leave()
	defer w.Leave()
	gotDead := w.EvaluateBatch(cancelled, q, BatchOptions{})
	gotLive := w.EvaluateBatch(pinnedCtx(d), q, BatchOptions{})

	for i, v := range gotDead {
		if !math.IsNaN(v) {
			t.Errorf("cancelled member q%d = %v, want NaN", i, v)
		}
	}
	if math.IsNaN(gotLive[0]) || gotLive[0] != 4 {
		t.Errorf("live member q0 = %v, want 4", gotLive[0])
	}
}
