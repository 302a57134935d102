package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"aggchecker/internal/corpus"
	"aggchecker/internal/document"
	"aggchecker/internal/model"
)

// slowCfg forces every EM iteration to run (no convergence break) so tests
// can cancel deterministically mid-run.
func slowCfg() Config {
	cfg := quickCfg()
	cfg.Model.MaxEMIters = 4
	cfg.Model.ConvergeEps = 0
	return cfg
}

// requireGoroutines waits for the goroutine count to return to the
// baseline, failing the test if streaming leaked workers.
func requireGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCheckCancelledBeforeStart(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, quickCfg())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := checker.Check(ctx, tc.Doc)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Check = (%v, %v), want (nil, context.Canceled)", rep, err)
	}
}

// TestCheckCancelledMidEM cancels from inside the EM loop (after the first
// iteration's expectation step) and requires Check to return promptly with
// ctx.Err() instead of a report.
func TestCheckCancelledMidEM(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, slowCfg())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	iterations := 0
	start := time.Now()
	rep, err := checker.Check(ctx, tc.Doc, withObserver(func(u model.IterationUpdate) {
		iterations++
		cancel()
	}))
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Check = (%v, %v), want (nil, context.Canceled)", rep, err)
	}
	if iterations != 1 {
		t.Errorf("observer saw %d iterations after cancellation, want 1", iterations)
	}
	// "Promptly": nothing near the 4-iteration full run; generous bound so
	// race-instrumented CI machines pass.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancelled Check took %s", elapsed)
	}
}

func TestCheckDeadlineOption(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, slowCfg())
	rep, err := checker.Check(context.Background(), tc.Doc, WithDeadline(time.Nanosecond))
	if rep != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Check = (%v, %v), want (nil, DeadlineExceeded)", rep, err)
	}
}

// TestCheckDeadlineBoundsLongDocument pins that WithDeadline holds on a
// document with many claims: keyword matching and the per-claim phases of
// an EM step stop at the deadline instead of running every claim to
// completion first.
func TestCheckDeadlineBoundsLongDocument(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, DefaultConfig())
	doc := document.ParseText(strings.Repeat("There were 4 lifetime bans and 3 suspensions for gambling. ", 250))
	if len(doc.Claims) != 500 {
		t.Fatalf("document has %d claims, want 500", len(doc.Claims))
	}
	start := time.Now()
	rep, err := checker.Check(context.Background(), doc, WithDeadline(200*time.Millisecond))
	elapsed := time.Since(start)
	if rep != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Check = (%v, %v), want (nil, DeadlineExceeded)", rep, err)
	}
	if elapsed > time.Second {
		t.Errorf("Check with a 200ms deadline returned after %v", elapsed)
	}
}

func TestStreamEmitsPerIterationEvents(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, slowCfg())
	baseline := runtime.NumGoroutine()

	events, err := checker.Stream(context.Background(), tc.Doc, WithTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	var iters, updates int
	var done *EventDone
	for ev := range events {
		switch e := ev.(type) {
		case EventIteration:
			iters++
			if e.Claims != len(tc.Doc.Claims) {
				t.Errorf("iteration %d announces %d claims, want %d", e.Iteration, e.Claims, len(tc.Doc.Claims))
			}
		case EventClaimUpdate:
			updates++
			if len(e.Result.Ranked) == 0 {
				t.Errorf("claim %d update has empty ranking", e.ClaimIndex)
			}
			if len(e.Result.Ranked) > 3 {
				t.Errorf("claim %d update has %d ranked queries, want ≤ 3 (WithTopK)", e.ClaimIndex, len(e.Result.Ranked))
			}
		case EventDone:
			d := e
			done = &d
		}
	}
	if done == nil || done.Err != nil || done.Report == nil {
		t.Fatalf("stream did not end with a successful EventDone: %+v", done)
	}
	// slowCfg runs 4 iterations plus the final pass; at least one
	// EventClaimUpdate per claim per iteration is the tentpole guarantee.
	if iters < 2 {
		t.Fatalf("iterations seen = %d, want ≥ 2", iters)
	}
	if want := iters * len(tc.Doc.Claims); updates != want {
		t.Fatalf("claim updates = %d, want %d (%d iterations × %d claims)", updates, want, iters, len(tc.Doc.Claims))
	}
	if got := len(done.Report.Claims()); got != len(tc.Doc.Claims) {
		t.Fatalf("final report claims = %d", got)
	}
	requireGoroutines(t, baseline)
}

// TestStreamConsumerCancels abandons a stream mid-run: the EM loop must
// stop, the channel must terminate, and no goroutine may leak.
func TestStreamConsumerCancels(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, slowCfg())
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	events, err := checker.Stream(ctx, tc.Doc)
	if err != nil {
		t.Fatal(err)
	}
	// Read exactly one event, then walk away.
	if _, ok := <-events; !ok {
		t.Fatal("stream closed before first event")
	}
	cancel()
	// The channel must terminate even though we stopped consuming
	// mid-iteration, and — since we keep draining — the terminal
	// EventDone must still arrive carrying the cancellation.
	var last Event
	for ev := range events {
		last = ev
	}
	d, ok := last.(EventDone)
	if !ok {
		t.Fatalf("last event = %T, want EventDone", last)
	}
	if !errors.Is(d.Err, context.Canceled) {
		t.Fatalf("EventDone.Err = %v, want context.Canceled", d.Err)
	}
	requireGoroutines(t, baseline)
}

// TestStreamUnreadConsumer cancels without draining at all: the stream
// goroutine must still exit (the leak check is the assertion).
func TestStreamUnreadConsumer(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, slowCfg())
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	if _, err := checker.Stream(ctx, tc.Doc); err != nil {
		t.Fatal(err)
	}
	cancel()
	requireGoroutines(t, baseline)
}

// TestStreamDeadlineUnblocksStalledConsumer starts a stream whose consumer
// never reads and never cancels, relying on WithDeadline alone: the
// deadline must unblock event delivery and let the goroutine exit.
func TestStreamDeadlineUnblocksStalledConsumer(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, slowCfg())
	baseline := runtime.NumGoroutine()

	if _, err := checker.Stream(context.Background(), tc.Doc, WithDeadline(50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	requireGoroutines(t, baseline)
}

func TestPerCallStatsAreIndependent(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, quickCfg())
	r1, err := checker.Check(context.Background(), tc.Doc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := checker.Check(context.Background(), tc.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats["batch_queries"] == 0 || r2.Stats["batch_queries"] == 0 {
		t.Fatalf("per-call stats empty: %v / %v", r1.Stats, r2.Stats)
	}
	// The second document reuses the first's cached cubes: its
	// per-call counters must reflect only its own work, not engine life-
	// time totals (the old behavior reported cumulative counters).
	if r2.Stats["cube_passes"] > r1.Stats["cube_passes"] {
		t.Errorf("second check reports more cube passes (%d) than first (%d); stats look cumulative",
			r2.Stats["cube_passes"], r1.Stats["cube_passes"])
	}
	if r2.Stats["batch_queries"] >= 2*r1.Stats["batch_queries"] {
		t.Errorf("second check batch_queries = %d vs first %d; stats look cumulative",
			r2.Stats["batch_queries"], r1.Stats["batch_queries"])
	}
}
