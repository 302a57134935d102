package model

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"aggchecker/internal/sqlexec"
)

// cancellingEval cancels the run from inside the first claim batch, the
// way a caller-side cancellation lands while the evaluator is mid-flight.
type cancellingEval struct {
	inner  naiveEval
	cancel context.CancelFunc
}

func (cancellingEval) SetPool(map[string][]string) {}

func (c cancellingEval) EvaluateBatch(ctx context.Context, qs []sqlexec.Query) []float64 {
	c.cancel()
	out := make([]float64, len(qs))
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

// TestRunCancelledMidBatch asserts the EM loop notices cancellation right
// after a claim batch and returns ctx.Err() instead of a partial result.
func TestRunCancelledMidBatch(t *testing.T) {
	cat, doc, scores, eng := nflSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev := cancellingEval{inner: naiveEval{eng}, cancel: cancel}

	start := time.Now()
	res, err := Run(ctx, cat, doc, scores, ev, testConfig(), nil)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancelled Run took %s", elapsed)
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	cat, doc, scores, eng := nflSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, cat, doc, scores, naiveEval{eng}, testConfig(), nil)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// TestRunObserverSeesEveryIteration checks the observer contract: one
// update per EM iteration plus the final pass, claims always index-aligned
// with the document, and the final update flagged Final with claim results
// equal to the returned ones.
func TestRunObserverSeesEveryIteration(t *testing.T) {
	cat, doc, scores, eng := nflSetup(t)
	cfg := testConfig()
	cfg.MaxEMIters = 3
	cfg.ConvergeEps = 0 // never break early

	var updates []IterationUpdate
	res, err := Run(context.Background(), cat, doc, scores, naiveEval{eng}, cfg, func(u IterationUpdate) {
		updates = append(updates, u)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != cfg.MaxEMIters+1 {
		t.Fatalf("observer updates = %d, want %d (iterations + final)", len(updates), cfg.MaxEMIters+1)
	}
	for i, u := range updates {
		if len(u.Claims) != len(doc.Claims) {
			t.Fatalf("update %d: %d claims, want %d", i, len(u.Claims), len(doc.Claims))
		}
		wantFinal := i == len(updates)-1
		if u.Final != wantFinal {
			t.Errorf("update %d: Final = %v, want %v", i, u.Final, wantFinal)
		}
	}
	final := updates[len(updates)-1]
	for i := range final.Claims {
		if final.Claims[i].Erroneous != res.Claims[i].Erroneous ||
			final.Claims[i].PCorrect != res.Claims[i].PCorrect {
			t.Errorf("final update claim %d differs from returned result", i)
		}
	}
}
