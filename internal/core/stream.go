package core

import (
	"context"
	"time"

	"aggchecker/internal/document"
	"aggchecker/internal/model"
)

// Event is one element of a Stream: progress of an in-flight verification.
// The concrete types are EventIteration, EventClaimUpdate, and EventDone.
type Event interface {
	// Kind returns the wire name of the event ("iteration",
	// "claim_update", "done").
	Kind() string
}

// EventIteration announces that one EM iteration's expectation step (and,
// unless Final, its prior maximization) completed. It precedes the
// iteration's EventClaimUpdate events.
type EventIteration struct {
	// Iteration is 1-based. Final marks the concluding expectation pass
	// under converged priors; its claim updates equal the final report.
	Iteration int
	Final     bool
	// Delta is the maximum prior movement of the maximization step
	// (0 when priors are disabled or Final).
	Delta float64
	// EvaluatedQueries is the running count of the document's distinct
	// candidate queries evaluated so far; each is evaluated once per check.
	EvaluatedQueries int
	// Claims is the number of claim updates that follow.
	Claims int
}

func (EventIteration) Kind() string { return "iteration" }

// EventClaimUpdate carries one claim's refined verdict after an EM
// iteration: its current top-k query ranking and correctness confidence.
// Watching these events across iterations shows per-claim probabilities
// converge, which is what the paper's interactive interface visualizes.
type EventClaimUpdate struct {
	Iteration int
	// ClaimIndex is the claim's position in Document.Claims.
	ClaimIndex int
	Claim      *document.Claim
	// Result is the claim's current verdict snapshot; Result.Ranked is the
	// top-k ranking under the iteration's priors and evaluation results.
	Result model.ClaimResult
}

func (EventClaimUpdate) Kind() string { return "claim_update" }

// EventDone terminates every stream: either the final Report or the error
// that ended the run (ctx.Err() after cancellation). It is the last event
// before the channel closes.
type EventDone struct {
	Report *Report
	Err    error
}

func (EventDone) Kind() string { return "done" }

// Stream runs the verification pipeline like Check but emits typed events
// after every EM iteration: one EventIteration, one EventClaimUpdate per
// claim, and a concluding EventDone. The events come from an observer hook
// inside the EM loop — the streamed claim snapshots are the same states a
// blocking Check would pass through, not a parallel code path.
//
// The returned channel is unbuffered and always closed after EventDone, so
// `for ev := range events` terminates. Event delivery applies back-pressure
// to the EM loop; a consumer that stops reading must cancel ctx, which both
// unblocks delivery and aborts the run (EventDone then carries ctx.Err()).
func (c *Checker) Stream(ctx context.Context, doc *document.Document, opts ...CheckOption) (<-chan Event, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	set := newCheckSettings(c.Config, opts)
	// Apply WithDeadline here rather than inside check: emit selects on
	// this ctx, so the deadline must also unblock a stalled delivery or
	// the EM goroutine could outlive the request.
	cancel := context.CancelFunc(func() {})
	if set.deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, set.deadline)
		set.deadline = 0
	}
	ch := make(chan Event)
	// emit delivers one event unless the consumer is gone; cancellation
	// also makes the EM loop exit at its next ctx check, so a false return
	// only needs to stop further sends.
	emit := func(ev Event) bool {
		select {
		case ch <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	prev := set.observer
	set.observer = func(u model.IterationUpdate) {
		if prev != nil {
			prev(u)
		}
		if !emit(EventIteration{
			Iteration:        u.Iteration,
			Final:            u.Final,
			Delta:            u.Delta,
			EvaluatedQueries: u.EvaluatedQueries,
			Claims:           len(u.Claims),
		}) {
			return
		}
		for i := range u.Claims {
			if !emit(EventClaimUpdate{
				Iteration:  u.Iteration,
				ClaimIndex: i,
				Claim:      doc.Claims[i],
				Result:     u.Claims[i],
			}) {
				return
			}
		}
	}
	go func() {
		defer close(ch)
		defer cancel()
		rep, err := c.check(ctx, doc, set)
		done := EventDone{Report: rep, Err: err}
		// The terminal event must reach a consumer that is still reading
		// even after cancellation — when both the send and ctx.Done() are
		// ready, select picks randomly, so a plain emit would drop the
		// done event about half the time. Prefer the send, then give a
		// reading-but-slow consumer a grace window. The window bounds how
		// long an abandoned stream pins this goroutine; a consumer stalled
		// past it forfeits EventDone (any finite grace has that edge — the
		// alternative is leaking the goroutine forever).
		select {
		case ch <- done:
			return
		case <-ctx.Done():
			select {
			case ch <- done:
			case <-time.After(time.Second):
			}
		}
	}()
	return ch, nil
}
