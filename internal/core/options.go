package core

import (
	"time"

	"aggchecker/internal/model"
	"aggchecker/internal/sqlexec"
)

// CheckOption customizes one Check or Stream call. Options are applied to a
// copy of the checker's Config, so they never mutate shared state and two
// concurrent requests can use different worker caps, top-k, or deadlines
// against the same Checker.
type CheckOption func(*checkSettings)

// checkSettings is the resolved per-request configuration.
type checkSettings struct {
	cfg      Config
	deadline time.Duration
	observer model.Observer
	// window, when non-nil, pools this request's claim batches with those of
	// the other documents Audit is checking concurrently.
	window *sqlexec.Window
}

func newCheckSettings(base Config, opts []CheckOption) checkSettings {
	set := checkSettings{cfg: base}
	for _, o := range opts {
		if o != nil {
			o(&set)
		}
	}
	return set
}

// WithWorkers caps, for this request, how many cube passes and direct
// scans of one claim batch run at once on the engine's scheduler; n ≤ 0
// leaves the pool width as the only bound.
func WithWorkers(n int) CheckOption {
	return func(s *checkSettings) { s.cfg.Workers = n }
}

// WithDeadline bounds the request's wall-clock time: the check is cancelled
// with context.DeadlineExceeded once d elapses. d ≤ 0 means no deadline.
func WithDeadline(d time.Duration) CheckOption {
	return func(s *checkSettings) { s.deadline = d }
}

// WithTopK sets how many ranked query translations are kept per claim (the
// Report ranking and the per-iteration EventClaimUpdate payloads).
func WithTopK(k int) CheckOption {
	return func(s *checkSettings) {
		if k > 0 {
			s.cfg.Model.TopQueries = k
		}
	}
}

// withObserver installs an EM-loop observer; Stream uses it to emit events
// and tests use it to cancel runs mid-EM deterministically.
func withObserver(obs model.Observer) CheckOption {
	return func(s *checkSettings) { s.observer = obs }
}

// withWindow routes the request's claim batches through Audit's planning
// window.
func withWindow(w *sqlexec.Window) CheckOption {
	return func(s *checkSettings) { s.window = w }
}
