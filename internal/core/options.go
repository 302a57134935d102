package core

import (
	"time"

	"aggchecker/internal/model"
	"aggchecker/internal/sqlexec"
)

// CheckOption customizes one Check or Stream call. Options are applied to a
// copy of the checker's Config, so they never mutate shared state and two
// concurrent requests can use different modes, budgets, or deadlines
// against the same Checker.
type CheckOption func(*checkSettings)

// checkSettings is the resolved per-request configuration.
type checkSettings struct {
	cfg      Config
	deadline time.Duration
	observer model.Observer
	// exec carries per-request engine overrides (scan workers, zone maps)
	// into the request context via sqlexec.ContextWithOptions.
	exec []sqlexec.ExecOption
	// window, when non-nil, pools this request's claim batches with those of
	// the other documents Audit is checking concurrently (cached mode only:
	// merged and naive isolate per-request engines on purpose).
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

// WithMode selects the candidate evaluation strategy for this request only
// (Table 6 rows: EvalCached, EvalMerged, EvalNaive).
func WithMode(m EvalMode) CheckOption {
	return func(s *checkSettings) { s.cfg.Mode = m }
}

// WithWorkers bounds the engine-side worker pool for this request; n ≤ 0
// uses GOMAXPROCS.
func WithWorkers(n int) CheckOption {
	return func(s *checkSettings) { s.cfg.Workers = n }
}

// WithScanWorkers bounds, for this request only, how many workers any one
// of its cube passes or direct scans may occupy at once on the engine's
// scheduler (or private pool); n ≤ 0 restores the engine default. The
// shared engine is not retuned — the bound rides the request context.
func WithScanWorkers(n int) CheckOption {
	return func(s *checkSettings) { s.exec = append(s.exec, sqlexec.WithScanWorkers(n)) }
}

// WithZoneMaps toggles zone-map pruning for this request only. Results are
// identical either way; pruning off is an operational escape hatch.
func WithZoneMaps(on bool) CheckOption {
	return func(s *checkSettings) { s.exec = append(s.exec, sqlexec.WithZoneMaps(on)) }
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
