package sqlexec

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// BatchRunner executes claim batches positionally: *Engine directly, and
// Window by pooling the batches of concurrently-checked documents onto the
// runner it wraps.
type BatchRunner interface {
	EvaluateBatch(ctx context.Context, queries []Query, opts BatchOptions) []float64
}

// Window pools EvaluateBatch submissions from concurrently-checked
// documents into one planning window, so N documents about the same tables
// pay roughly one document's worth of cube passes. Each participant
// registers with Join/Leave; its per-iteration claim batches then park in
// the window instead of executing immediately. A window flushes — merging
// every parked batch into one EvaluateBatch on the runner it wraps — when
// all active participants have a batch parked, when the parked count
// reaches windowMaxPending, or when the flush deadline expires
// (participants whose EM phase runs long never stall the others for more
// than windowFlushDelay).
//
// Batches are grouped by the snapshot version their context pins, and each
// group flushes as its own merged execution under a context that inherits
// that pin: documents pinned before and after an append must not share
// passes, or their answers would not match isolated checks. A batch whose context pins nothing names no rows to share, so it
// is not pooled: it runs on the wrapped runner at once, as if there were no
// window. Within a group, merging is answer-preserving by construction —
// the planner unions literal pools and dimension sets, and a cube answers
// each query from the cell keyed by that query's own predicates, so
// widening a pass with another document's literals or dimensions never
// changes a covered query's value. The window additionally accumulates a
// corpus-lifetime literal pool: merged literal sets converge as the corpus
// streams through, keeping cube shapes stable so later documents hit the
// cache instead of forcing recomputes.
type Window struct {
	runner BatchRunner
	stats  *Stats
	// flushDelay is windowFlushDelay; tests shorten or lengthen it.
	flushDelay time.Duration

	mu      sync.Mutex
	active  int // participants between Join and Leave
	waiting int // batches parked across all groups
	groups  map[string]*windowGroup
	timer   *time.Timer

	pool LiteralPool // corpus-lifetime
}

const (
	// windowMaxPending flushes the window once this many batches are
	// parked, whatever the participant count.
	windowMaxPending = 64
	// windowFlushDelay bounds how long a parked batch waits for
	// co-travellers before a partial window flushes anyway.
	windowFlushDelay = 10 * time.Millisecond
)

type windowGroup struct {
	pins string // pinnedVersion of every member context
	reqs []*windowReq
}

type windowReq struct {
	ctx     context.Context
	queries []Query
	opts    BatchOptions
	done    chan []float64 // buffered: the flusher never blocks on a member
}

// NewWindow creates a planning window whose merged executions run on r;
// stats receives the window counters (batches, flushes, shared passes).
func NewWindow(r BatchRunner, stats *Stats) *Window {
	return &Window{
		runner:     r,
		stats:      stats,
		flushDelay: windowFlushDelay,
		groups:     make(map[string]*windowGroup),
	}
}

// Join registers one participant (a document check). Every participant
// must Leave when its check ends, or parked batches from the others wait
// out the flush deadline each iteration.
func (w *Window) Join() {
	w.mu.Lock()
	w.active++
	w.mu.Unlock()
}

// Leave deregisters a participant and flushes the window if everyone still
// active is already parked (the leaver was the batch the window was
// waiting for).
func (w *Window) Leave() {
	w.mu.Lock()
	if w.active > 0 {
		w.active--
	}
	var groups []*windowGroup
	if w.waiting > 0 && w.waiting >= w.active {
		groups = w.takeLocked()
	}
	w.mu.Unlock()
	w.flushGroups(groups)
}

// EvaluateBatch parks the batch in the window and blocks until a flush
// answers it (positionally, like Engine.EvaluateBatch); ctx must pin the
// snapshot the batch reads (WithSnapshot) to be pooled. When ctx is
// cancelled before the flush delivers, every slot reads NaN — the same
// contract a cancelled Engine.EvaluateBatch honors.
func (w *Window) EvaluateBatch(ctx context.Context, queries []Query, opts BatchOptions) []float64 {
	if len(queries) == 0 {
		return nil
	}
	pins := pinnedVersion(ctx)
	if pins == "" {
		return w.runner.EvaluateBatch(ctx, queries, opts)
	}
	w.stats.WindowBatches.Add(1)
	w.pool.Add(opts.Pool)

	r := &windowReq{ctx: ctx, queries: queries, opts: opts, done: make(chan []float64, 1)}

	w.mu.Lock()
	g := w.groups[pins]
	if g == nil {
		g = &windowGroup{pins: pins}
		w.groups[pins] = g
	}
	g.reqs = append(g.reqs, r)
	w.waiting++
	var toFlush []*windowGroup
	if w.waiting >= w.active || w.waiting >= windowMaxPending {
		toFlush = w.takeLocked()
	} else if w.timer == nil {
		w.timer = time.AfterFunc(w.flushDelay, w.timerFlush)
	}
	w.mu.Unlock()

	w.flushGroups(toFlush)

	select {
	case vals := <-r.done:
		return vals
	case <-ctx.Done():
		out := make([]float64, len(queries))
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
}

func (w *Window) timerFlush() {
	w.mu.Lock()
	w.timer = nil
	groups := w.takeLocked()
	w.mu.Unlock()
	w.flushGroups(groups)
}

// takeLocked detaches every parked group for flushing. Callers hold w.mu.
func (w *Window) takeLocked() []*windowGroup {
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	if w.waiting == 0 {
		return nil
	}
	out := make([]*windowGroup, 0, len(w.groups))
	for _, g := range w.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].pins < out[b].pins })
	w.groups = make(map[string]*windowGroup)
	w.waiting = 0
	return out
}

func (w *Window) flushGroups(groups []*windowGroup) {
	for _, g := range groups {
		w.flushGroup(g)
	}
}

// flushGroup merges one snapshot-version group's batches into a single
// EvaluateBatch and slices the results back to the members. It runs on the
// goroutine that triggered the flush (the last submitter, a leaver, or the
// deadline timer).
func (w *Window) flushGroup(g *windowGroup) {
	if g == nil || len(g.reqs) == 0 {
		return
	}
	w.stats.WindowFlushes.Add(1)

	all := make([]Query, 0, 64)
	offs := make([]int, len(g.reqs)+1)
	workers := 0
	for i, r := range g.reqs {
		offs[i] = len(all)
		all = append(all, r.queries...)
		if r.opts.Workers > workers {
			workers = r.opts.Workers
		}
	}
	offs[len(g.reqs)] = len(all)

	// Execute under a member's context stripped of its cancellation: the
	// group shares its pinned snapshot by construction.
	// The merged run is cancelled only when EVERY member context is done:
	// one cancelled document must not trash the answers the other members
	// are waiting on. The watcher goroutine is released through stop when
	// the flush finishes first (member contexts that are never cancelled
	// must not leak it).
	mctx, cancel := context.WithCancel(context.WithoutCancel(g.reqs[0].ctx))
	stop := make(chan struct{})
	go func() {
		for _, r := range g.reqs {
			select {
			case <-r.ctx.Done():
			case <-stop:
				return
			}
		}
		cancel()
	}()
	opts := BatchOptions{Pool: w.pool.For(all), Workers: workers}
	if len(g.reqs) > 1 {
		opts.observe = func(plan *BatchPlan, slot []int) {
			w.stats.SharedPasses.Add(sharedPasses(plan, slot, offs))
		}
	}
	vals := w.runner.EvaluateBatch(mctx, all, opts)
	close(stop)
	cancel()
	for i, r := range g.reqs {
		r.done <- vals[offs[i]:offs[i+1]]
	}
}

// sharedPasses counts the cube passes of an executed plan that serve
// queries from more than one member — the economics the audit report
// surfaces. slot maps each merged-batch query to the deduplicated query the
// plan indexes; offs holds the members' batch boundaries. A query submitted
// identically by two members counts its pass as shared too: after
// deduplication one pass answers both documents.
func sharedPasses(plan *BatchPlan, slot, offs []int) int64 {
	const unowned, several = -1, -2
	owner := make([]int, len(slot)) // deduplicated query -> submitting member
	for i := range owner {
		owner[i] = unowned
	}
	m := 0
	for i, j := range slot {
		for i >= offs[m+1] {
			m++
		}
		if owner[j] == unowned {
			owner[j] = m
		} else if owner[j] != m {
			owner[j] = several
		}
	}
	var n int64
	for _, p := range plan.Cubes {
		first := owner[p.QueryIdx[0]]
		for _, qi := range p.QueryIdx {
			if owner[qi] != first || first == several {
				n++
				break
			}
		}
	}
	return n
}
