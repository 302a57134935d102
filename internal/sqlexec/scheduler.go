package sqlexec

import (
	"context"
	"runtime"
	"sync"

	"aggchecker/internal/db"
)

// This file implements the scheduler, the one worker pool of a check. Three
// kinds of job run on it: the EM loop's per-claim phases (one task per
// claim, submitted by evaluate.CubeEvaluator.Parallel without stats, so the
// task counters below count execution-layer tasks only), a batch's cube
// passes and direct scans (EvaluateBatch submits them as one job), and the
// zone-aligned row-range morsels a large pass or scan splits into (small
// enough that a heavy pass yields frequently, large enough that per-morsel
// accumulator state stays amortized). Scheduling is morsel-driven in the
// HyPer sense: workers pull the next task from a per-request fair queue, so
// fifty light checks are never starved behind one heavy document.
//
// Two structural decisions carry the correctness story:
//
//   - Owner participation. The goroutine that submits a job always executes
//     its own job's tasks; the pool's helper goroutines (workers-1 of them)
//     assist whichever job round-robin points at. A scheduler of width 1
//     therefore has no helpers at all and degenerates to exactly the
//     single-threaded scan, and a light request always makes progress at its
//     submitter's own pace even when every helper is busy — the fairness
//     floor does not depend on queue position. It also makes nesting safe: a
//     batch task that splits its pass owns the nested morsel job and can
//     always finish it alone, so no job ever waits for a free helper.
//     Model tasks never block and never submit a job, so they cannot
//     deadlock either.
//
//   - Deterministic merging. The scheduler never merges anything: callers
//     decompose into a fixed morsel list (a pure function of the row range
//     and zone spans) and merge partials in morsel-index order after Run
//     returns. Results are therefore independent of worker count and
//     interleaving; for integer-valued data they are bit-for-bit identical
//     to the single-threaded scan (float sums regroup at morsel
//     boundaries, where addition is not associative).

// Scheduler is a shared worker pool. One Scheduler serves every engine of a
// process (daemons install one sized by -scan-workers; engines built
// without WithScheduler share the process-wide default); it is safe for
// concurrent use and Run may be called from many goroutines at once.
type Scheduler struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*schedJob
	rr     int // round-robin cursor into jobs
	idle   int // helpers parked in cond.Wait
	closed bool
	wg     sync.WaitGroup
}

// schedJob is one submitted morsel batch. next/active/err are guarded by
// the scheduler mutex; run is immutable after submission.
type schedJob struct {
	ctx     context.Context
	stats   *Stats
	run     func(i int) error
	n       int // total morsels
	next    int // next morsel index to hand out
	active  int // morsels currently executing
	maxConc int // cap on concurrently executing morsels (<=0: pool width)
	err     error
	aborted bool // stop handing out morsels (error or ctx cancelled)
	done    bool // fully drained; finished closed
	finish  chan struct{}
}

// NewScheduler creates a shared pool of the given width. workers <= 0 uses
// runtime.GOMAXPROCS(0). Width counts the submitting goroutines: a pool of
// width w starts w-1 helper goroutines, so NewScheduler(1) runs every job
// inline on its submitter and a daemon on an n-core box wants width n, not
// n+1. Close releases the helpers.
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{workers: workers}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers-1; i++ {
		s.wg.Add(1)
		go s.helperLoop()
	}
	return s
}

// defaultScheduler is the pool of every engine built without WithScheduler:
// GOMAXPROCS wide, created on first use and never closed.
var defaultScheduler = sync.OnceValue(func() *Scheduler { return NewScheduler(0) })

// Workers returns the pool width (helpers + one submitter slot).
func (s *Scheduler) Workers() int { return s.workers }

// Close stops the helper goroutines and waits for them to exit. Jobs
// in flight finish on their submitters (owner participation); jobs
// submitted after Close run entirely inline. Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Run executes tasks 0..n-1 (a scan's morsels, or a batch's passes)
// through the pool and returns after all of them finished or were skipped.
// The submitting goroutine participates, executing its own job's tasks;
// idle helpers steal tasks concurrently, at most maxConc at a time per job
// (<=0: no per-job cap beyond the pool width). A task may itself call Run.
// On the first task error or context cancellation the remaining tasks are
// skipped, in-flight ones are waited for, and the first error (or
// ctx.Err()) is returned. stats, when non-nil, attributes the task counters
// (morsels_dispatched, steal_count, queue_waits) to the submitting engine.
func (s *Scheduler) Run(ctx context.Context, stats *Stats, n int, maxConc int, run func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	job := &schedJob{ctx: ctx, stats: stats, run: run, n: n, maxConc: maxConc, finish: make(chan struct{})}

	s.mu.Lock()
	if !s.closed && s.workers > 1 && n > 1 {
		// A single task is never published: its owner takes it at once.
		// A submission that finds no idle helper queues behind the jobs
		// already draining the pool (it still progresses via its owner).
		if s.idle == 0 && stats != nil {
			stats.QueueWaits.Add(1)
		}
		s.jobs = append(s.jobs, job)
		s.cond.Broadcast()
	}
	// Owner participation: chew through this job's own morsels. With the
	// pool closed or width 1 the job was never published and this loop is
	// the entire (single-threaded) execution.
	for {
		for job.maxConc > 0 && job.active >= job.maxConc && !job.aborted && job.next < job.n {
			// Helpers saturated the per-job cap; wait for a completion.
			s.cond.Wait()
		}
		if job.aborted || job.next >= job.n {
			break
		}
		i := job.next
		job.next++
		job.active++
		s.mu.Unlock()
		s.exec(job, i, false)
		s.mu.Lock()
	}
	s.unpublish(job)
	s.mu.Unlock()

	// Helpers may still be executing stolen morsels; their completions
	// close finish once the job is drained.
	<-job.finish
	if job.err != nil {
		return job.err
	}
	return ctx.Err()
}

// helperLoop is one shared pool worker: pick a morsel fairly, execute it,
// repeat.
func (s *Scheduler) helperLoop() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return
		}
		job, i := s.pickLocked()
		if job == nil {
			s.idle++
			s.cond.Wait()
			s.idle--
			continue
		}
		s.mu.Unlock()
		s.exec(job, i, true)
		s.mu.Lock()
	}
}

// pickLocked selects the next morsel round-robin across active jobs — one
// morsel per pick, so every waiting request advances before any request
// gets a second helper slot. Returns nil when no job has a dispatchable
// morsel. Callers hold s.mu; active is incremented under the same lock.
func (s *Scheduler) pickLocked() (*schedJob, int) {
	nj := len(s.jobs)
	for k := 0; k < nj; k++ {
		j := s.jobs[(s.rr+k)%nj]
		if j.aborted || j.next >= j.n {
			continue
		}
		if j.maxConc > 0 && j.active >= j.maxConc {
			continue
		}
		s.rr = (s.rr + k + 1) % nj
		i := j.next
		j.next++
		j.active++
		return j, i
	}
	return nil, 0
}

// exec runs one morsel and settles the job's bookkeeping. stolen marks
// execution by a shared helper rather than the job's owner.
func (s *Scheduler) exec(job *schedJob, i int, stolen bool) {
	var err error
	if err = job.ctx.Err(); err == nil {
		err = job.run(i)
	}
	if job.stats != nil {
		job.stats.MorselsDispatched.Add(1)
		if stolen {
			job.stats.StealCount.Add(1)
		}
	}
	s.mu.Lock()
	job.active--
	if err != nil {
		if job.err == nil {
			job.err = err
		}
		job.aborted = true
	}
	s.settleLocked(job)
	// Wake owners throttled on the per-job cap (and helpers waiting for
	// work to reappear behind it). Anyone waiting implies a published job.
	if len(s.jobs) > 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// settleLocked closes the job's finish channel once no morsel will ever be
// dispatched again and none is executing. Both conditions are monotone, so
// the close happens exactly once.
func (s *Scheduler) settleLocked(job *schedJob) {
	if !job.done && job.active == 0 && (job.aborted || job.next >= job.n) {
		job.done = true
		close(job.finish)
	}
}

// unpublish removes a job from the fair queue (its owner is done
// dispatching; stolen morsels already handed out keep running). Callers
// hold s.mu.
func (s *Scheduler) unpublish(job *schedJob) {
	for k, j := range s.jobs {
		if j == job {
			s.jobs = append(s.jobs[:k], s.jobs[k+1:]...)
			if s.rr > k {
				s.rr--
			}
			if len(s.jobs) > 0 {
				s.rr %= len(s.jobs)
			} else {
				s.rr = 0
			}
			break
		}
	}
	s.settleLocked(job)
}

// morselTargetRows is the preferred morsel size: a few kernel blocks, so a
// heavy pass yields to the fair queue often while per-morsel accumulator
// state stays amortized over thousands of rows.
const morselTargetRows = 2 * kernelBlockRows

// minMorselsPerJob keeps enough morsels in flight to load-balance the pool
// even for jobs barely past the parallelism threshold.
const minMorselsPerJob = 8

// rowRange is one morsel's row interval [lo, hi).
type rowRange struct{ lo, hi int }

// morselRanges decomposes joined rows [lo, hi) into zone-aligned morsels:
// contiguous runs of scan segments (never splitting one) of about
// morselTargetRows rows, capped so a job never holds more than
// max(2*workers, minMorselsPerJob) partials alive at once. The
// decomposition is a pure function of its inputs — the same range always
// splits the same way, which is what makes merged results deterministic
// across worker counts and interleavings.
func morselRanges(spans []db.ZoneSpan, lo, hi, workers int) []rowRange {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	maxMorsels := 2 * workers
	if maxMorsels < minMorselsPerJob {
		maxMorsels = minMorselsPerJob
	}
	target := morselTargetRows
	if t := (n + maxMorsels - 1) / maxMorsels; t > target {
		target = t
	}
	segs := segmentsOf(spans, lo, hi)
	out := make([]rowRange, 0, (n+target-1)/target)
	curLo, curN := -1, 0
	for _, sg := range segs {
		if curLo < 0 {
			curLo = sg.start
		}
		curN += sg.n
		if curN >= target {
			out = append(out, rowRange{curLo, sg.start + sg.n})
			curLo, curN = -1, 0
		}
	}
	if curLo >= 0 {
		out = append(out, rowRange{curLo, hi})
	}
	return out
}

// scanMorsels scans rows [lo, hi) with scan and returns the partials in
// range order: one range scanned inline, or — when sched is wider than one
// worker and the range holds at least kernelParallelMinRows rows —
// zone-aligned morsels run on sched, at most its width in flight. A nil
// sched always scans one range.
func scanMorsels[P any](ctx context.Context, sched *Scheduler, stats *Stats, spans []db.ZoneSpan, lo, hi int, scan func(lo, hi int) (P, error)) ([]P, error) {
	ranges := []rowRange{{lo, hi}}
	if sched != nil && sched.Workers() > 1 && hi-lo >= kernelParallelMinRows {
		ranges = morselRanges(spans, lo, hi, sched.Workers())
	}
	parts := make([]P, len(ranges))
	if len(ranges) == 1 {
		var err error
		parts[0], err = scan(lo, hi)
		return parts, err
	}
	err := sched.Run(ctx, stats, len(ranges), sched.Workers(), func(i int) (err error) {
		parts[i], err = scan(ranges[i].lo, ranges[i].hi)
		return err
	})
	return parts, err
}
