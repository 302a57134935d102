package core

import (
	"context"
	"sync"
	"time"

	"aggchecker/internal/document"
	"aggchecker/internal/sqlexec"
)

// This file is the corpus-scale batch auditing mode (ROADMAP item 4): a
// directory or request body of documents streams through one checker with
// cross-document shared-pass planning. Concurrently-checked documents park
// their per-iteration claim batches in a sqlexec.Window, which merges them
// into wider shared cube passes — N documents about the same tables pay
// roughly one document's worth of scans — while the engine's cost-aware
// cube cache carries results across the whole corpus. Verdicts are
// bit-for-bit identical to checking each document in isolation (pinned by
// the differential suite in audit_test.go): a merged pass still answers
// each query from the cell keyed by that query's own predicates, and
// documents pinned to different snapshot versions never share passes.

// AuditDoc is one corpus document submitted to Audit.
type AuditDoc struct {
	// Name identifies the document in the report (a file name, a URL, an
	// index — Audit does not interpret it).
	Name string
	Doc  *document.Document
}

// DocReport is one document's outcome within an audit.
type DocReport struct {
	Name   string
	Report *Report // nil when Err is set
	Err    error
}

// CacheStats is the cube cache's residency and economics snapshot: what is
// resident, what the budget is, and what the cost-aware policy has saved
// and spent over the engine's lifetime.
type CacheStats struct {
	// Entries and Bytes are the resident cube entries and their estimated
	// heap bytes; Budget is the configured byte bound (<= 0: unbounded).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget_bytes,omitempty"`
	// Hits/Misses count cube cache lookups; HitRate is hits/(hits+misses).
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	// NsSaved and BytesSaved accumulate, over every hit, the build time and
	// allocation the hit avoided re-spending — the cache's earnings.
	NsSaved    int64 `json:"ns_saved"`
	BytesSaved int64 `json:"bytes_saved"`
	// Evictions/EvictedBytes count entries dropped by the budget sweep;
	// AdmitRejects the fresh results too large to cache at all.
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	AdmitRejects int64 `json:"admit_rejects"`
}

// cacheStatsOf snapshots an engine's cube-cache economics.
func cacheStatsOf(e *sqlexec.Engine) *CacheStats {
	entries, bytes := e.CacheUsage()
	cs := &CacheStats{
		Entries:      entries,
		Bytes:        bytes,
		Budget:       e.CubeCacheBudget(),
		Hits:         e.Stats.CacheHits.Load(),
		Misses:       e.Stats.CacheMisses.Load(),
		NsSaved:      e.Stats.CubeCacheNsSaved.Load(),
		BytesSaved:   e.Stats.CubeCacheBytesSaved.Load(),
		Evictions:    e.Stats.CubeCacheEvictions.Load(),
		EvictedBytes: e.Stats.CubeCacheEvictedBytes.Load(),
		AdmitRejects: e.Stats.CubeCacheAdmitRejects.Load(),
	}
	if tot := cs.Hits + cs.Misses; tot > 0 {
		cs.HitRate = float64(cs.Hits) / float64(tot)
	}
	return cs
}

// AuditReport aggregates a corpus audit: per-document reports in input
// order plus corpus-level totals and the engine economics of the run.
type AuditReport struct {
	// Docs is index-aligned with the submitted documents.
	Docs []DocReport
	// Checked counts documents that completed; Failed those that returned
	// an error. Claims/Erroneous total the completed documents' claims.
	Checked   int
	Failed    int
	Claims    int
	Erroneous int
	TotalTime time.Duration
	// Stats is the engine counter diff over the whole audit — including
	// window_batches, window_flushes, shared_passes, and the cube-cache
	// economics counters accumulated by the run.
	Stats map[string]int64
	// Cache is the engine's cube-cache state after the audit.
	Cache *CacheStats
}

// SharedPasses returns how many merged cube passes served queries from
// more than one document.
func (r *AuditReport) SharedPasses() int64 { return r.Stats["shared_passes"] }

// CacheHitRate returns the run's cube-cache hit rate (cross-document reuse
// included), or 0 when the run performed no cube lookups.
func (r *AuditReport) CacheHitRate() float64 {
	h, m := r.Stats["cache_hits"], r.Stats["cache_misses"]
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// AuditOption configures one Audit call.
type AuditOption func(*auditSettings)

type auditSettings struct {
	concurrency int
	window      sqlexec.WindowConfig
	onDoc       func(index int, dr DocReport)
	checkOpts   []CheckOption
}

// defaultAuditConcurrency is how many documents are checked concurrently
// when WithAuditConcurrency is not given. Sharing needs concurrency even
// on one core — parked batches from interleaved documents merge into
// shared passes regardless of parallel execution.
const defaultAuditConcurrency = 8

// WithAuditConcurrency bounds how many documents are in flight at once
// (default 8). Higher values widen the planning window's sharing
// opportunities at the price of memory for in-flight EM state.
func WithAuditConcurrency(n int) AuditOption {
	return func(s *auditSettings) { s.concurrency = n }
}

// WithAuditWindow tunes the cross-document planning window (flush
// deadline, max parked batches); zero fields keep the defaults.
func WithAuditWindow(cfg sqlexec.WindowConfig) AuditOption {
	return func(s *auditSettings) { s.window = cfg }
}

// WithAuditProgress installs a per-document completion callback, invoked
// serially (never concurrently) as documents finish — completion order,
// not input order. The CLI and the bulk endpoint stream progress from it.
func WithAuditProgress(fn func(index int, dr DocReport)) AuditOption {
	return func(s *auditSettings) { s.onDoc = fn }
}

// WithAuditCheckOptions forwards per-document check options (deadline,
// top-k, scan tuning) to every member check of the audit.
func WithAuditCheckOptions(opts ...CheckOption) AuditOption {
	return func(s *auditSettings) { s.checkOpts = append(s.checkOpts, opts...) }
}

// Audit checks a corpus of documents against the checker's database with
// cross-document shared-pass planning: documents are checked concurrently,
// their per-iteration claim batches pooled into one planning window and
// merged into shared cube passes over the checker's cached engine — or,
// on a sharded checker, into shared fan-outs over its partition engines.
// Verdicts are bit-for-bit identical to checking each document alone.
//
// The window applies in cached mode (the default); merged and naive
// requests still audit concurrently but keep their per-request engines,
// so there is nothing for their passes to be shared through. Cancellation
// stops feeding new documents and aborts in-flight checks; the report
// covers whatever completed, and ctx.Err() is returned alongside it.
func (c *Checker) Audit(ctx context.Context, docs []AuditDoc, opts ...AuditOption) (*AuditReport, error) {
	var set auditSettings
	for _, o := range opts {
		if o != nil {
			o(&set)
		}
	}
	workers := set.concurrency
	if workers <= 0 {
		workers = defaultAuditConcurrency
	}
	if workers > len(docs) {
		workers = len(docs)
	}

	start := time.Now()
	before := c.Engine.Stats.Snapshot()
	rep := &AuditReport{Docs: make([]DocReport, len(docs))}

	win := sqlexec.NewWindow(c.runner(), &c.Engine.Stats, set.window)
	checkOpts := append([]CheckOption{withWindow(win)}, set.checkOpts...)

	var progressMu sync.Mutex
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				d := docs[i]
				r, err := c.Check(ctx, d.Doc, checkOpts...)
				dr := DocReport{Name: d.Name, Report: r, Err: err}
				rep.Docs[i] = dr
				if set.onDoc != nil {
					progressMu.Lock()
					set.onDoc(i, dr)
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := range docs {
		if ctx.Err() != nil {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i := range rep.Docs {
		dr := &rep.Docs[i]
		if dr.Report == nil && dr.Err == nil {
			// Never fed (cancelled before dispatch).
			dr.Name, dr.Err = docs[i].Name, ctx.Err()
		}
		if dr.Err != nil {
			rep.Failed++
			continue
		}
		rep.Checked++
		rep.Claims += len(dr.Report.Result.Claims)
		rep.Erroneous += len(dr.Report.ErroneousClaims())
	}
	rep.TotalTime = time.Since(start)
	rep.Stats = diffStats(before, c.Engine.Stats.Snapshot())
	rep.Cache = cacheStatsOf(c.Engine)
	return rep, ctx.Err()
}

// Audit checks a corpus against a named database; see Checker.Audit.
func (s *Service) Audit(ctx context.Context, name string, docs []AuditDoc, opts ...AuditOption) (*AuditReport, error) {
	ck, err := s.Checker(ctx, name)
	if err != nil {
		return nil, err
	}
	return ck.Audit(ctx, docs, opts...)
}
