package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
	"aggchecker/internal/document"
	"aggchecker/internal/fragments"
	"aggchecker/internal/metrics"
	"aggchecker/internal/sqlexec"
)

// workloadImpl is how one workload of BENCHMARK.json runs. Every workload
// is a closed loop with one client in one process: the next operation
// starts when the previous one returned.
type workloadImpl struct {
	rows int // rows of the shared fact table
	docs int // generated articles, six claims each, one of them erroneous
	run  func(*run) error
}

const (
	corpusDomain  = "sports"
	claimsPerDoc  = 6
	errorsPerDoc  = 1
	appendRows    = 2000 // rows per refresh cycle
	auditDocs     = 48   // documents of one Checker.Audit call
	isolatedDocs  = 32   // audited documents also checked one by one
	recheckDocs   = 8    // check-cold documents re-checked from the cache they just filled
	replayDocs    = 8    // traced documents whose batches and claims are replayed
	setupReps     = 15   // repetitions of a cheap set-up (NewChecker alone), for a steady median
	refreshDBName = "bench"

	// tmpPattern names the directory refresh-recheck keeps its durable
	// store in while it runs, under the working directory. The driver's
	// contract lets the benchmark write only inside its checkout, which is
	// also a real disk, so the durable publish pays a real fsync; the
	// system temp directory is neither. .gitignore lists the pattern in
	// case a killed run leaves one behind.
	tmpPattern = ".bench_tmp-"
)

// Sizes spend one run (about 20 s of measuring) on as many distinct
// documents as fit, because the seed-to-seed spread is mostly the document
// mix. check-cold and audit-shared share one table just above the 65,536
// rows below which the engine never splits a pass into morsels, so both
// exercise the scheduler. Larger tables were tried and given up: at 120k
// rows a cold check is four fifths scans, but its cost is so bimodal (one
// cube pass or four) that the median of 36 documents hops between the
// modes (15–20% spread across seeds), and an audit's throughput follows
// the seed's cube sizes (22% spread against 7–15% here).
var workloadImpls = map[string]workloadImpl{
	"check-warm-60k":      {rows: 60000, docs: 56, run: func(r *run) error { return r.checkLoop(false) }},
	"check-cold-72k":      {rows: 72000, docs: 52, run: func(r *run) error { return r.checkLoop(true) }},
	"audit-shared-72k":    {rows: 72000, docs: 2 * auditDocs, run: (*run).audit},
	"refresh-recheck-60k": {rows: 60000, docs: 40, run: (*run).refresh},
}

// run is the state of one benchmark run: one workload, one seed, traced or
// not. The program under test only ever receives the generated inputs.
type run struct {
	workload string
	impl     workloadImpl
	spec     *benchmarkSpec
	seed     int64
	seconds  float64
	trace    bool
	ctx      context.Context
	cfg      core.Config
	rec      *recorder // nil on an untraced run

	corpus    *corpus.SharedCorpus
	generateS float64

	attempted int
	failed    int
	problems  []string // correctness-gate violations
	conf      metrics.Confusion

	setup []float64 // seconds per set-up repetition
	lat   []float64 // ms, bytes in → Report out, untraced operations
	fresh []float64 // ms, append + refresh + first re-check

	docs, tracedDocs int           // documents verified by timed operations
	busy, tracedBusy time.Duration // time those operations took
	roundRate        []float64     // documents per second of each untraced round

	counts     map[string]int64 // engine counters summed over untraced timed operations
	totalMs    float64          // Σ Report.TotalTime
	queryMs    float64          // Σ Report.QueryTime
	reports    int
	replay     replayTotals
	emIters    int
	evaluated  int
	tracedRuns int
	values     map[string]float64 // per-layer values a workload sets directly
	allocBytes uint64             // heap allocated during untraced rounds
	gcPauseNs  uint64             // GC pause during untraced rounds
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// generate builds the inputs from the seed and checks that the corpus came
// out at the requested size.
func (r *run) generate() error {
	start := time.Now()
	sc, err := corpus.GenerateSharedCorpusRows(corpusDomain, r.seed, r.impl.docs, claimsPerDoc, errorsPerDoc, r.impl.rows)
	if err != nil {
		return fmt.Errorf("generate corpus: %w", err)
	}
	r.generateS = time.Since(start).Seconds()
	if len(sc.Docs) != r.impl.docs {
		return fmt.Errorf("corpus has %d documents, want %d", len(sc.Docs), r.impl.docs)
	}
	if got := sc.DB.Snapshot().TotalRows(); got != r.impl.rows {
		return fmt.Errorf("corpus has %d rows, want %d", got, r.impl.rows)
	}
	for _, tc := range sc.Docs {
		if len(tc.Truth) != claimsPerDoc {
			return fmt.Errorf("document %s has %d claims, want %d", tc.Name, len(tc.Truth), claimsPerDoc)
		}
	}
	r.corpus = sc
	return nil
}

// newChecker is the per-database preprocessing a user pays before the
// first check; the catalog build inside it is also timed on its own.
func (r *run) newChecker() *core.Checker {
	return core.NewChecker(r.corpus.DB, r.cfg)
}

// setupChecker is newChecker as a whole set-up repetition.
func (r *run) setupChecker() *core.Checker {
	start := time.Now()
	ck := r.newChecker()
	r.setup = append(r.setup, time.Since(start).Seconds())
	return ck
}

func (r *run) timeCatalogBuild() {
	start := time.Now()
	fragments.BuildCatalog(r.corpus.DB, r.cfg.Fragments)
	r.values["fragments.catalog_build_ms"] = ms(time.Since(start))
}

// repeat runs rounds until the measuring budget is spent, stopping before a
// round that would overrun at the pace so far. Rounds are whole, so every
// document weighs the same in every run, and throughput is the median over
// rounds. A traced run follows each untraced round with a traced one,
// which gives the tracing overhead.
func (r *run) repeat(round func(traced bool)) {
	var before, after runtime.MemStats
	start := time.Now()
	for n := 1; ; n++ {
		docs, busy := r.docs, r.busy
		runtime.ReadMemStats(&before)
		round(false)
		runtime.ReadMemStats(&after)
		r.allocBytes += after.TotalAlloc - before.TotalAlloc
		r.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
		if busy := r.busy - busy; busy > 0 {
			r.roundRate = append(r.roundRate, float64(r.docs-docs)/busy.Seconds())
		}
		if r.trace {
			round(true)
		}
		elapsed := time.Since(start).Seconds()
		if elapsed*float64(n+1)/float64(n) > r.seconds {
			return
		}
	}
}

// recorderFor returns the run's recorder for a traced round and nil, which
// records nothing, for an untraced one.
func (r *run) recorderFor(traced bool) *recorder {
	if traced {
		return r.rec
	}
	return nil
}

// check is one untraced operation: raw document bytes in, Report out.
func (r *run) check(do func(*document.Document) (*core.Report, error), tc *corpus.TestCase) (*core.Report, time.Duration) {
	r.attempted++
	start := time.Now()
	rep, err := do(document.ParseHTML(tc.HTML))
	d := time.Since(start)
	if err != nil {
		r.failed++
		r.problem("check %s: %v", tc.Name, err)
		return nil, d
	}
	return rep, d
}

// timed books one untraced timed check.
func (r *run) timed(rep *core.Report, d time.Duration) {
	r.docs++
	r.busy += d
	r.lat = append(r.lat, ms(d))
	if rep == nil {
		return
	}
	r.reports++
	r.totalMs += ms(rep.TotalTime)
	r.queryMs += ms(rep.QueryTime)
	for k, v := range rep.Stats {
		r.counts[k] += v
	}
}

// traced runs one traced re-composition of Check, books it, and returns the
// fingerprint of its verdicts (false when the operation failed).
func (r *run) traced(ck *core.Checker, tc *corpus.TestCase) (uint64, bool) {
	r.attempted++
	start := time.Now()
	td, err := tracedCheck(r.ctx, r.rec, ck, tc.HTML, r.attempted)
	d := time.Since(start)
	r.tracedDocs++
	r.tracedBusy += d
	if err != nil {
		r.failed++
		r.problem("traced check %s: %v", tc.Name, err)
		return 0, false
	}
	r.emIters += td.result.Iterations
	r.evaluated += td.result.EvaluatedQueries
	r.tracedRuns++
	if r.replay.docs < replayDocs {
		// Replayed passes run on an engine of their own that never caches.
		uncached := sqlexec.NewEngine(ck.DB, append(r.cfg.Exec[:len(r.cfg.Exec):len(r.cfg.Exec)], sqlexec.WithCaching(false))...)
		r.replay.replay(r.ctx, ck, uncached, td)
	}
	return fingerprint(td.result.Claims), true
}

// sameVerdicts gates the traced re-composition against Checker.Check.
func (r *run) sameVerdicts(tc *corpus.TestCase, traced, checked uint64) {
	if traced != checked {
		r.problem("%s: traced re-composition verdicts %x differ from Checker.Check %x", tc.Name, traced, checked)
	}
}

func (r *run) score(rep *core.Report, tc *corpus.TestCase) {
	if rep == nil {
		return
	}
	if err := scoreVerdicts(&r.conf, rep, tc.Truth); err != nil {
		r.problem("%s: %v", tc.Name, err)
	}
}

// checkLoop is check-warm (cold=false) and check-cold (cold=true): rounds
// of ParseHTML+Check over every document on one Checker. Warm fills the
// cube cache with one untimed pass, which is part of its set-up; cold
// resets the cache before each operation, outside the timer.
func (r *run) checkLoop(cold bool) error {
	docs := r.corpus.Docs
	prints := make([]uint64, len(docs))
	var ck *core.Checker
	do := func(d *document.Document) (*core.Report, error) { return ck.Check(r.ctx, d) }
	if cold {
		for i := 0; i < setupReps; i++ {
			ck = r.setupChecker()
		}
	} else {
		start := time.Now()
		ck = r.newChecker()
		for i, tc := range docs {
			if rep, _ := r.check(do, tc); rep != nil {
				prints[i] = fingerprint(rep.Claims())
				r.score(rep, tc)
			}
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}

	first := true
	r.repeat(func(traced bool) {
		for i, tc := range docs {
			if cold {
				ck.Engine.ResetCache()
			}
			if traced {
				if got, ok := r.traced(ck, tc); ok {
					r.sameVerdicts(tc, got, prints[i])
				}
				continue
			}
			rep, d := r.check(do, tc)
			r.timed(rep, d)
			if rep == nil {
				continue
			}
			got := fingerprint(rep.Claims())
			if cold && first {
				// Reference verdicts come from the cold check; for the
				// first few documents an untimed re-check, served from the
				// cubes that check just cached, must agree with it.
				prints[i] = got
				r.score(rep, tc)
				if i >= recheckDocs {
					continue
				}
				if rep, _ = r.check(do, tc); rep == nil {
					continue
				}
				got = fingerprint(rep.Claims())
			}
			if got != prints[i] {
				r.problem("%s: cached verdicts %x differ from cold verdicts %x", tc.Name, got, prints[i])
			}
		}
		if !traced {
			first = false
		}
	})
	_, bytes := ck.Engine.CacheUsage()
	r.values["sqlexec.cache.resident_mb"] = float64(bytes) / (1 << 20)
	return nil
}

// audit is audit-shared: each round is one Checker.Audit call with default
// options over auditDocs documents on a fresh Checker (cold cache), parsing
// included. Rounds take turns over disjoint parts of the corpus, so a run
// of two rounds has seen twice the documents a single audit holds and its
// medians depend less on the document mix. Per-document latency is the
// member check's own TotalTime.
func (r *run) audit() error {
	all := r.corpus.Docs
	prints := make([]uint64, len(all))
	per := min(auditDocs, len(all)) // the miniature corpus in bench_test.go is smaller
	audited := make([]bool, len(all)/per)
	var ck *core.Checker
	part := -1 // the part of the corpus the last untraced round audited
	r.repeat(func(traced bool) {
		if !traced {
			// A traced round follows its untraced round over the same part.
			part = (part + 1) % len(audited)
		}
		base := part * per
		docs := all[base : base+per]
		ck = nil
		runtime.GC() // release the previous round's cache outside the timer
		ck = r.setupChecker()

		rec, op := r.recorderFor(traced), r.attempted+1
		root := rec.begin("core.audit_corpus", -1, op)
		start := time.Now()
		ad := make([]core.AuditDoc, len(docs))
		for i, tc := range docs {
			id := rec.begin("document.parse", root, op)
			ad[i] = core.AuditDoc{Name: tc.Name, Doc: document.ParseHTML(tc.HTML)}
			rec.end(id)
		}
		id := rec.begin("core.audit", root, op)
		rep, err := ck.Audit(r.ctx, ad)
		d := time.Since(start)
		rec.end(id)
		rec.end(root)
		r.attempted += len(docs)
		if err != nil {
			r.failed += len(docs)
			r.problem("audit: %v", err)
			return
		}
		if traced {
			r.tracedDocs += len(docs)
			r.tracedBusy += d
		} else {
			r.docs += len(docs)
			r.busy += d
			for k, v := range rep.Stats {
				r.counts[k] += v
			}
			r.values["sqlexec.cache.resident_mb"] = float64(rep.Cache.Bytes) / (1 << 20)
		}
		for i, dr := range rep.Docs {
			if dr.Err != nil {
				r.failed++
				r.problem("audit %s: %v", dr.Name, dr.Err)
				continue
			}
			if !traced {
				r.lat = append(r.lat, ms(dr.Report.TotalTime))
				r.reports++
				r.totalMs += ms(dr.Report.TotalTime)
				r.queryMs += ms(dr.Report.QueryTime)
			}
			got := fingerprint(dr.Report.Claims())
			if !audited[part] {
				prints[base+i] = got
				// Only the first part is scored: how many parts a run
				// reaches depends on its pace, and verdict_f1 must not.
				if part == 0 {
					r.score(dr.Report, docs[i])
				}
			} else if got != prints[base+i] {
				r.problem("%s: audit verdicts %x differ between rounds (%x)", dr.Name, got, prints[base+i])
			}
		}
		audited[part] = true
	})
	for len(r.setup) < setupReps {
		r.setupChecker()
	}
	// The repo's bit-for-bit invariant: a document audited in the pooled
	// window gets the verdicts an isolated Check gives it (check-cold pins
	// isolated cold == isolated cached). ck is the last round's checker.
	do := func(d *document.Document) (*core.Report, error) { return ck.Check(r.ctx, d) }
	base := part * per
	for i, tc := range all[base : base+min(isolatedDocs, per)] {
		rep, _ := r.check(do, tc)
		if rep == nil {
			continue
		}
		if got := fingerprint(rep.Claims()); got != prints[base+i] {
			r.problem("%s: isolated verdicts %x differ from audit verdicts %x", tc.Name, got, prints[base+i])
		}
	}
	return nil
}

// refresh is refresh-recheck: a core.Service over an in-memory source with
// a durable store; each cycle appends rows resampled from the base table,
// refreshes, and re-checks two documents round-robin.
func (r *run) refresh() error {
	dir, err := os.MkdirTemp(".", tmpPattern)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := r.cfg
	cfg.DataDir = dir
	// Background compaction stays off until the ROADMAP's blocking flake
	// around its trigger is fixed.
	cfg.CompactAfter = 0

	docs := r.corpus.Docs
	start := time.Now()
	svc := core.NewService(core.WithDefaultConfig(cfg))
	if err := svc.RegisterSource(refreshDBName, db.NewMemSource(r.corpus.DB)); err != nil {
		return err
	}
	do := func(d *document.Document) (*core.Report, error) { return svc.Check(r.ctx, refreshDBName, d) }
	for _, tc := range docs {
		rep, _ := r.check(do, tc)
		r.score(rep, tc)
	}
	r.setup = append(r.setup, time.Since(start).Seconds())

	table := r.corpus.DB.Tables()[0].Name
	base := r.corpus.DB.Snapshot().Table(table)
	rng := rand.New(rand.NewSource(r.seed))
	var appendNs int64
	var appended int
	var refreshMs, extendMs []float64
	cycle := 0
	r.repeat(func(traced bool) {
		rows := resample(rng, base, appendRows)
		a, b := (2*cycle)%len(docs), (2*cycle+1)%len(docs)
		cycle++
		old, err := svc.Checker(r.ctx, refreshDBName)
		if err != nil {
			r.problem("checker: %v", err)
			return
		}
		r.attempted++
		rec, op := r.recorderFor(traced), r.attempted
		root := rec.begin("refresh.cycle", -1, op)
		id := rec.begin("db.append", root, op)
		start := time.Now()
		err = r.corpus.DB.Append(table, rows...)
		afterAppend := time.Now()
		rec.end(id)
		id = rec.begin("core.refresh", root, op)
		var st core.Status
		if err == nil {
			st, err = svc.Refresh(r.ctx, refreshDBName)
		}
		afterRefresh := time.Now()
		rec.end(id)
		rec.end(root)
		if err != nil || st.Appended != appendRows {
			r.failed++
			r.problem("cycle %d: refresh appended %d rows, err %v", cycle, st.Appended, err)
			return
		}
		if traced {
			ck, err := svc.Checker(r.ctx, refreshDBName)
			if err != nil {
				r.problem("checker: %v", err)
				return
			}
			// The traced re-composition goes first, so it pays the delta
			// scans a re-check pays; a Check of the same document on the
			// same snapshot then gives the verdicts it must equal.
			for _, i := range []int{a, b} {
				got, ok := r.traced(ck, docs[i])
				if rep, _ := r.check(do, docs[i]); ok && rep != nil {
					r.sameVerdicts(docs[i], got, fingerprint(rep.Claims()))
				}
			}
			r.tracedBusy += afterRefresh.Sub(start)
			// Catalog.Extend is what Refresh ran to graft the appended
			// values; repeat it on the pre-refresh catalog to price it.
			s := time.Now()
			old.Catalog.Extend()
			extendMs = append(extendMs, ms(time.Since(s)))
			return
		}
		appendNs += afterAppend.Sub(start).Nanoseconds()
		appended += appendRows
		refreshMs = append(refreshMs, ms(afterRefresh.Sub(afterAppend)))
		r.busy += afterRefresh.Sub(start)
		for n, i := range []int{a, b} {
			rep, d := r.check(do, docs[i])
			r.timed(rep, d)
			if n == 0 {
				r.fresh = append(r.fresh, ms(time.Since(start)))
			}
		}
	})

	if st, err := svc.Status(refreshDBName); err == nil && st.Store != nil && st.TotalRows > 0 {
		r.values["colstore.bytes_per_row"] = float64(st.Store.DataBytes) / float64(st.TotalRows)
		r.values["colstore.manifest_bytes"] = float64(st.Store.ManifestBytes)
		if st.Cache != nil {
			r.values["sqlexec.cache.resident_mb"] = float64(st.Cache.Bytes) / (1 << 20)
		}
	}
	if appendNs > 0 {
		r.values["db.append_rows_per_s"] = float64(appended) / (float64(appendNs) / 1e9)
	}
	r.values["db.refresh_ms"] = median(refreshMs)
	r.values["fragments.extend_ms"] = median(extendMs)

	// Delta-maintained state must give the verdicts a from-scratch build
	// over the grown table gives: rebuild catalog and engine, memory-only,
	// and re-check the documents of the last two cycles.
	scratch := core.NewChecker(r.corpus.DB, r.cfg)
	for n := 0; n < 4 && n < 2*cycle; n++ {
		tc := docs[(2*cycle-1-n)%len(docs)]
		kept, _ := r.check(do, tc)
		rebuilt, _ := r.check(func(d *document.Document) (*core.Report, error) { return scratch.Check(r.ctx, d) }, tc)
		if kept == nil || rebuilt == nil {
			continue
		}
		if got, want := fingerprint(rebuilt.Claims()), fingerprint(kept.Claims()); got != want {
			r.problem("%s: from-scratch verdicts %x differ from delta-maintained verdicts %x", tc.Name, got, want)
		}
	}
	return nil
}

// resample draws n rows of the base table, with replacement, as Append
// input. Appended rows therefore carry no literal the catalog has not seen,
// which is the steady state of an append-only feed (a novel literal widens
// the claim literal pools and forces counted full rebuilds).
func resample(rng *rand.Rand, base *db.TableView, n int) [][]any {
	cols := base.Columns()
	rows := make([][]any, n)
	for i := range rows {
		src := rng.Intn(base.NumRows())
		row := make([]any, len(cols))
		for j, c := range cols {
			switch {
			case c.IsNull(src):
				row[j] = nil
			case c.Kind == db.KindString:
				row[j] = c.StringAt(src)
			default:
				row[j] = c.Float(src)
			}
		}
		rows[i] = row
	}
	return rows
}
