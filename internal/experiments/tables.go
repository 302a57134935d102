package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"aggchecker/internal/baselines"
	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/document"
	"aggchecker/internal/evaluate"
	"aggchecker/internal/keywords"
	"aggchecker/internal/metrics"
	"aggchecker/internal/model"
	"aggchecker/internal/sqlexec"
)

// AccuracyRow is one row of Table 5 (and of the ablation figures that share
// its runs).
type AccuracyRow struct {
	Name   string
	Result *AccuracyResult
}

// Confusion shortcuts.
func (r AccuracyRow) Recall() float64    { return r.Result.Confusion.Recall() }
func (r AccuracyRow) Precision() float64 { return r.Result.Confusion.Precision() }
func (r AccuracyRow) F1() float64        { return r.Result.Confusion.F1() }

// RunContextAblation reproduces the keyword-context block of Table 5 and
// Figure 11: context sources are enabled cumulatively.
func RunContextAblation(o Options) []AccuracyRow {
	type variant struct {
		name  string
		apply func(*core.Config)
	}
	variants := []variant{
		{"Claim sentence", func(c *core.Config) {
			c.Context.UsePrevSentence = false
			c.Context.UseParagraphStart = false
			c.Context.UseSynonyms = false
			c.Context.UseHeadlines = false
		}},
		{"+ Previous sentence", func(c *core.Config) {
			c.Context.UseParagraphStart = false
			c.Context.UseSynonyms = false
			c.Context.UseHeadlines = false
		}},
		{"+ Paragraph Start", func(c *core.Config) {
			c.Context.UseSynonyms = false
			c.Context.UseHeadlines = false
		}},
		{"+ Synonyms", func(c *core.Config) {
			c.Context.UseHeadlines = false
		}},
		{"+ Headlines (current version)", func(c *core.Config) {}},
	}
	var rows []AccuracyRow
	for _, v := range variants {
		cfg := o.BaseConfig()
		v.apply(&cfg)
		rows = append(rows, AccuracyRow{Name: v.name, Result: RunAutomated(o.Cases, cfg)})
	}
	return rows
}

// RunModelAblation reproduces the probabilistic-model block of Table 5 and
// Table 10: relevance scores only, plus evaluation results, plus priors.
func RunModelAblation(o Options) []AccuracyRow {
	type variant struct {
		name  string
		apply func(*core.Config)
	}
	variants := []variant{
		{"Relevance scores Sc", func(c *core.Config) {
			c.Model.UseEvalResults = false
			c.Model.UsePriors = false
		}},
		{"+ Evaluation results Ec", func(c *core.Config) {
			c.Model.UsePriors = false
		}},
		{"+ Learning priors Θ (current version)", func(c *core.Config) {}},
	}
	var rows []AccuracyRow
	for _, v := range variants {
		cfg := o.BaseConfig()
		v.apply(&cfg)
		rows = append(rows, AccuracyRow{Name: v.name, Result: RunAutomated(o.Cases, cfg)})
	}
	return rows
}

// RunHitsSweep reproduces the "# Hits" block of Table 5 and the left panel
// of Figure 13.
func RunHitsSweep(o Options, hits []int) []AccuracyRow {
	var rows []AccuracyRow
	for _, h := range hits {
		cfg := o.BaseConfig()
		cfg.Model.TopKHits = h
		name := fmt.Sprintf("# Hits = %d", h)
		if h == 20 {
			name += " (current version)"
		}
		rows = append(rows, AccuracyRow{Name: name, Result: RunAutomated(o.Cases, cfg)})
	}
	return rows
}

// RunAggColsSweep reproduces the right panel of Figure 13 (# aggregation
// columns considered during evaluation).
func RunAggColsSweep(o Options, cols []int) []AccuracyRow {
	var rows []AccuracyRow
	for _, n := range cols {
		cfg := o.BaseConfig()
		cfg.Model.MaxAggCols = n
		rows = append(rows, AccuracyRow{
			Name:   fmt.Sprintf("# Aggregates = %d", n),
			Result: RunAutomated(o.Cases, cfg),
		})
	}
	return rows
}

// BaselineRow is one baseline comparison row.
type BaselineRow struct {
	Name      string
	Confusion metrics.Confusion
	Time      time.Duration
}

// RunClaimBusterFM evaluates ClaimBuster-FM over the corpus with
// leave-one-article-out fact repositories built from the other articles'
// claims — the paper's repository covers previously fact-checked popular
// statements, never the article under test.
func RunClaimBusterFM(o Options, agg baselines.Aggregation) BaselineRow {
	start := time.Now()
	var conf metrics.Confusion
	for _, tc := range o.Cases {
		repo := factRepositoryExcluding(o.Cases, tc)
		for ci, claim := range tc.Doc.Claims {
			v := repo.CheckFM(claim.Sentence.Text, agg)
			conf.Add(v.Flagged, !tc.Truth[ci].Correct)
		}
	}
	name := "ClaimBuster-FM (Max)"
	if agg == baselines.MajorityVote {
		name = "ClaimBuster-FM (MV)"
	}
	return BaselineRow{Name: name, Confusion: conf, Time: time.Since(start)}
}

func factRepositoryExcluding(cases []*corpus.TestCase, exclude *corpus.TestCase) *baselines.FactRepository {
	// Fact-check repositories over-represent debunked statements (that is
	// what fact checkers publish), so every erroneous claim enters the
	// repository while only a third of the correct ones do.
	var facts []baselines.Fact
	kept := 0
	for _, tc := range cases {
		if tc == exclude {
			continue
		}
		for ci, claim := range tc.Doc.Claims {
			correct := tc.Truth[ci].Correct
			if correct {
				kept++
				if kept%3 != 0 {
					continue
				}
			}
			facts = append(facts, baselines.Fact{
				Statement: claim.Sentence.Text,
				True:      correct,
			})
		}
	}
	return baselines.NewFactRepository(facts)
}

// RunClaimBusterKB evaluates ClaimBuster-KB backed by the NaLIR-style
// natural-language interface over each article's own database.
func RunClaimBusterKB(o Options) BaselineRow {
	start := time.Now()
	var conf metrics.Confusion
	for _, tc := range o.Cases {
		nalir := baselines.NewNaLIR(tc.DB)
		for ci, claim := range tc.Doc.Claims {
			v := nalir.CheckKB(claim)
			conf.Add(v.Flagged, !tc.Truth[ci].Correct)
		}
	}
	return BaselineRow{Name: "ClaimBuster-KB + NaLIR", Confusion: conf, Time: time.Since(start)}
}

// Table6Row is one execution-strategy row of Table 6.
type Table6Row struct {
	Name      string
	Total     time.Duration
	Query     time.Duration
	Evaluated int   // #Queries: distinct queries per document, summed over the cases
	Rows      int64 // rows scanned by the engine
	Stats     map[string]int64
}

// RunTable6 checks the corpus under the three evaluation strategies. The
// evaluation budget is kept at paper scale even in quick mode: the benefit
// of query merging (Table 6) only manifests when each claim contributes a
// large candidate batch, exactly as the paper's tens of thousands of
// evaluations per document. Naive and merged run on engines that never
// cache; naive also plans every candidate query as its own scan.
func RunTable6(o Options) []Table6Row {
	cached := o.BaseConfig()
	if cached.Model.EvalBudget < 2000 {
		cached.Model.EvalBudget = 2000
	}
	uncached := cached
	uncached.Exec = []sqlexec.ExecOption{sqlexec.WithCaching(false)}
	strategies := []struct {
		name string
		res  *AccuracyResult
	}{
		{"Naive", runCases(o.Cases, uncached, naiveCheck)},
		{"+ Query Merging", RunAutomated(o.Cases, uncached)},
		{"+ Caching", RunAutomated(o.Cases, cached)},
	}
	var rows []Table6Row
	for _, s := range strategies {
		rows = append(rows, Table6Row{
			Name:      s.name,
			Total:     s.res.TotalTime,
			Query:     s.res.QueryTime,
			Evaluated: s.res.EvaluatedQueries,
			Rows:      s.res.RowsScanned,
			Stats:     s.res.Stats,
		})
	}
	return rows
}

// naiveCheck is Checker.Check recomposed from the pipeline's exported
// layers — keyword matching, one pinned snapshot, the EM loop — around a
// naive evaluator on the checker's engine. The checker is built for this
// one document, so its engine's counters are the document's.
func naiveCheck(ck *core.Checker, doc *document.Document) (*core.Report, error) {
	cfg := ck.Config
	start := time.Now()
	scores := keywords.MatchAll(ck.Catalog, doc, cfg.Context, cfg.Model.TopKHits)
	ev := evaluate.NewNaiveEvaluator(ck.Engine)
	ev.Workers = cfg.Workers
	ctx := sqlexec.WithSnapshot(context.Background(), ck.Engine.DB.Snapshot())
	queryStart := time.Now()
	res, err := model.Run(ctx, ck.Catalog, doc, scores, ev, cfg.Model, nil)
	if err != nil {
		return nil, err
	}
	return &core.Report{
		Document:  doc,
		Result:    res,
		TotalTime: time.Since(start),
		QueryTime: time.Since(queryStart),
		Stats:     ck.Engine.Stats.Snapshot(),
	}, nil
}

// PrintTable5 renders the full comparison table in the paper's layout.
func PrintTable5(w io.Writer, context, modelRows, hits []AccuracyRow, fm1, fm2, kb BaselineRow, main AccuracyRow) {
	fmt.Fprintf(w, "Table 5: Comparison of AggChecker with baselines.\n")
	fmt.Fprintf(w, "%-42s %8s %10s %8s %8s\n", "Tool", "Recall", "Precision", "F1", "Time")
	section := func(title string) { fmt.Fprintf(w, "-- %s --\n", title) }
	row := func(name string, c metrics.Confusion, d time.Duration) {
		t := "-"
		if d > 0 {
			t = fmt.Sprintf("%.0fs", d.Seconds())
		}
		fmt.Fprintf(w, "%-42s %7.1f%% %9.1f%% %7.1f%% %8s\n",
			name, 100*c.Recall(), 100*c.Precision(), 100*c.F1(), t)
	}
	section("AggChecker - Keyword Context (Figure 11)")
	for _, r := range context {
		row(r.Name, r.Result.Confusion, 0)
	}
	section("AggChecker - Probabilistic Model (Table 10)")
	for _, r := range modelRows {
		row(r.Name, r.Result.Confusion, 0)
	}
	section("AggChecker - Time Budget by IR Hits (Figure 13)")
	for _, r := range hits {
		row(r.Name, r.Result.Confusion, r.Result.TotalTime)
	}
	section("Baselines")
	row(fm1.Name, fm1.Confusion, fm1.Time)
	row(fm2.Name, fm2.Confusion, fm2.Time)
	row(kb.Name, kb.Confusion, kb.Time)
	row("AggChecker Automatic", main.Result.Confusion, main.Result.TotalTime)
}

// PrintTable6 renders the execution-strategy comparison. Speedups are
// reported both on query time and on scanned-row volume: the paper's naive
// baseline pays Postgres per-query overheads that an embedded engine does
// not, so the row-volume ratio is the comparable work measure while the
// time ratio compresses.
func PrintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintf(w, "Table 6: Run time for all test cases.\n")
	fmt.Fprintf(w, "%-18s %10s %10s %10s %14s %10s %12s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"Version", "Total", "Query", "Speedup", "RowsScanned", "RowSpdup", "#Queries",
		"Cubes", "CacheHit", "HitRate", "SavedMs", "SavedMB", "Dedup", "LockWait", "Blocks", "Pruned", "Gather%", "Partial", "DirScan", "SelReuse",
		"Morsels", "QWait", "Steal")
	var prevQuery time.Duration
	var prevRows int64
	for i, r := range rows {
		speed, rspeed := "-", "-"
		if i > 0 && r.Query > 0 {
			speed = fmt.Sprintf("x%.1f", float64(prevQuery)/float64(r.Query))
		}
		if i > 0 && r.Rows > 0 {
			rspeed = fmt.Sprintf("x%.1f", float64(prevRows)/float64(r.Rows))
		}
		// Dedup counts coalesced concurrent duplicates, cube and join-view
		// alike: within one document's batch the planner already dedups
		// cube signatures, so view coalescing among a batch's passes is
		// the common case and cube coalescing appears when several
		// documents share one engine.
		//
		// Blocks/Pruned/Gather%/Partial profile the shared scan pipeline:
		// blocks scanned (cube passes and vectorized direct scans alike),
		// blocks skipped by zone maps, the share of per-column block reads
		// that gathered through join-view row maps (vs zero-copy column
		// slices), and row-range partials merged inside cube passes.
		// DirScan counts direct queries run through the vectorized
		// pipeline (the Naive row's scans, plus planner fallbacks in the
		// merged rows); SelReuse the segments that filtered through a
		// reused selection-vector buffer.
		//
		// Morsels/QWait/Steal profile the engine's scheduler: tasks run on
		// it (batch passes and direct scans, plus the morsels of passes and
		// scans past the parallel threshold), submissions that found no
		// idle worker, and tasks helper workers stole from the submitters'
		// queues.
		gatherPct := "-"
		if tot := r.Stats["direct_block_reads"] + r.Stats["gather_block_reads"]; tot > 0 {
			gatherPct = fmt.Sprintf("%.0f%%", 100*float64(r.Stats["gather_block_reads"])/float64(tot))
		}
		// HitRate/SavedMs/SavedMB surface the cost-aware cube cache's
		// economics: the share of cube lookups served without a pass, and
		// the cumulative build time / result bytes those hits avoided
		// re-spending (the cache's earnings, also reported by corpus audits
		// and the /status endpoint).
		hitRate := "-"
		if tot := r.Stats["cache_hits"] + r.Stats["cache_misses"]; tot > 0 {
			hitRate = fmt.Sprintf("%.0f%%", 100*float64(r.Stats["cache_hits"])/float64(tot))
		}
		fmt.Fprintf(w, "%-18s %9.1fs %9.1fs %10s %14d %10s %12d %8d %8d %8s %8.0f %8.1f %8d %8d %8d %8d %8s %8d %8d %8d %8d %8d %8d\n",
			r.Name, r.Total.Seconds(), r.Query.Seconds(), speed, r.Rows, rspeed, r.Evaluated,
			r.Stats["cube_passes"], r.Stats["cache_hits"], hitRate,
			float64(r.Stats["cube_cache_ns_saved"])/1e6, float64(r.Stats["cube_cache_bytes_saved"])/(1<<20),
			r.Stats["cube_dedups"]+r.Stats["view_dedups"], r.Stats["lock_waits"],
			r.Stats["blocks_scanned"], r.Stats["blocks_pruned"], gatherPct, r.Stats["partials_merged"],
			r.Stats["direct_vector_scans"], r.Stats["selvec_reuses"],
			r.Stats["morsels_dispatched"], r.Stats["queue_waits"], r.Stats["steal_count"])
		prevQuery, prevRows = r.Query, r.Rows
	}
}

// PrintTable10 renders the top-k coverage model ablation.
func PrintTable10(w io.Writer, rows []AccuracyRow) {
	fmt.Fprintf(w, "Table 10: Top-k coverage versus probabilistic model.\n")
	fmt.Fprintf(w, "%-42s %8s %8s %8s\n", "Version", "Top-1", "Top-5", "Top-10")
	for _, r := range rows {
		fmt.Fprintf(w, "%-42s %7.1f%% %7.1f%% %7.1f%%\n",
			r.Name, r.Result.TopK(1), r.Result.TopK(5), r.Result.TopK(10))
	}
}

// Table9Entry is one discovered erroneous claim (the paper's Table 9).
type Table9Entry struct {
	Case     string
	Sentence string
	Claimed  string
	SQL      string
	Correct  float64
	Detected bool
}

// RunTable9 lists ground-truth erroneous claims with the checker's verdict.
func RunTable9(o Options, limit int) []Table9Entry {
	cfg := o.BaseConfig()
	res := RunAutomated(o.Cases, cfg)
	var out []Table9Entry
	for _, oc := range res.Outcomes {
		if oc.Truth.Correct {
			continue
		}
		claim := oc.Case.Doc.Claims[oc.ClaimIdx]
		out = append(out, Table9Entry{
			Case:     oc.Case.Name,
			Sentence: claim.Sentence.Text,
			Claimed:  claim.Text(),
			SQL:      oc.Truth.Query.SQL(oc.Case.DB.Tables()[0].Name),
			Correct:  oc.Truth.CorrectValue,
			Detected: oc.Flagged,
		})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// PrintTable9 renders discovered erroneous claims.
func PrintTable9(w io.Writer, entries []Table9Entry) {
	fmt.Fprintf(w, "Table 9: Examples of erroneous claims.\n")
	for _, e := range entries {
		mark := "MISSED"
		if e.Detected {
			mark = "DETECTED"
		}
		fmt.Fprintf(w, "[%s] %s: claimed %q, correct %.6g\n  sentence: %s\n  query: %s\n",
			mark, e.Case, e.Claimed, e.Correct, e.Sentence, e.SQL)
	}
}
