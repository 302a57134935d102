// Package experiments regenerates every table and figure of the paper's
// evaluation (§7 and appendices) over the reproduction corpus. Each
// experiment has a Run function returning structured results plus a
// renderer that prints rows in the paper's format; cmd/experiments and the
// repository benchmarks share these entry points.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/document"
	"aggchecker/internal/metrics"
	"aggchecker/internal/model"
)

// ClaimOutcome pairs one claim's ground truth with the checker's output.
type ClaimOutcome struct {
	Case      *corpus.TestCase
	ClaimIdx  int
	Truth     corpus.ClaimTruth
	Rank      int // rank of the ground-truth query in the posterior, -1 absent
	Flagged   bool
	Claimed   float64
	BestQuery string
}

// AccuracyResult aggregates a full automated-checking run.
type AccuracyResult struct {
	Outcomes  []ClaimOutcome
	Confusion metrics.Confusion
	TotalTime time.Duration
	QueryTime time.Duration
	// EvaluatedQueries sums, over the cases, each document's distinct
	// candidate queries sent to its evaluator.
	EvaluatedQueries int
	// RowsScanned totals the engine's scan volume across cases.
	RowsScanned int64
	// Stats sums every engine counter (sqlexec.Stats.Snapshot keys: cube
	// passes, cache hits/misses, singleflight dedups, lock waits, ...)
	// across cases; Table 6 regeneration reads the execution profile here.
	Stats map[string]int64
}

// TopK returns the percentage of claims whose ground-truth query ranked in
// the top k.
func (r *AccuracyResult) TopK(k int) float64 {
	ranks := make([]int, len(r.Outcomes))
	for i, o := range r.Outcomes {
		ranks[i] = o.Rank
	}
	return metrics.TopKCoverage(ranks, k)
}

// TopKWhere filters claims by correctness before computing coverage
// (Figure 10 separates correct and incorrect claims).
func (r *AccuracyResult) TopKWhere(k int, correct bool) float64 {
	var ranks []int
	for _, o := range r.Outcomes {
		if o.Truth.Correct == correct {
			ranks = append(ranks, o.Rank)
		}
	}
	return metrics.TopKCoverage(ranks, k)
}

// RunAutomated checks every case with the given configuration and collects
// accuracy metrics. Cases run in parallel (each has its own database and
// checker); per-case results are merged in corpus order so output is
// deterministic.
func RunAutomated(cases []*corpus.TestCase, cfg core.Config) *AccuracyResult {
	return runCases(cases, cfg, func(ck *core.Checker, doc *document.Document) (*core.Report, error) {
		return ck.Check(context.Background(), doc)
	})
}

// runCases is RunAutomated with the way one document is checked on its
// case's fresh checker left to the caller.
func runCases(cases []*corpus.TestCase, cfg core.Config, check func(*core.Checker, *document.Document) (*core.Report, error)) *AccuracyResult {
	type caseResult struct {
		outcomes  []ClaimOutcome
		totalTime time.Duration
		queryTime time.Duration
		evaluated int
		rows      int64
		stats     map[string]int64
	}
	results := make([]caseResult, len(cases))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, tc := range cases {
		wg.Add(1)
		go func(i int, tc *corpus.TestCase) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			checker := core.NewChecker(tc.DB, cfg)
			report, err := check(checker, tc.Doc)
			if err != nil {
				// Unreachable with a background context; guard anyway.
				panic(err)
			}
			cr := caseResult{
				totalTime: report.TotalTime,
				queryTime: report.QueryTime,
				evaluated: report.Result.EvaluatedQueries,
				rows:      report.Stats["rows_scanned"],
				stats:     report.Stats,
			}
			for ci, claimRes := range report.Claims() {
				truth := tc.Truth[ci]
				best := ""
				if b := claimRes.Best(); b != nil {
					best = b.Query.SQL(tc.DB.Tables()[0].Name)
				}
				cr.outcomes = append(cr.outcomes, ClaimOutcome{
					Case:      tc,
					ClaimIdx:  ci,
					Truth:     truth,
					Rank:      core.RankOf(claimRes, truth.Query),
					Flagged:   claimRes.Erroneous,
					Claimed:   truth.ClaimedValue,
					BestQuery: best,
				})
			}
			results[i] = cr
		}(i, tc)
	}
	wg.Wait()

	agg := &AccuracyResult{Stats: make(map[string]int64)}
	for _, cr := range results {
		agg.Outcomes = append(agg.Outcomes, cr.outcomes...)
		agg.TotalTime += cr.totalTime
		agg.QueryTime += cr.queryTime
		agg.EvaluatedQueries += cr.evaluated
		agg.RowsScanned += cr.rows
		for k, v := range cr.stats {
			agg.Stats[k] += v
		}
	}
	for _, o := range agg.Outcomes {
		agg.Confusion.Add(o.Flagged, !o.Truth.Correct)
	}
	return agg
}

// Pct formats a ratio as a percentage string.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// DefaultCorpus loads the full 53-article corpus.
func DefaultCorpus() *corpus.Corpus { return corpus.MustLoad() }

// ModelVariant tweaks the model config for ablation rows.
type ModelVariant struct {
	Name  string
	Apply func(*core.Config)
}

var _ = model.DefaultConfig // keep the import for variants defined later
