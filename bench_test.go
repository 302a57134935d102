// Benchmarks regenerating the paper's tables and figures. Each benchmark
// runs the corresponding experiment on a corpus subset sized for benchmark
// iteration and reports the headline quality metrics alongside wall-clock
// time via b.ReportMetric, so `go test -bench=. -benchmem` doubles as a
// compact reproduction run. cmd/experiments produces the full paper-scale
// rows.
package aggchecker_test

import (
	"context"
	"testing"

	"aggchecker/internal/baselines"
	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/experiments"
	"aggchecker/internal/study"
)

// benchOptions returns a reduced-scale experiment setup: the first n corpus
// cases with a lowered evaluation budget.
func benchOptions(n int) experiments.Options {
	c := corpus.MustLoad()
	if n > len(c.Cases) {
		n = len(c.Cases)
	}
	return experiments.Options{Cases: c.Cases[:n], Quick: true, Seed: 7}
}

// BenchmarkTable5Baselines compares AggChecker's automated checking against
// the ClaimBuster baselines (Table 5's bottom block).
func BenchmarkTable5Baselines(b *testing.B) {
	o := benchOptions(10)
	for i := 0; i < b.N; i++ {
		main := experiments.RunAutomated(o.Cases, o.BaseConfig())
		fm := experiments.RunClaimBusterFM(o, baselines.MaxSimilarity)
		kb := experiments.RunClaimBusterKB(o)
		if i == b.N-1 {
			b.ReportMetric(100*main.Confusion.F1(), "aggchecker-F1")
			b.ReportMetric(100*fm.Confusion.F1(), "claimbusterFM-F1")
			b.ReportMetric(100*kb.Confusion.F1(), "claimbusterKB-F1")
		}
	}
}

// BenchmarkTable6 times the three execution strategies of Table 6 on the
// same workload and reports each row's scanned rows.
func BenchmarkTable6(b *testing.B) {
	o := benchOptions(8)
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable6(o)
		if i == b.N-1 {
			b.ReportMetric(float64(rows[0].Rows), "rows-naive")
			b.ReportMetric(float64(rows[1].Rows), "rows-merged")
			b.ReportMetric(float64(rows[2].Rows), "rows-cached")
		}
	}
}

// BenchmarkTable10ModelAblation reports top-1 coverage for the three model
// variants (Table 10 / Figure 10's driver).
func BenchmarkTable10ModelAblation(b *testing.B) {
	o := benchOptions(8)
	for i := 0; i < b.N; i++ {
		rows := experiments.RunModelAblation(o)
		if i == b.N-1 {
			b.ReportMetric(rows[0].Result.TopK(1), "top1-scores")
			b.ReportMetric(rows[1].Result.TopK(1), "top1-eval")
			b.ReportMetric(rows[2].Result.TopK(1), "top1-priors")
		}
	}
}

// BenchmarkTable3UserFeatures and BenchmarkTable4UserStudy simulate the
// on-site user study.
func BenchmarkTable3UserFeatures(b *testing.B) {
	o := benchOptions(53)
	inputs := study.PrepareInputs(o.Corpus().StudyCases(), o.BaseConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := study.RunOnsiteStudy(inputs, 8, o.Seed)
		if i == b.N-1 {
			shares := res.FeatureShares()
			b.ReportMetric(100*shares[study.ActionTop1], "top1-pct")
			b.ReportMetric(100*shares[study.ActionTop5], "top5-pct")
		}
	}
}

func BenchmarkTable4UserStudy(b *testing.B) {
	o := benchOptions(53)
	inputs := study.PrepareInputs(o.Corpus().StudyCases(), o.BaseConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := study.RunOnsiteStudy(inputs, 8, o.Seed)
		if i == b.N-1 {
			agg, sql := res.ToolConfusions()
			b.ReportMetric(100*agg.Recall(), "agg-recall")
			b.ReportMetric(100*sql.Recall(), "sql-recall")
			b.ReportMetric(res.Speedup(), "speedup-x")
		}
	}
}

// BenchmarkFigure8CandidateSpace measures fragment-catalog construction and
// candidate-space counting over the corpus data sets.
func BenchmarkFigure8CandidateSpace(b *testing.B) {
	o := benchOptions(53)
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFigure8(o)
		if i == b.N-1 {
			max := 0.0
			for _, r := range rows {
				if r.Log10 > max {
					max = r.Log10
				}
			}
			b.ReportMetric(max, "max-log10-candidates")
		}
	}
}

// BenchmarkFigure10Coverage reports the headline top-k coverage numbers.
func BenchmarkFigure10Coverage(b *testing.B) {
	o := benchOptions(10)
	cfg := o.BaseConfig()
	for i := 0; i < b.N; i++ {
		res := experiments.RunAutomated(o.Cases, cfg)
		if i == b.N-1 {
			b.ReportMetric(res.TopK(1), "top1-pct")
			b.ReportMetric(res.TopK(5), "top5-pct")
			b.ReportMetric(res.TopK(10), "top10-pct")
		}
	}
}

// BenchmarkFigure11Context reports the coverage delta from the full keyword
// context versus the claim sentence alone.
func BenchmarkFigure11Context(b *testing.B) {
	o := benchOptions(8)
	for i := 0; i < b.N; i++ {
		rows := experiments.RunContextAblation(o)
		if i == b.N-1 {
			b.ReportMetric(rows[0].Result.TopK(5), "top5-sentence-only")
			b.ReportMetric(rows[len(rows)-1].Result.TopK(5), "top5-full-context")
		}
	}
}

// BenchmarkFigure12PT sweeps the true-claim prior.
func BenchmarkFigure12PT(b *testing.B) {
	o := benchOptions(8)
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFigure12(o, []float64{0.9, 0.999})
		if i == b.N-1 {
			b.ReportMetric(100*rows[0].Recall, "recall-pt0.9")
			b.ReportMetric(100*rows[1].Recall, "recall-pt0.999")
			b.ReportMetric(100*rows[0].Precision, "precision-pt0.9")
			b.ReportMetric(100*rows[1].Precision, "precision-pt0.999")
		}
	}
}

// BenchmarkFigure13Budget sweeps the IR-hit budget.
func BenchmarkFigure13Budget(b *testing.B) {
	o := benchOptions(8)
	for i := 0; i < b.N; i++ {
		rows := experiments.RunHitsSweep(o, []int{1, 20})
		if i == b.N-1 {
			b.ReportMetric(rows[0].Result.TopK(10), "top10-hits1")
			b.ReportMetric(rows[1].Result.TopK(10), "top10-hits20")
		}
	}
}

// BenchmarkCheckSingleArticle is the end-to-end unit cost: one article
// through the whole pipeline (catalog construction excluded, as in the
// paper's per-article timings).
func BenchmarkCheckSingleArticle(b *testing.B) {
	tc := corpus.MustLoad().Cases[0]
	cfg := core.DefaultConfig()
	checker := core.NewChecker(tc.DB, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.Check(context.Background(), tc.Doc)
	}
}

// BenchmarkCatalogConstruction measures per-dataset preprocessing (§4.2).
func BenchmarkCatalogConstruction(b *testing.B) {
	tc := corpus.MustLoad().Cases[3]
	for i := 0; i < b.N; i++ {
		core.NewChecker(tc.DB, core.DefaultConfig())
	}
}

// BenchmarkDesignAblations measures the reproduction's own design choices
// (DESIGN.md §4): restriction-prior formulation, EM flavour, score scaling.
func BenchmarkDesignAblations(b *testing.B) {
	o := benchOptions(8)
	for i := 0; i < b.N; i++ {
		rows := experiments.RunDesignAblations(o)
		if i == b.N-1 {
			b.ReportMetric(rows[0].Result.TopK(1), "top1-current")
			b.ReportMetric(rows[1].Result.TopK(1), "top1-paperliteral")
			b.ReportMetric(rows[2].Result.TopK(1), "top1-softem")
			b.ReportMetric(rows[3].Result.TopK(1), "top1-noscale")
		}
	}
}
