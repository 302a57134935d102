package experiments

import (
	"bytes"
	"testing"

	"aggchecker/internal/baselines"
	"aggchecker/internal/sqlexec"
)

// smallOptions keeps experiment tests fast: 8 cases, reduced budgets.
func smallOptions() Options {
	o := NewOptions(true)
	o.Cases = o.Cases[:8]
	return o
}

func TestRunAutomatedShape(t *testing.T) {
	o := smallOptions()
	res := RunAutomated(o.Cases, o.BaseConfig())
	wantClaims := 0
	for _, tc := range o.Cases {
		wantClaims += len(tc.Truth)
	}
	if len(res.Outcomes) != wantClaims {
		t.Fatalf("outcomes = %d, want %d", len(res.Outcomes), wantClaims)
	}
	// Paper-shape assertions: top-5 coverage well above half, F1 clearly
	// positive, correct claims covered better than incorrect ones.
	if res.TopK(5) < 55 {
		t.Errorf("top-5 coverage = %.1f%%, want > 55%%", res.TopK(5))
	}
	if res.TopK(1) > res.TopK(5) {
		t.Error("coverage must be monotone in k")
	}
	if res.TopKWhere(5, true) <= res.TopKWhere(5, false) {
		t.Errorf("correct claims should have higher coverage (%.1f vs %.1f)",
			res.TopKWhere(5, true), res.TopKWhere(5, false))
	}
	if res.Confusion.F1() < 0.4 {
		t.Errorf("F1 = %.2f, want > 0.4", res.Confusion.F1())
	}
	if res.EvaluatedQueries < 1000 {
		t.Errorf("evaluated only %d candidate queries", res.EvaluatedQueries)
	}
}

func TestModelAblationOrdering(t *testing.T) {
	o := smallOptions()
	rows := RunModelAblation(o)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Table 10's shape: evaluation results lift top-1 coverage massively
	// over keyword scores alone; priors add more (allow small slack for
	// the reduced corpus).
	scores, eval, priors := rows[0].Result.TopK(1), rows[1].Result.TopK(1), rows[2].Result.TopK(1)
	if eval <= scores {
		t.Errorf("evaluation results should lift top-1: %.1f -> %.1f", scores, eval)
	}
	if priors < eval-5 {
		t.Errorf("priors should not hurt top-1 materially: %.1f -> %.1f", eval, priors)
	}
}

func TestContextAblationOrdering(t *testing.T) {
	o := smallOptions()
	rows := RunContextAblation(o)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0].Result, rows[len(rows)-1].Result
	if last.TopK(5) < first.TopK(5) {
		t.Errorf("full context should not reduce top-5 coverage: %.1f -> %.1f",
			first.TopK(5), last.TopK(5))
	}
}

func TestBaselinesUnderperform(t *testing.T) {
	o := smallOptions()
	main := RunAutomated(o.Cases, o.BaseConfig())
	fm := RunClaimBusterFM(o, baselines.MaxSimilarity)
	kb := RunClaimBusterKB(o)
	if fm.Confusion.F1() >= main.Confusion.F1() {
		t.Errorf("ClaimBuster-FM F1 %.2f should trail AggChecker %.2f",
			fm.Confusion.F1(), main.Confusion.F1())
	}
	if kb.Confusion.F1() >= main.Confusion.F1() {
		t.Errorf("ClaimBuster-KB F1 %.2f should trail AggChecker %.2f",
			kb.Confusion.F1(), main.Confusion.F1())
	}
	// The KB pipeline's bottleneck: recall far below AggChecker's.
	if kb.Confusion.Recall() >= main.Confusion.Recall() {
		t.Errorf("NaLIR recall %.2f should trail AggChecker %.2f",
			kb.Confusion.Recall(), main.Confusion.Recall())
	}
}

func TestTable6SpeedupShape(t *testing.T) {
	o := smallOptions()
	rows := RunTable6(o)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	naive, merged, cached := rows[0], rows[1], rows[2]
	// Exact work pins: the strategies evaluate the same distinct queries
	// and differ only in how they scan for them. Each figure is
	// deterministic, independent of GOMAXPROCS.
	for _, p := range []struct {
		row                     Table6Row
		rows                    int64
		evaluated               int
		cubePasses, directQuery int64
	}{
		{naive, 35_941_564, 66_657, 0, 66_657},
		{merged, 98_255, 66_657, 181, 2},
		{cached, 30_840, 66_657, 54, 0},
	} {
		r := p.row
		if r.Rows != p.rows || r.Evaluated != p.evaluated ||
			r.Stats["cube_passes"] != p.cubePasses || r.Stats["direct_queries"] != p.directQuery {
			t.Errorf("%s: rows %d evaluated %d cube_passes %d direct_queries %d, want %d %d %d %d",
				r.Name, r.Rows, r.Evaluated, r.Stats["cube_passes"], r.Stats["direct_queries"],
				p.rows, p.evaluated, p.cubePasses, p.directQuery)
		}
	}
	// Query merging's structural effect is scan volume: one cube pass
	// answers hundreds of candidates. (The paper's 62× time speedup also
	// reflects Postgres per-query overhead that an embedded engine does not
	// pay, so the wall-clock ratio compresses here — see EXPERIMENTS.md.)
	if merged.Rows*5 >= naive.Rows {
		t.Errorf("merging should cut scanned rows >5x: naive %d, merged %d", naive.Rows, merged.Rows)
	}
	if cached.Rows >= merged.Rows {
		t.Errorf("caching should cut scanned rows further: merged %d, cached %d", merged.Rows, cached.Rows)
	}
	// Since direct scans run through the same vectorized block pipeline as
	// cube passes (with zone-map pruning), the naive baseline is no longer
	// slow per query at smoke scale — the tables are tiny, so per-query
	// wall clock converges across strategies and only the scanned-row
	// volume above separates them structurally. Keep a generous slack so
	// a cached-mode pathology still fails the test.
	if cached.Query > naive.Query*3/2 {
		t.Errorf("cached mode much slower than naive: %v vs %v", naive.Query, cached.Query)
	}
	var buf bytes.Buffer
	PrintTable6(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

// TestStrategiesAgreeOnVerdicts keeps the naive strategy an end-to-end
// oracle: naive, merged and cached evaluation must give every claim the
// same verdict, ground-truth rank and best translation.
func TestStrategiesAgreeOnVerdicts(t *testing.T) {
	o := smallOptions()
	cached := o.BaseConfig()
	uncached := cached
	uncached.Exec = []sqlexec.ExecOption{sqlexec.WithCaching(false)}
	want := RunAutomated(o.Cases, cached)
	for name, res := range map[string]*AccuracyResult{
		"naive":  runCases(o.Cases, uncached, naiveCheck),
		"merged": RunAutomated(o.Cases, uncached),
	} {
		if len(res.Outcomes) != len(want.Outcomes) {
			t.Fatalf("%s: %d outcomes, want %d", name, len(res.Outcomes), len(want.Outcomes))
		}
		for i, got := range res.Outcomes {
			w := want.Outcomes[i]
			if got.Flagged != w.Flagged || got.Rank != w.Rank || got.BestQuery != w.BestQuery {
				t.Errorf("%s: case %s claim %d: flagged %t rank %d best %q, cached gives %t %d %q",
					name, got.Case.Name, got.ClaimIdx, got.Flagged, got.Rank, got.BestQuery, w.Flagged, w.Rank, w.BestQuery)
			}
		}
	}
}

func TestFigure8Monotonicity(t *testing.T) {
	o := smallOptions()
	rows := RunFigure8(o)
	if len(rows) != 53 {
		t.Fatalf("rows = %d, want 53", len(rows))
	}
	for _, r := range rows {
		if r.Log10 < 3 {
			t.Errorf("%s: candidate space 10^%.1f implausibly small", r.Case, r.Log10)
		}
	}
}

func TestFigure9Stats(t *testing.T) {
	o := smallOptions()
	d := RunFigure9(o)
	if len(d.ClaimsPerArticle) != 53 {
		t.Fatalf("articles = %d", len(d.ClaimsPerArticle))
	}
	sum := d.PredBreakdown[0] + d.PredBreakdown[1] + d.PredBreakdown[2]
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("predicate breakdown sums to %.1f", sum)
	}
	// Figure 9b: coverage grows with N and is high by N=3 (paper: ~90%).
	if d.TopNCoverage[2] < 70 {
		t.Errorf("top-3 characteristic coverage = %.1f%%, want > 70%%", d.TopNCoverage[2])
	}
	if d.TopNCoverage[9] < d.TopNCoverage[2] {
		t.Error("coverage must be monotone in N")
	}
}

func TestFigure12Tradeoff(t *testing.T) {
	o := smallOptions()
	rows := RunFigure12(o, []float64{0.5, 0.999})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Lower pT makes the system more suspicious: recall at pT=0.5 must be
	// at least that at pT=0.999, precision at most.
	if rows[0].Recall < rows[1].Recall {
		t.Errorf("recall should not grow with pT: %.2f (0.5) vs %.2f (0.999)",
			rows[0].Recall, rows[1].Recall)
	}
	if rows[0].Precision > rows[1].Precision+1e-9 {
		t.Errorf("precision should not shrink with pT: %.2f vs %.2f",
			rows[0].Precision, rows[1].Precision)
	}
}

func TestTable9ListsErrors(t *testing.T) {
	o := smallOptions()
	entries := RunTable9(o, 5)
	if len(entries) == 0 {
		t.Fatal("no erroneous claims listed")
	}
	var buf bytes.Buffer
	PrintTable9(&buf, entries)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	o := smallOptions()
	var buf bytes.Buffer
	PrintFigure8(&buf, RunFigure8(o)[:5])
	PrintFigure9(&buf, RunFigure9(o))
	rows := RunModelAblation(o)
	PrintTable10(&buf, rows)
	PrintFigure11(&buf, rows)
	if buf.Len() < 200 {
		t.Errorf("renders too small: %d bytes", buf.Len())
	}
}
