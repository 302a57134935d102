package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"aggchecker/internal/corpus"
	"aggchecker/internal/document"
	"aggchecker/internal/sqlexec"
)

func mustCheck(t *testing.T, c *Checker, doc *document.Document) *Report {
	t.Helper()
	rep, err := c.Check(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Model.EvalBudget = 400
	cfg.Model.MaxEMIters = 3
	return cfg
}

func TestCheckNFLEndToEnd(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, quickCfg())
	report := mustCheck(t, checker, tc.Doc)
	if len(report.Claims()) != len(tc.Truth) {
		t.Fatalf("claims = %d, want %d", len(report.Claims()), len(tc.Truth))
	}
	// The unambiguous claims must resolve at top-1: the average fine, the
	// distinct team count, and the substance-abuse count.
	for _, idx := range []int{0, 1, 5} {
		if r := RankOf(report.Claims()[idx], tc.Truth[idx].Query); r != 0 {
			t.Errorf("claim %d: ground truth rank = %d, want 0", idx, r)
		}
	}
	if report.TotalTime <= 0 || report.QueryTime <= 0 {
		t.Error("timings not recorded")
	}
	if report.Stats["rows_scanned"] == 0 {
		t.Error("engine statistics not recorded")
	}
}

// TestConcurrentChecksShareDocument checks one parsed *Document from two
// goroutines at once. Run under -race it pins that the document's lazily
// built headline tokens and phrase trees are safe to fill concurrently; both
// reports must match a check of a separately parsed copy.
func TestConcurrentChecksShareDocument(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, quickCfg())
	want := mustCheck(t, checker, document.ParseHTML(tc.HTML))

	doc := document.ParseHTML(tc.HTML)
	reps := make([]*Report, 2)
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = checker.Check(context.Background(), doc)
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertReportsIdentical(t, "shared document", want, rep)
	}
}

func TestCheckHTMLAndText(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, quickCfg())
	r1 := mustCheck(t, checker, document.ParseHTML(tc.HTML))
	if len(r1.Claims()) != len(tc.Truth) {
		t.Errorf("ParseHTML claims = %d", len(r1.Claims()))
	}
	r2 := mustCheck(t, checker, document.ParseText("There were 9 suspensions for substance abuse."))
	if len(r2.Claims()) != 1 {
		t.Fatalf("ParseText claims = %d", len(r2.Claims()))
	}
	if r2.Claims()[0].Erroneous {
		t.Error("correct claim flagged")
	}
}

func TestRenderText(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, quickCfg())
	report := mustCheck(t, checker, tc.Doc)
	out := report.RenderText(RenderOptions{Color: false, TopQueries: 2})
	if !strings.Contains(out, "claims") || !strings.Contains(out, "OK") {
		t.Errorf("render missing summary: %q", out[:120])
	}
	colored := report.RenderText(RenderOptions{Color: true})
	if !strings.Contains(colored, "\x1b[") {
		t.Error("color rendering missing ANSI codes")
	}
}

func TestMarkup(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, quickCfg())
	report := mustCheck(t, checker, tc.Doc)
	markup := report.Markup()
	if !strings.Contains(markup, "[OK]") && !strings.Contains(markup, "[WRONG") {
		t.Errorf("markup has no annotations: %q", markup)
	}
}

func TestErroneousClaims(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, quickCfg())
	report := mustCheck(t, checker, tc.Doc)
	errs := report.ErroneousClaims()
	for _, cr := range errs {
		if !cr.Erroneous {
			t.Error("ErroneousClaims returned a passing claim")
		}
	}
}

func TestRankOf(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	checker := NewChecker(tc.DB, quickCfg())
	report := mustCheck(t, checker, tc.Doc)
	cr := report.Claims()[1]
	if r := RankOf(cr, tc.Truth[1].Query); r != 0 {
		t.Errorf("rank = %d", r)
	}
	missing := sqlexec.Query{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{
		{Col: sqlexec.ColumnRef{Table: "nflsuspensions", Column: "team"}, Value: "nonexistent"}}}
	if r := RankOf(cr, missing); r != -1 {
		t.Errorf("missing query rank = %d, want -1", r)
	}
}
