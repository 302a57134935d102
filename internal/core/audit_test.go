package core

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
)

func auditDocsOf(sc *corpus.SharedCorpus) []AuditDoc {
	docs := make([]AuditDoc, len(sc.Docs))
	for i, d := range sc.Docs {
		docs[i] = AuditDoc{Name: d.Name, Doc: d.Doc}
	}
	return docs
}

// assertReportsIdentical requires bit-for-bit identical verdicts: same
// erroneous flags, same confidences, and the same ranked translations with
// the same query results. Exact float equality is deliberate — audit mode
// promises the same numbers as isolated checking, not close ones.
func assertReportsIdentical(t *testing.T, label string, want, got *Report) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no report", label)
	}
	if len(want.Claims()) != len(got.Claims()) {
		t.Fatalf("%s: claims = %d, want %d", label, len(got.Claims()), len(want.Claims()))
	}
	for i := range want.Claims() {
		w, g := want.Claims()[i], got.Claims()[i]
		if g.Erroneous != w.Erroneous {
			t.Errorf("%s claim %d: erroneous = %v, want %v", label, i, g.Erroneous, w.Erroneous)
		}
		if g.PCorrect != w.PCorrect {
			t.Errorf("%s claim %d: p = %v, want %v", label, i, g.PCorrect, w.PCorrect)
		}
		if len(g.Ranked) != len(w.Ranked) {
			t.Fatalf("%s claim %d: ranked = %d, want %d", label, i, len(g.Ranked), len(w.Ranked))
		}
		for j := range w.Ranked {
			wr, gr := w.Ranked[j], g.Ranked[j]
			if gr.Query.Key() != wr.Query.Key() {
				t.Errorf("%s claim %d rank %d: query %s, want %s", label, i, j, gr.Query.Key(), wr.Query.Key())
			}
			if gr.Prob != wr.Prob || gr.Matches != wr.Matches {
				t.Errorf("%s claim %d rank %d: prob/match %v/%v, want %v/%v",
					label, i, j, gr.Prob, gr.Matches, wr.Prob, wr.Matches)
			}
			if gr.Result != wr.Result && !(math.IsNaN(gr.Result) && math.IsNaN(wr.Result)) {
				t.Errorf("%s claim %d rank %d: result %v, want %v", label, i, j, gr.Result, wr.Result)
			}
		}
	}
}

// TestAuditMatchesIsolatedChecks is the differential suite pinning the
// tentpole invariant: audit-mode verdicts are bit-for-bit identical to
// checking each document in isolation, across randomized corpora whose
// documents mix overlapping and disjoint predicate scopes (each document
// picks its own theme column and sections over the shared tables).
func TestAuditMatchesIsolatedChecks(t *testing.T) {
	for _, tt := range []struct {
		domain string
		seed   int64
		nDocs  int
	}{
		{"sports", 42, 8},
		{"politics", 7, 6},
		{"survey", 99, 10},
	} {
		sc, err := corpus.GenerateSharedCorpus(tt.domain, tt.seed, tt.nDocs, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewChecker(sc.DB, quickCfg()).Audit(context.Background(), auditDocsOf(sc))
		if err != nil {
			t.Fatalf("%s: audit: %v", tt.domain, err)
		}
		if rep.Checked != tt.nDocs || rep.Failed != 0 {
			t.Fatalf("%s: checked %d failed %d, want %d/0", tt.domain, rep.Checked, rep.Failed, tt.nDocs)
		}
		if rep.SharedPasses() == 0 {
			t.Errorf("%s: no shared passes across %d concurrent documents", tt.domain, tt.nDocs)
		}
		if rep.Stats["window_flushes"] == 0 || rep.Stats["window_batches"] == 0 {
			t.Errorf("%s: window never engaged: %+v", tt.domain, rep.Stats)
		}
		// Isolated baseline: a fresh checker (fresh engine, cold cache) per
		// corpus, each document checked alone.
		iso := NewChecker(sc.DB, quickCfg())
		for i, d := range sc.Docs {
			want, err := iso.Check(context.Background(), d.Doc)
			if err != nil {
				t.Fatal(err)
			}
			assertReportsIdentical(t, tt.domain+"/"+d.Name, want, rep.Docs[i].Report)
			if rep.Docs[i].Name != d.Name {
				t.Errorf("doc %d: name %q, want %q", i, rep.Docs[i].Name, d.Name)
			}
		}
	}
}

// copyRows duplicates n existing rows of the table as Append payloads, so
// append tests grow the data without changing its value distribution shape.
func copyRows(tbl *db.Table, from, n int) [][]any {
	var rows [][]any
	for r := from; r < from+n && r < tbl.NumRows(); r++ {
		row := make([]any, len(tbl.Columns))
		for ci, col := range tbl.Columns {
			if col.Kind == db.KindString {
				row[ci] = col.StringAt(r)
			} else {
				row[ci] = col.Float(r)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// TestAuditMatchesIsolatedWithAppends pins the snapshot-version grouping:
// rows committed between documents must not leak across the planning
// window. The audit runs with concurrency 1 (progress fires strictly
// between documents), appending rows mid-corpus; the isolated baseline
// replays the same append schedule against an identically generated
// database.
func TestAuditMatchesIsolatedWithAppends(t *testing.T) {
	const nDocs, appendAt = 6, 2
	mk := func() *corpus.SharedCorpus {
		sc, err := corpus.GenerateSharedCorpus("economy", 123, nDocs, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	auditSC, isoSC := mk(), mk()

	appendAndCommit := func(d *db.Database) {
		tbl := d.Tables()[0]
		if err := d.Append(tbl.Name, copyRows(tbl, 0, 12)...); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := NewChecker(auditSC.DB, quickCfg()).Audit(context.Background(), auditDocsOf(auditSC),
		WithAuditConcurrency(1),
		WithAuditProgress(func(i int, _ DocReport) {
			if i == appendAt {
				appendAndCommit(auditSC.DB)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}

	iso := NewChecker(isoSC.DB, quickCfg())
	for i, d := range isoSC.Docs {
		want, err := iso.Check(context.Background(), d.Doc)
		if err != nil {
			t.Fatal(err)
		}
		assertReportsIdentical(t, d.Name, want, rep.Docs[i].Report)
		if i == appendAt {
			appendAndCommit(isoSC.DB)
		}
	}
}

// TestAuditCancellation: cancelling mid-audit stops feeding documents,
// reports per-document errors for the unfed remainder, and surfaces the
// context error.
func TestAuditCancellation(t *testing.T) {
	sc, err := corpus.GenerateSharedCorpus("sports", 5, 6, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool
	rep, err := NewChecker(sc.DB, quickCfg()).Audit(ctx, auditDocsOf(sc),
		WithAuditConcurrency(1),
		WithAuditProgress(func(i int, _ DocReport) {
			if !fired.Swap(true) {
				cancel()
			}
		}))
	if err == nil {
		t.Fatal("audit returned nil error after cancellation")
	}
	if rep.Checked+rep.Failed != len(sc.Docs) {
		t.Fatalf("checked %d + failed %d != %d docs", rep.Checked, rep.Failed, len(sc.Docs))
	}
	if rep.Failed == 0 {
		t.Error("cancellation failed no documents")
	}
	for _, dr := range rep.Docs {
		if dr.Report == nil && dr.Err == nil {
			t.Errorf("doc %s: neither report nor error", dr.Name)
		}
	}
}

// TestAuditReportTotals: corpus totals agree with the per-document reports
// and the cache snapshot is populated.
func TestAuditReportTotals(t *testing.T) {
	sc, err := corpus.GenerateSharedCorpus("reference", 11, 5, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewChecker(sc.DB, quickCfg()).Audit(context.Background(), auditDocsOf(sc))
	if err != nil {
		t.Fatal(err)
	}
	claims, errs := 0, 0
	for _, dr := range rep.Docs {
		claims += len(dr.Report.Claims())
		errs += len(dr.Report.ErroneousClaims())
	}
	if rep.Claims != claims || rep.Erroneous != errs {
		t.Errorf("totals %d/%d, want %d/%d", rep.Claims, rep.Erroneous, claims, errs)
	}
	if rep.Cache == nil {
		t.Fatal("no cache stats")
	}
	if rep.Cache.Entries <= 0 || rep.Cache.Bytes <= 0 {
		t.Errorf("cache residency empty: %+v", rep.Cache)
	}
	if rep.Cache.Hits == 0 {
		t.Error("corpus audit recorded no cache hits")
	}
	if rep.Cache.NsSaved <= 0 || rep.Cache.BytesSaved <= 0 {
		t.Errorf("cache economics empty: ns=%d bytes=%d", rep.Cache.NsSaved, rep.Cache.BytesSaved)
	}
}

// TestStatusReportsCacheStats: cube-cache residency shows up in Status for
// an ordinary resident database, outside audit mode (satellite of the
// corpus-audit change).
func TestStatusReportsCacheStats(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	svc := NewService(WithDefaultConfig(quickCfg()))
	if err := svc.RegisterSource("nfl", db.SourceFunc(func(context.Context) (*db.Database, error) { return tc.DB, nil })); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Check(context.Background(), "nfl", tc.Doc); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Status("nfl")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil {
		t.Fatal("Status.Cache nil for resident database")
	}
	if st.Cache.Entries <= 0 || st.Cache.Bytes <= 0 {
		t.Errorf("cache empty after a check: %+v", st.Cache)
	}
	if st.Cache.Misses == 0 {
		t.Error("no cache misses recorded after a cold check")
	}
}
