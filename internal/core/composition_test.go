package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
	"aggchecker/internal/sqlexec"
)

// verdictPrints fingerprints a report per claim: the erroneous flag and
// the whole ranking — each translation's canonical key, match flag, and the
// bit patterns of its probability and result. Equal prints imply equal
// fingerprints under the end-to-end benchmark's coarser definition
// (erroneous flag, top-1 key, result to six significant digits).
func verdictPrints(rep *Report) []string {
	out := make([]string, len(rep.Claims()))
	for i, c := range rep.Claims() {
		out[i] = fmt.Sprintf("erroneous=%t", c.Erroneous)
		for _, rq := range c.Ranked {
			out[i] += fmt.Sprintf("\n%s p=%x r=%x match=%t", rq.Query.Key(),
				math.Float64bits(rq.Prob), math.Float64bits(rq.Result), rq.Matches)
		}
	}
	return out
}

// TestExecutorCompositionDifferential runs one corpus through every point
// of the executor's composition product — strategy {merged+cached, merged:
// caching on or off through Config.Exec} × driver {direct Check, Audit
// window, Audit window with an append between documents} × pool width —
// and requires the per-claim fingerprints of cached × direct Check on the
// default pool, bit for bit. Every audit must also show the window at work
// and count the rows it scanned, on either strategy. The leading shards=0
// level names the one topology left, a single unpartitioned engine: each
// point keeps the name it had when partitioned topologies ran beside it,
// so its results stay comparable across that change.
func TestExecutorCompositionDifferential(t *testing.T) {
	const nDocs, appendAt = 6, 2
	mk := func() *corpus.SharedCorpus {
		sc, err := corpus.GenerateSharedCorpus("economy", 123, nDocs, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	ctx := context.Background()
	// grow commits rows to the checker's database.
	grow := func(ck *Checker) {
		tbl := ck.DB.Tables()[0]
		if err := ck.DB.Append(tbl.Name, copyRows(tbl, 0, 12)...); err != nil {
			t.Fatal(err)
		}
		if _, err := ck.DB.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Reference: isolated checks on a cached checker, without and with
	// the append after document appendAt.
	reference := func(appends bool) [][]string {
		sc := mk()
		ck := NewChecker(sc.DB, quickCfg())
		var out [][]string
		for i, d := range sc.Docs {
			out = append(out, verdictPrints(mustCheck(t, ck, d.Doc)))
			if appends && i == appendAt {
				grow(ck)
			}
		}
		return out
	}
	want := map[bool][][]string{false: reference(false), true: reference(true)}

	for _, caching := range []bool{true, false} {
		strategy := "merged+cached"
		if !caching {
			strategy = "merged"
		}
		for _, driver := range []string{"check", "audit", "audit+append"} {
			t.Run("shards=0/"+strategy+"/"+driver, func(t *testing.T) {
				for _, width := range []int{1, 4} {
					t.Run(fmt.Sprintf("workers=%d", width), func(t *testing.T) {
						sched := sqlexec.NewScheduler(width)
						defer sched.Close()
						sc := mk()
						cfg := quickCfg()
						cfg.Exec = []sqlexec.ExecOption{sqlexec.WithCaching(caching), sqlexec.WithScheduler(sched)}
						ck := NewChecker(sc.DB, cfg)
						appends := driver == "audit+append"

						got := make([][]string, nDocs)
						switch driver {
						case "check":
							for i, d := range sc.Docs {
								got[i] = verdictPrints(mustCheck(t, ck, d.Doc))
							}
						default:
							var opts []AuditOption
							if appends {
								// Concurrency 1: progress fires strictly between
								// documents, so the append schedule is the reference's.
								opts = append(opts, WithAuditConcurrency(1), WithAuditProgress(func(i int, _ DocReport) {
									if i == appendAt {
										grow(ck)
									}
								}))
							}
							rep, err := ck.Audit(ctx, auditDocsOf(sc), opts...)
							if err != nil {
								t.Fatal(err)
							}
							if rep.Checked != nDocs || rep.Failed != 0 {
								t.Fatalf("checked %d failed %d, want %d/0", rep.Checked, rep.Failed, nDocs)
							}
							for i, dr := range rep.Docs {
								got[i] = verdictPrints(dr.Report)
							}
							if b := rep.Stats["window_batches"]; b == 0 {
								t.Error("window_batches = 0: the audit bypassed its window")
							}
							if !appends && rep.SharedPasses() == 0 {
								t.Errorf("no shared passes across %d concurrent documents", nDocs)
							}
							if rep.Stats["rows_scanned"] == 0 {
								t.Error("audit stats count no scanned rows")
							}
						}

						for i := range got {
							w := want[appends][i]
							if len(got[i]) != len(w) {
								t.Fatalf("doc %d: %d claims, want %d", i, len(got[i]), len(w))
							}
							for j := range w {
								if got[i][j] != w[j] {
									t.Errorf("doc %d claim %d: %s, want %s", i, j, got[i][j], w[j])
								}
							}
						}
					})
				}
			})
		}
	}
}

// TestExecutorCancelledContext pins the cancellation contract of the one
// batch loop under both plan policies: a batch under a dead context answers
// NaN in every slot and leaves ctx.Err() for the caller, and a Check on top
// of it returns that error.
func TestExecutorCancelledContext(t *testing.T) {
	sc, err := corpus.GenerateSharedCorpus("economy", 123, 1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := sc.DB.Tables()[0]
	var queries []sqlexec.Query
	for _, col := range tbl.Columns {
		if col.Kind == db.KindString {
			ref := sqlexec.ColumnRef{Table: tbl.Name, Column: col.Name}
			queries = append(queries,
				sqlexec.Query{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{{Col: ref, Value: col.StringAt(0)}}},
				sqlexec.Query{Agg: sqlexec.CountDistinct, AggCol: ref})
		}
	}
	queries = append(queries, sqlexec.Query{Agg: sqlexec.Count})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ck := NewChecker(sc.DB, quickCfg())
	live := ck.Engine.EvaluateBatch(context.Background(), queries, sqlexec.BatchOptions{})
	for _, naive := range []bool{false, true} {
		vals := ck.Engine.EvaluateBatch(ctx, queries, sqlexec.BatchOptions{Naive: naive})
		if len(vals) != len(queries) {
			t.Fatalf("naive=%v: %d slots for %d queries", naive, len(vals), len(queries))
		}
		for i, v := range vals {
			if !math.IsNaN(v) {
				t.Errorf("naive=%v: slot %d = %v under a cancelled context (live answer %v), want NaN",
					naive, i, v, live[i])
			}
		}
		if ctx.Err() == nil {
			t.Fatal("context lost its error")
		}
	}
	if _, err := ck.Check(ctx, sc.Docs[0].Doc); !errors.Is(err, context.Canceled) {
		t.Errorf("Check under a cancelled context returned %v", err)
	}
}

// TestExecReachesEveryEngine pins that Config.Exec configures the engine a
// checker builds, since engine settings are fixed at construction.
func TestExecReachesEveryEngine(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	const budget = 12345
	cfg := quickCfg()
	cfg.Exec = []sqlexec.ExecOption{sqlexec.WithCubeCacheBudget(budget)}
	ck := NewChecker(tc.DB, cfg)
	if got := ck.Engine.CubeCacheBudget(); got != budget {
		t.Errorf("checker engine: budget %d, want %d", got, budget)
	}
	if !ck.Engine.CachingEnabled() {
		t.Error("checker engine: caching off")
	}
}
