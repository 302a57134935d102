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
// of the executor's composition product — topology {local, 3 in-process
// shards} × strategy {cached, merged, naive} × driver {direct Check, Audit
// window, Audit window with an append between documents} — and requires
// the per-claim fingerprints of local × cached × direct Check, bit for bit.
// Merged and naive keep per-request engines, so their audits run unpooled
// and only verdicts are compared; cached audits must also show the window
// at work, on either topology.
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
	// grow commits rows to the source and routes them to the partitions.
	grow := func(ck *Checker) {
		tbl := ck.DB.Tables()[0]
		if err := ck.DB.Append(tbl.Name, copyRows(tbl, 0, 12)...); err != nil {
			t.Fatal(err)
		}
		if _, err := ck.DB.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := ck.AbsorbShards(); err != nil {
			t.Fatal(err)
		}
	}

	// Reference: isolated checks on a local cached checker, without and with
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

	for _, shards := range []int{0, 3} {
		for _, mode := range []EvalMode{EvalCached, EvalMerged, EvalNaive} {
			for _, driver := range []string{"check", "audit", "audit+append"} {
				name := fmt.Sprintf("shards=%d/%s/%s", shards, mode, driver)
				t.Run(name, func(t *testing.T) {
					sc := mk()
					cfg := quickCfg()
					cfg.Shards, cfg.Mode = shards, mode
					ck := NewChecker(sc.DB, cfg)
					if (ck.Sharder() != nil) != (shards > 1) {
						t.Fatalf("sharder = %v with Shards = %d", ck.Sharder(), shards)
					}
					appends := driver == "audit+append"

					got := make([][]string, nDocs)
					switch driver {
					case "check":
						for i, d := range sc.Docs {
							rep := mustCheck(t, ck, d.Doc)
							got[i] = verdictPrints(rep)
							if fan := rep.Stats["shard_fanouts"]; (fan > 0) != (shards > 1) {
								t.Errorf("doc %d: shard_fanouts = %d with Shards = %d", i, fan, shards)
							}
							if shards > 1 && rep.Stats["shard_partials"] != int64(shards)*rep.Stats["shard_fanouts"] {
								t.Errorf("doc %d: %d partials over %d fan-outs of %d shards",
									i, rep.Stats["shard_partials"], rep.Stats["shard_fanouts"], shards)
							}
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
						pooled := mode == EvalCached
						if b := rep.Stats["window_batches"]; (b > 0) != pooled {
							t.Errorf("window_batches = %d in %s mode", b, mode)
						}
						if pooled && !appends && rep.SharedPasses() == 0 {
							t.Errorf("no shared passes across %d concurrent documents", nDocs)
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
		}
	}
}

// TestExecutorCancelledContext pins the cancellation contract of the one
// batch loop on both backends and both plan policies: a batch under a dead
// context answers NaN in every slot and leaves ctx.Err() for the caller,
// and a Check on top of it returns that error whatever the strategy.
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
	for _, shards := range []int{0, 3} {
		cfg := quickCfg()
		cfg.Shards = shards
		ck := NewChecker(sc.DB, cfg)
		live := ck.runner().EvaluateBatch(context.Background(), queries, sqlexec.BatchOptions{})
		for _, naive := range []bool{false, true} {
			vals := ck.runner().EvaluateBatch(ctx, queries, sqlexec.BatchOptions{Naive: naive})
			if len(vals) != len(queries) {
				t.Fatalf("shards=%d naive=%v: %d slots for %d queries", shards, naive, len(vals), len(queries))
			}
			for i, v := range vals {
				if !math.IsNaN(v) {
					t.Errorf("shards=%d naive=%v: slot %d = %v under a cancelled context (live answer %v), want NaN",
						shards, naive, i, v, live[i])
				}
			}
			if ctx.Err() == nil {
				t.Fatal("context lost its error")
			}
		}
		for _, mode := range []EvalMode{EvalCached, EvalMerged, EvalNaive} {
			if _, err := ck.Check(ctx, sc.Docs[0].Doc, WithMode(mode)); !errors.Is(err, context.Canceled) {
				t.Errorf("shards=%d %s: Check under a cancelled context returned %v", shards, mode, err)
			}
		}
	}
}
