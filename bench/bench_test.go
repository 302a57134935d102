package main

import (
	"context"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/sqlexec"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {320, 95}, {999, 95}, {1000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for p, want := range map[float64]float64{0: 10, 50: 25, 100: 40, 75: 32.5} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the function the acceptance rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "check", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 20},
		{ID: 5, Parent: 2, Name: "e", Start: 25, End: 25}, // empty
	}
	want := []int64{50, 15, 30, 30, 5, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	totals := layerTotals(spans)
	if lt := totals["check"]; lt.count != 1 || lt.total != 100 || lt.self != 50 {
		t.Errorf("layer total of check = %+v", *lt)
	}
}

func TestCompareMetric(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	// Seeds differ a lot from each other, but each seed repeats: paired by
	// seed that is a steady metric.
	mixed := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	noisy := []float64{140, 60, 120, 80, 100, 130, 70, 110, 90, 100}
	oneSeedDown := append([]float64(nil), steady...)
	oneSeedDown[3] = 99.5
	for _, tc := range []struct {
		name      string
		better    string
		bound     float64
		prev, cur []float64
		want      string
	}{
		{"same", "lower", 0.10, steady, steady, "ok"},
		{"latency up 20%", "lower", 0.10, steady, scale(steady, 1.2), "regressed"},
		{"latency down 20%", "lower", 0.10, steady, scale(steady, 0.8), "ok"},
		{"throughput down 20%", "higher", 0.10, steady, scale(steady, 0.8), "regressed"},
		{"throughput up 20%", "higher", 0.10, steady, scale(steady, 1.2), "ok"},
		{"within bound", "lower", 0.10, steady, scale(steady, 1.05), "ok"},
		{"seeds differ, pairs agree", "lower", 0.10, mixed, scale(mixed, 1.05), "ok"},
		{"seeds differ, pairs regress", "lower", 0.10, mixed, scale(mixed, 1.2), "regressed"},
		{"pairs spread wider than bound", "lower", 0.10, mixed, noisy, "unresolved"},
		{"set-up is held to its spread too", "lower", 0.15, mixed, noisy, "unresolved"},
		{"exact, equal", "higher", 0, mixed, mixed, "ok"},
		{"exact, every seed up", "higher", 0, steady, scale(steady, 1.01), "ok"},
		{"exact, one seed down", "higher", 0, steady, oneSeedDown, "regressed"},
	} {
		if got := compareMetric(tc.better, tc.bound, tc.prev, tc.cur).status; got != tc.want {
			t.Errorf("%s: status %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareFiles drives the -against gate end to end: runs are paired by
// seed, a verdict_f1 drop on a single seed is a regression however small,
// and files that do not hold the same seeds are refused.
func TestCompareFiles(t *testing.T) {
	spec := loadTestSpec(t)
	workload := spec.Workloads[0].Name
	write := func(name string, f1 map[int64]float64) string {
		path := t.TempDir() + "/" + name
		for seed, v := range f1 {
			rec := &record{Workload: workload, Seed: seed, result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
			for _, d := range spec.EndToEnd {
				// Timings differ between seeds, never between the two files.
				rec.Metrics[d.Name] = metricValue{Value: 10 * float64(seed), Unit: d.Unit}
			}
			rec.Metrics["verdict_f1"] = metricValue{Value: v, Unit: "share"}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	prev := write("prev.jsonl", map[int64]float64{1: 0.60, 2: 0.70, 3: 0.65})
	for _, tc := range []struct {
		name      string
		cur       map[int64]float64
		regressed bool
		refused   bool
	}{
		{"same verdicts", map[int64]float64{1: 0.60, 2: 0.70, 3: 0.65}, false, false},
		{"better verdicts", map[int64]float64{1: 0.61, 2: 0.70, 3: 0.65}, false, false},
		{"one seed drops, median unchanged", map[int64]float64{1: 0.60, 2: 0.69, 3: 0.65}, true, false},
		{"other seeds", map[int64]float64{1: 0.60, 2: 0.70, 4: 0.65}, false, true},
		{"fewer seeds", map[int64]float64{1: 0.60, 2: 0.70}, false, true},
		{"more seeds", map[int64]float64{1: 0.60, 2: 0.70, 3: 0.65, 4: 0.65}, false, true},
	} {
		regressed, err := compareFiles(io.Discard, spec, prev, write("cur.jsonl", tc.cur))
		if (err != nil) != tc.refused || regressed != tc.regressed {
			t.Errorf("%s: regressed %t, err %v; want regressed %t, refused %t", tc.name, regressed, err, tc.regressed, tc.refused)
		}
	}
}

func loadTestSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// corpusChecksums hashes what the program receives: the raw HTML of every
// document and every cell of the shared table.
func corpusChecksums(sc *corpus.SharedCorpus) (html, rows uint64) {
	h := fnv.New64a()
	for _, tc := range sc.Docs {
		h.Write([]byte(tc.HTML))
	}
	html = h.Sum64()
	h = fnv.New64a()
	for _, tv := range sc.DB.Snapshot().Tables() {
		for _, c := range tv.Columns() {
			for i := 0; i < tv.NumRows(); i++ {
				h.Write([]byte(c.StringAt(i)))
				h.Write([]byte{0})
			}
		}
	}
	return html, h.Sum64()
}

func miniature(impl workloadImpl) workloadImpl {
	impl.rows, impl.docs = 3000, 3
	return impl
}

func TestGeneratorDeterminism(t *testing.T) {
	sums := func(seed int64) (uint64, uint64) {
		r := &run{impl: miniature(workloadImpls["check-warm-60k"]), seed: seed}
		if err := r.generate(); err != nil {
			t.Fatal(err)
		}
		return corpusChecksums(r.corpus)
	}
	h1, r1 := sums(1)
	h1b, r1b := sums(1)
	h2, r2 := sums(2)
	if h1 != h1b || r1 != r1b {
		t.Errorf("seed 1 generated different inputs twice: html %x/%x rows %x/%x", h1, h1b, r1, r1b)
	}
	if h1 == h2 || r1 == r2 {
		t.Errorf("seeds 1 and 2 generated equal inputs: html %x/%x rows %x/%x", h1, h2, r1, r2)
	}
}

func TestShortCorpusIsRefused(t *testing.T) {
	impl := miniature(workloadImpls["check-warm-60k"])
	impl.rows = 0 // the generator falls back to its small randomized table
	r := &run{impl: impl, seed: 1}
	if err := r.generate(); err == nil {
		t.Error("a corpus with fewer rows than requested was accepted")
	}
}

// TestMiniatureWorkloads runs all four workloads, untraced and traced, at
// a size that fits tier-1: every correctness gate must hold, every metric
// BENCHMARK.json lists must be reported, every end-to-end metric must be
// positive on every workload, and every per-layer metric must be computed
// (non-zero) on at least one of them, which a misspelt name never is.
func TestMiniatureWorkloads(t *testing.T) {
	spec := loadTestSpec(t)
	sched := sqlexec.NewScheduler(0)
	defer sched.Close()
	cfg := core.DefaultConfig()
	cfg.Exec = []sqlexec.ExecOption{sqlexec.WithScheduler(sched)}
	// A tenth of the default candidate budget: the miniature exercises the
	// harness and its gates, and must stay cheap inside tier-1.
	cfg.Model.EvalBudget = 200
	// The refresh store goes under the working directory.
	t.Chdir(t.TempDir())
	computed := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			r := &run{
				workload: w.Name, impl: miniature(workloadImpls[w.Name]), spec: spec,
				seed: 1, seconds: 0.05, trace: traced, ctx: context.Background(), cfg: cfg,
			}
			rec, err := r.execute()
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%t: correct %t, failed %d of %d: %v",
					w.Name, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
			}
			defs := spec.EndToEnd
			if traced {
				defs = spec.PerLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics reported, want %d", w.Name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%t: metric %s = %+v (reported %t)", w.Name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, m.Value)
				}
				computed[d.Name] = computed[d.Name] || m.Value != 0
			}
		}
	}
	for _, d := range spec.PerLayer {
		if !computed[d.Name] && !zeroAtMiniature[d.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload: not computed?", d.Name)
		}
	}
}

// zeroAtMiniature are counters of things that do not happen on three
// documents over 3000 rows: the table is one block below the engine's
// parallel-pass threshold, and everything fits every cache.
var zeroAtMiniature = map[string]bool{
	"sqlexec.direct_queries_per_doc": true,
	"sqlexec.blocks_pruned_share":    true,
	"sqlexec.cache.evictions":        true,
	"sqlexec.cache.admit_rejects":    true,
	"sqlexec.sched.morsels":          true,
	"sqlexec.sched.queue_waits":      true,
	"sqlexec.sched.steals":           true,
	"sqlexec.full_rebuilds":          true,
	"sqlexec.epoch_rebuilds":         true,
	"core.failed_share":              true,
}
