// Command bench is the repository's one end-to-end benchmark: document
// bytes in → per-claim verdicts out, over four workloads, with per-layer
// attribution recorded from outside the program (see README.md).
//
//	go run ./bench -seed 1                                  all workloads, untraced then traced
//	go run ./bench --workload check-warm-60k --seed 7 --seconds 20 --trace 0
//	go run ./bench -trace 0 -runs 10 -out b.jsonl -against a.jsonl
//	                                                        seeds 1..10 again, each compared with its run in a.jsonl
//
// It runs from the root of the checkout, where BENCHMARK.json names the
// workloads and the metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. The exit code is
// non-zero on a wrong verdict, a failed operation or a short corpus.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"aggchecker/internal/core"
	"aggchecker/internal/sqlexec"
)

// specPath is BENCHMARK.json relative to the root of the checkout, which
// is where the driver (and go run ./bench) starts the program.
const specPath = "BENCHMARK.json"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as kept in an -out file: the result plus what it takes
// to compare it with another run.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Env      environment    `json:"env"`
	Samples  map[string]int `json:"samples"`
	Problems []string       `json:"problems,omitempty"`
	result
}

// runTrace is the spans of one traced run as written to the -spans file;
// span ids and parents are local to the run.
type runTrace struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

type environment struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"go_max_procs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed: the only knob of the generated inputs")
	seconds := flag.Float64("seconds", 0, "measuring time per run (default: run_seconds of "+specPath+")")
	trace := flag.Int("trace", -1, "0: untraced run (end-to-end metrics), 1: traced run (per-layer metrics); default both")
	runs := flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, …; 0 only compares")
	out := flag.String("out", "", "append one JSON record per run to this file")
	spans := flag.String("spans", "", "write the spans of the traced runs to this file")
	against := flag.String("against", "", "compare the runs in -out, seed by seed, with the runs in this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}

	spec, err := loadSpec(specPath)
	if err != nil {
		fatal("%v (run from the root of the checkout)", err)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var names []string
	if *workload == "all" {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := workloadImpls[*workload]; ok {
		names = []string{*workload}
	} else {
		fatal("unknown workload %q", *workload)
	}
	var modes []bool
	switch *trace {
	case -1:
		modes = []bool{false, true}
	case 0, 1:
		modes = []bool{*trace == 1}
	default:
		fatal("-trace %d: want 0 or 1", *trace)
	}
	if *against != "" && *out == "" {
		fatal("-against needs -out, the file holding the runs to compare")
	}

	env := currentEnvironment()
	fmt.Printf("# go %s, go_max_procs %d, nproc %d, cpu %q, commit %s\n",
		env.GoVersion, env.GoMaxProcs, env.NProc, env.CPU, env.Commit)

	// One morsel scheduler of GOMAXPROCS width for the process, as the
	// aggcheck and aggcheckd binaries wire it; everything else is
	// core.DefaultConfig().
	sched := sqlexec.NewScheduler(0)
	defer sched.Close()
	cfg := core.DefaultConfig()
	cfg.Exec = []sqlexec.ExecOption{sqlexec.WithScheduler(sched)}

	ok := true
	var last *record
	var traces []runTrace
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			for _, traced := range modes {
				r := &run{
					workload: name, impl: workloadImpls[name], spec: spec,
					seed: *seed + int64(i), seconds: *seconds, trace: traced,
					ctx: context.Background(), cfg: cfg,
				}
				rec, err := r.execute()
				if err != nil {
					sched.Close()
					fatal("%s seed %d: %v", name, r.seed, err)
				}
				rec.Env = env
				rec.print(os.Stdout, spec)
				if *out != "" {
					if err := appendRecord(*out, rec); err != nil {
						fatal("%v", err)
					}
				}
				if r.rec != nil && *spans != "" {
					traces = append(traces, runTrace{name, r.seed, r.rec.snapshot()})
				}
				ok = ok && rec.Correct
				last = rec
				// Leave the next run a clean heap.
				r = nil
				runtime.GC()
				debug.FreeOSMemory()
			}
		}
	}
	if *spans != "" {
		if err := writeJSON(*spans, traces); err != nil {
			fatal("%v", err)
		}
	}
	if *against != "" {
		regressed, err := compareFiles(os.Stdout, spec, *against, *out)
		if err != nil {
			fatal("%v", err)
		}
		ok = ok && !regressed
	}
	if last != nil {
		line, err := json.Marshal(last.result)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		sched.Close()
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// execute performs one run: generate the inputs, set up, measure, verify,
// and fold everything into a record.
func (r *run) execute() (*record, error) {
	r.counts = make(map[string]int64)
	r.values = make(map[string]float64)
	if r.trace {
		r.rec = newRecorder()
	}
	if err := r.generate(); err != nil {
		return nil, err
	}
	r.timeCatalogBuild()

	if err := r.impl.run(r); err != nil {
		return nil, err
	}
	if r.docs > 0 {
		r.values["runtime.alloc_mb_per_doc"] = float64(r.allocBytes) / (1 << 20) / float64(r.docs)
		r.values["runtime.gc_pause_ms"] = float64(r.gcPauseNs) / 1e6 / float64(r.docs)
	}
	r.values["runtime.peak_rss_mb"] = peakRSSMB()

	if len(r.roundRate) == 0 || len(r.lat) == 0 || len(r.setup) == 0 {
		r.problem("no timed operation completed")
	}
	if r.failed > 0 {
		r.problem("%d of %d operations failed", r.failed, r.attempted)
	}

	rec := &record{
		Workload: r.workload, Seed: r.seed, Trace: r.trace, Seconds: r.seconds,
		Samples:  map[string]int{},
		Problems: r.problems,
		result: result{
			Correct:   len(r.problems) == 0,
			Attempted: r.attempted,
			Failed:    r.failed,
			Metrics:   map[string]metricValue{},
		},
	}
	defs, values := r.spec.EndToEnd, map[string]float64(nil)
	if r.trace {
		defs, values = r.spec.PerLayer, r.perLayerValues(rec.Samples)
	} else {
		values = r.endToEndValues(rec.Samples)
	}
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return rec, nil
}

func (r *run) endToEndValues(samples map[string]int) map[string]float64 {
	samples["setup_s"] = len(r.setup)
	samples["check_p50_ms"] = len(r.lat)
	samples["docs_per_s"] = len(r.roundRate)
	samples["verdict_f1"] = r.conf.Total()
	return map[string]float64{
		"setup_s":      median(r.setup),
		"check_p50_ms": median(r.lat),
		"docs_per_s":   median(r.roundRate),
		"verdict_f1":   r.conf.F1(),
	}
}

// perLayerValues derives the per-layer metrics of a traced run: times from
// the spans (self time = span minus children), counts from the Report.Stats
// and AuditReport.Stats diffs of the untraced operations beside them.
func (r *run) perLayerValues(samples map[string]int) map[string]float64 {
	v := r.values
	layers := layerTotals(r.rec.snapshot())
	perDoc := func(name string, self bool) float64 {
		lt := layers[name]
		if lt == nil || r.tracedRuns == 0 {
			return 0
		}
		samples[name] = lt.count
		if self {
			return ms(lt.self) / float64(r.tracedRuns)
		}
		return ms(lt.total) / float64(r.tracedRuns)
	}
	if lt := layers["document.parse"]; lt != nil {
		samples["document.parse_ms"] = lt.count
		v["document.parse_ms"] = ms(lt.total) / float64(lt.count)
	}
	v["keywords.match_ms"] = perDoc("keywords.match", false)
	v["model.run_self_ms"] = perDoc("model.run", true)
	v["evaluate.batch_ms"] = perDoc("evaluate.batch", false)
	if lt := layers["evaluate.batch"]; lt != nil && r.tracedRuns > 0 {
		v["evaluate.batches_per_doc"] = float64(lt.count) / float64(r.tracedRuns)
	}
	if r.tracedRuns > 0 {
		v["model.em_iterations"] = float64(r.emIters) / float64(r.tracedRuns)
		v["model.evaluated_queries"] = float64(r.evaluated) / float64(r.tracedRuns)
		if lt := layers["evaluate.batch"]; lt != nil {
			v["evaluate.queries_per_batch"] = float64(r.evaluated) / float64(lt.count)
		}
	}
	if t := r.replay; t.docs > 0 {
		samples["replay_docs"] = t.docs
		v["sqlexec.plan_ms"] = float64(t.planNs) / 1e6 / float64(t.docs)
		v["model.space_build_ms"] = float64(t.spaceNs) / 1e6 / float64(t.docs)
		if t.claims > 0 {
			v["model.candidates_per_claim"] = float64(t.candidates) / float64(t.claims)
		}
		if t.passRows > 0 {
			v["sqlexec.cube_pass_ns_per_row"] = float64(t.passNs) / float64(t.passRows)
		}
		if t.answers > 0 {
			v["sqlexec.answer_ns_per_query"] = float64(t.answerNs) / float64(t.answers)
		}
	}

	c := r.counts
	if n := float64(r.docs); n > 0 {
		v["sqlexec.planned_cubes_per_doc"] = float64(c["planned_cubes"]) / n
		v["sqlexec.cube_passes_per_doc"] = float64(c["cube_passes"]) / n
		v["sqlexec.rows_scanned_per_doc"] = float64(c["rows_scanned"]) / n
		v["sqlexec.direct_queries_per_doc"] = float64(c["direct_queries"]) / n
	}
	if tot := c["blocks_scanned"] + c["blocks_pruned"]; tot > 0 {
		v["sqlexec.blocks_pruned_share"] = float64(c["blocks_pruned"]) / float64(tot)
	}
	if tot := c["cache_hits"] + c["cache_misses"]; tot > 0 {
		v["sqlexec.cache.hit_rate"] = float64(c["cache_hits"]) / float64(tot)
	}
	for name, key := range map[string]string{
		"sqlexec.cache.evictions":     "cube_cache_evictions",
		"sqlexec.cache.admit_rejects": "cube_cache_admit_rejects",
		"sqlexec.shared_passes":       "shared_passes",
		"sqlexec.window.batches":      "window_batches",
		"sqlexec.window.flushes":      "window_flushes",
		"sqlexec.sched.morsels":       "morsels_dispatched",
		"sqlexec.sched.queue_waits":   "queue_waits",
		"sqlexec.sched.steals":        "steal_count",
		"sqlexec.delta.scans":         "delta_scans",
		"sqlexec.delta.blocks":        "blocks_delta",
		"sqlexec.full_rebuilds":       "full_rebuilds",
		"sqlexec.epoch_rebuilds":      "epoch_rebuilds",
	} {
		v[name] = float64(c[key])
	}

	if r.reports > 0 {
		v["core.check_total_ms"] = r.totalMs / float64(r.reports)
		if r.totalMs > 0 {
			v["core.query_share"] = r.queryMs / r.totalMs
		}
	}
	pct := tailPercentile(len(r.lat))
	v["core.check_tail_pct"] = pct
	v["core.check_tail_ms"] = percentile(r.lat, pct)
	v["core.check_samples"] = float64(len(r.lat))
	samples["core.check_tail_ms"] = len(r.lat)
	v["core.fresh_verdict_p50_ms"] = median(r.fresh)
	samples["core.fresh_verdict_p50_ms"] = len(r.fresh)
	if r.attempted > 0 {
		v["core.failed_share"] = float64(r.failed) / float64(r.attempted)
	}
	v["bench.generate_s"] = r.generateS
	if r.busy > 0 && r.tracedBusy > 0 {
		untraced := float64(r.docs) / r.busy.Seconds()
		traced := float64(r.tracedDocs) / r.tracedBusy.Seconds()
		v["bench.trace_overhead_pct"] = 100 * (untraced - traced) / untraced
	}
	return v
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// print writes the run's metrics by name, each with its unit and, where
// it summarizes a sample, the sample count.
func (rec *record) print(w io.Writer, spec *benchmarkSpec) {
	mode, defs := "untraced", spec.EndToEnd
	if rec.Trace {
		mode, defs = "traced", spec.PerLayer
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  %.0fs ==\n# %s\n", rec.Workload, rec.Seed, mode, rec.Seconds, spec.why(rec.Workload))
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		line := fmt.Sprintf("%-32s %14.4f %-10s", d.Name, m.Value, m.Unit)
		if n, ok := rec.Samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %t\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
