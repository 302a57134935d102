package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads the untraced runs of a record file, by workload and
// seed. A seed run more than once keeps its last run.
func readRecords(path string) (map[string]map[int64]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := make(map[string]map[int64]*record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec := &record{}
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if byWorkload[rec.Workload] == nil {
			byWorkload[rec.Workload] = make(map[int64]*record)
		}
		byWorkload[rec.Workload][rec.Seed] = rec
	}
	return byWorkload, sc.Err()
}

// pairedBounds are the bounds -against holds a change to, as shares of the
// previous value. They are tighter than BENCHMARK.json's, which the driver
// applies to medians over ten different seeds and which the seed-to-seed
// spread of the document mix (7–18%) therefore sets. -against compares two
// runs of the same seed, so the document mix cancels and only the box's
// run-to-run noise is left: 6–13% between the quartiles of ten per-seed
// changes (README, "Steadiness"), which is why the timings are held to 15%
// and not to the 10% the issue hoped for. A metric without an entry keeps
// its BENCHMARK.json bound. verdict_f1 is deterministic for a seed: its
// bound is 0 and any drop on any seed is a regression.
var pairedBounds = map[string]float64{
	"setup_s":      0.15,
	"check_p50_ms": 0.15,
	"docs_per_s":   0.15,
	"verdict_f1":   0,
}

// verdict is the outcome of comparing one end-to-end metric on one
// workload between two sets of runs on the same seeds.
type verdict struct {
	prevMedian, curMedian float64
	worse                 float64 // median over seeds of the share by which cur is worse than prev; negative when better. At bound 0: the worst seed
	spread                float64 // distance between the quartiles of those per-seed shares
	status                string  // ok, regressed or unresolved
}

// compareMetric applies the acceptance rule to prev[i] and cur[i], two
// runs of one seed: a metric whose per-seed changes spread wider than its
// bound cannot be resolved at that bound; otherwise it regressed when the
// median change is worse than the bound. A bound of 0 asks for exact
// agreement: any seed that got worse is a regression.
func compareMetric(better string, bound float64, prev, cur []float64) verdict {
	v := verdict{prevMedian: median(prev), curMedian: median(cur)}
	worse := make([]float64, len(prev))
	for i := range prev {
		if prev[i] != 0 {
			worse[i] = (cur[i] - prev[i]) / math.Abs(prev[i])
		}
		if better == "higher" && worse[i] != 0 { // no -0 for an unchanged value
			worse[i] = -worse[i]
		}
	}
	v.worse = median(worse)
	if len(worse) >= 2 {
		q1, _, q3 := quartiles(worse)
		v.spread = q3 - q1
	}
	switch {
	case bound == 0:
		v.worse = sorted(worse)[len(worse)-1]
		v.status = "ok"
		if v.worse > 0 {
			v.status = "regressed"
		}
	case v.spread > bound:
		v.status = "unresolved"
	case v.worse > bound:
		v.status = "regressed"
	default:
		v.status = "ok"
	}
	return v
}

// compareFiles prints, per workload row, each end-to-end metric's change
// from the runs in prevPath to the runs in curPath against its bound, and
// reports whether any metric regressed. Both files must hold the same
// seeds of a workload, so that every run is compared with a run on the
// same inputs.
func compareFiles(w io.Writer, spec *benchmarkSpec, prevPath, curPath string) (regressed bool, err error) {
	prev, err := readRecords(prevPath)
	if err != nil {
		return false, err
	}
	cur, err := readRecords(curPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "\n== %s against %s, paired by seed ==\n", curPath, prevPath)
	fmt.Fprintf(w, "%-22s %-14s %5s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "seeds", "prev median", "cur median", "worse", "spread", "bound", "status")
	for _, wl := range spec.Workloads {
		p, c := prev[wl.Name], cur[wl.Name]
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		var seeds []int64
		for seed := range p {
			if c[seed] == nil {
				return false, fmt.Errorf("%s: seed %d is in %s but not in %s", wl.Name, seed, prevPath, curPath)
			}
			seeds = append(seeds, seed)
		}
		if len(c) != len(p) {
			return false, fmt.Errorf("%s: %s has %d seeds, %s has %d", wl.Name, curPath, len(c), prevPath, len(p))
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, d := range spec.EndToEnd {
			bound, ok := pairedBounds[d.Name]
			if !ok {
				bound = d.Bound
			}
			pv, cv := make([]float64, len(seeds)), make([]float64, len(seeds))
			for i, seed := range seeds {
				pv[i], cv[i] = p[seed].Metrics[d.Name].Value, c[seed].Metrics[d.Name].Value
			}
			v := compareMetric(d.Better, bound, pv, cv)
			fmt.Fprintf(w, "%-22s %-14s %5d %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, len(seeds), v.prevMedian, v.curMedian, 100*v.worse, 100*v.spread, 100*bound, v.status)
			regressed = regressed || v.status == "regressed"
		}
	}
	return regressed, nil
}
