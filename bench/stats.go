package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/metrics"
	"aggchecker/internal/model"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the percentiles a latency report may quote above the
// median, lowest first.
var tailLadder = []float64{75, 90, 95, 99}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it (n·(1−p/100) ≥ 10), so a quoted tail is never
// the maximum of a handful of points. It falls back to the median (50)
// when even p75 is not supported, i.e. below 40 samples.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 10*100 {
			best = p
		}
	}
	return best
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the acceptance rule for this
// benchmark is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fingerprint condenses a document's verdicts into one comparable value:
// per claim the erroneous flag, the top-1 query's canonical key and its
// result rounded to six significant digits. Two evaluation paths that are
// bit-for-bit equivalent (cold vs cached, isolated vs audit, Checker.Check
// vs the traced re-composition, delta-maintained vs rebuilt) must produce
// equal fingerprints.
func fingerprint(claims []model.ClaimResult) uint64 {
	h := fnv.New64a()
	for i, c := range claims {
		key, result := "-", math.NaN()
		if b := c.Best(); b != nil {
			key, result = b.Query.Key(), b.Result
		}
		fmt.Fprintf(h, "%d|%t|%s|%s\n", i, c.Erroneous, key, roundedResult(result))
	}
	return h.Sum64()
}

func roundedResult(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return fmt.Sprintf("%.6g", v)
}

// scoreVerdicts folds one report into the confusion matrix against the
// generator's ground truth (flagged erroneous vs truly erroneous).
func scoreVerdicts(conf *metrics.Confusion, rep *core.Report, truth []corpus.ClaimTruth) error {
	claims := rep.Claims()
	if len(claims) != len(truth) {
		return fmt.Errorf("report has %d claims, ground truth %d", len(claims), len(truth))
	}
	for i, c := range claims {
		conf.Add(c.Erroneous, !truth[i].Correct)
	}
	return nil
}
