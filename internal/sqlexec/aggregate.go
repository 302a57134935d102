package sqlexec

import (
	"math"
)

// accumulator collects the base statistics from which every supported
// aggregation function is finalized. Derived functions (Average, Percentage,
// ConditionalProbability) divide statistics of one accumulator by another's.
type accumulator struct {
	rows     int64 // Count(*)
	nonNull  int64 // Count(col)
	sum      float64
	min, max float64
	distinct map[uint64]struct{} // nil unless distinct counting requested
}

func newAccumulator(needDistinct bool) *accumulator {
	a := &accumulator{min: math.Inf(1), max: math.Inf(-1)}
	if needDistinct {
		a.distinct = make(map[uint64]struct{})
	}
	return a
}

// add folds b, an accumulator over a later row range built with the same
// distinct flag, into a (a first, preserving the scan-order semantics of
// min/max ties and summation order).
func (a *accumulator) add(b *accumulator) {
	a.rows += b.rows
	a.nonNull += b.nonNull
	a.sum += b.sum
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	for k := range b.distinct {
		a.distinct[k] = struct{}{}
	}
}

// finalize computes the value of fn from this accumulator (and, for ratio
// functions, the base accumulator holding the denominator cell). star is
// true when the aggregation column is "*". Returns NaN when the function is
// undefined on the cell (e.g. Avg of zero rows).
func (a *accumulator) finalize(fn AggFunc, star bool, base *accumulator) float64 {
	cnt := func(x *accumulator) float64 {
		if x == nil {
			return 0
		}
		if star {
			return float64(x.rows)
		}
		return float64(x.nonNull)
	}
	switch fn {
	case Count:
		return cnt(a)
	case CountDistinct:
		if a.distinct == nil {
			return math.NaN()
		}
		return float64(len(a.distinct))
	case Sum:
		if a.nonNull == 0 {
			return math.NaN()
		}
		return a.sum
	case Avg:
		if a.nonNull == 0 {
			return math.NaN()
		}
		return a.sum / float64(a.nonNull)
	case Min:
		if a.nonNull == 0 {
			return math.NaN()
		}
		return a.min
	case Max:
		if a.nonNull == 0 {
			return math.NaN()
		}
		return a.max
	case Percentage, ConditionalProbability:
		den := cnt(base)
		if den == 0 {
			return math.NaN()
		}
		return 100 * cnt(a) / den
	}
	return math.NaN()
}
