package sqlexec

import (
	"context"
	"fmt"
	"math"
	"sort"

	"aggchecker/internal/db"
	"aggchecker/internal/vec"
)

// This file implements the shared block-oriented scan pipeline: the
// segmenter that turns a join view into zone-aligned scan segments, the
// vectorized predicate evaluator that produces reusable selection vectors
// per segment, and the direct-scan executor behind Engine.EvaluateContext.
// The cube kernel (kernel.go) drives its block loop through the same
// segmenter and the same zone verdicts, so the naive strategy's direct scans, the
// planner's small-group fallback, cube passes, and delta scans all share
// one fast path; the retired row-at-a-time closure matchers survive only
// as the differential-test oracle (pipeline_test.go).
//
// Ratio-aggregate base contract (the denominators of Percentage and
// ConditionalProbability), stated here once and matched bit-for-bit by
// CubeResult.Value's base cells:
//
//   - Percentage: the denominator accumulates every row of the joined
//     view; predicates restrict the numerator only.
//   - ConditionalProbability: the denominator accumulates exactly the rows
//     matching the conditioning predicate Preds[0] — not the full
//     conjunction, and never any other predicate subset. With no
//     predicates at all the denominator covers every row.
//
// Zone pruning must preserve these sets: a segment whose zones refute the
// numerator's conjunction still contributes its rows to a Percentage
// denominator, and still contributes its Preds[0] matches to a
// ConditionalProbability denominator unless the conditioning predicate
// itself is refuted.

// The default zone granularity matches the kernel block size, so default
// spans map 1:1 onto segments (negative array length = compile-time
// assertion). Coarser granularities (a compactor may reseal tables at
// db.ZoneRowsCoarse) are handled by segmentsOf splitting each oversized
// span into kernel-block-sized segments that share its zone index.
var _ [kernelBlockRows - db.ZoneRows]struct{}

// scanSeg is one segment of a scan: a run of joined rows processed as a
// unit, with the zone-map index that summarizes it (-1 when the view has
// no zones: materialized joins, or zone maps disabled).
type scanSeg struct {
	start, n int
	zone     int
}

// segmentsOf splits joined rows [lo, hi) into scan segments: zone-aligned
// runs (each at most kernelBlockRows rows, never crossing a sealed block)
// when spans are available, fixed kernelBlockRows chunks otherwise. Partial
// overlaps are clipped; a clipped or split segment keeps its zone index,
// because a zone's summary is conservative for any subset of its rows.
func segmentsOf(spans []db.ZoneSpan, lo, hi int) []scanSeg {
	if hi <= lo {
		return nil
	}
	if spans == nil {
		segs := make([]scanSeg, 0, (hi-lo+kernelBlockRows-1)/kernelBlockRows)
		for s := lo; s < hi; s += kernelBlockRows {
			n := hi - s
			if n > kernelBlockRows {
				n = kernelBlockRows
			}
			segs = append(segs, scanSeg{start: s, n: n, zone: -1})
		}
		return segs
	}
	first := sort.Search(len(spans), func(i int) bool { return spans[i].End > lo })
	var segs []scanSeg
	for i := first; i < len(spans) && spans[i].Start < hi; i++ {
		s, e := spans[i].Start, spans[i].End
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		// Spans coarser than the kernel block size (compacted tables) split
		// into kernel-sized segments; each keeps the span's zone index, so
		// one zone verdict prunes (or admits) all of them consistently.
		for ; s < e; s += kernelBlockRows {
			n := e - s
			if n > kernelBlockRows {
				n = kernelBlockRows
			}
			segs = append(segs, scanSeg{start: s, n: n, zone: i})
		}
	}
	return segs
}

// predEval is one compiled equality predicate: the accessor, the literal
// resolved to its storage representation, and the column's zone maps.
type predEval struct {
	acc   db.ColumnAccessor
	zones []db.ZoneEntry
	isStr bool
	code  int32   // string columns: dictionary code of the literal
	val   float64 // numeric columns: parsed literal value
	// never marks literals that cannot match any row ever: a string absent
	// from the dictionary, or an unparseable numeric literal.
	never bool
}

// compilePreds resolves the query predicates against the view. Zone maps
// are attached only when requested and available (direct accessors).
func compilePreds(view *db.JoinView, preds []Predicate, useZones bool) ([]predEval, error) {
	out := make([]predEval, len(preds))
	for i, p := range preds {
		acc, err := view.Accessor(p.Col.Table, p.Col.Column)
		if err != nil {
			return nil, err
		}
		pe := predEval{acc: acc, isStr: acc.Column().Kind == db.KindString}
		if useZones {
			pe.zones = acc.Zones()
		}
		if pe.isStr {
			pe.code = acc.Column().CodeOf(p.Value)
			pe.never = pe.code < 0
		} else {
			v, err := parseLiteralFloat(p.Value)
			if err != nil {
				pe.never = true
			} else {
				pe.val = v
			}
		}
		out[i] = pe
	}
	return out, nil
}

// zoneMisses reports whether the predicate provably matches no row of zone
// zi: a never-matching literal, a dictionary code outside the zone's
// domain bitset, or a numeric literal outside the zone's min/max range.
func (pe *predEval) zoneMisses(zi int) bool {
	if pe.never {
		return true
	}
	if pe.zones == nil || zi < 0 {
		return false
	}
	z := &pe.zones[zi]
	if pe.isStr {
		return !z.MayContainCode(pe.code)
	}
	return !z.MayContainFloat(pe.val)
}

// selectFull fills sel with the in-segment row offsets matching the
// predicate. sel must have capacity for n entries; fBuf/cBuf are gather
// scratch (unused on the zero-copy path). The compare runs through the
// vec kernels — a bitmask compare plus mask-to-index compaction — and
// produces the same ascending indexes as the retired scalar loop (vec
// compares are Go == semantics: NaN never matches, ±0 match each other).
func (pe *predEval) selectFull(start, n int, sel []int32, fBuf []float64, cBuf []int32) []int32 {
	// Segments never exceed kernelBlockRows (segmentsOf splits oversized
	// spans), so the mask fits a fixed stack buffer.
	var maskArr [kernelBlockRows / 64]uint64
	mask := maskArr[:vec.MaskWords(n)]
	if pe.isStr {
		codes, _ := pe.acc.CodeBlock(start, n, cBuf)
		vec.CmpEqI32(codes, pe.code, mask)
	} else {
		vals, _ := pe.acc.FloatBlock(start, n, fBuf)
		vec.CmpEqF64(vals, pe.val, mask)
	}
	return sel[:vec.SelFromMask(mask, n, sel)]
}

// refine compacts sel in place, keeping only rows the predicate also
// matches.
func (pe *predEval) refine(start, n int, sel []int32, fBuf []float64, cBuf []int32) []int32 {
	k := 0
	if pe.isStr {
		codes, _ := pe.acc.CodeBlock(start, n, cBuf)
		want := pe.code
		for _, r := range sel {
			if codes[r] == want {
				sel[k] = r
				k++
			}
		}
	} else {
		vals, _ := pe.acc.FloatBlock(start, n, fBuf)
		want := pe.val
		for _, r := range sel {
			if vals[r] == want {
				sel[k] = r
				k++
			}
		}
	}
	return sel[:k]
}

// aggReader reads the aggregation column of a direct scan and folds rows
// into accumulators with exactly the per-row semantics of the tests'
// row-at-a-time oracle (accumulator.addRow), in row order — so results are
// bit-for-bit identical to it even for float sums.
type aggReader struct {
	star  bool
	acc   db.ColumnAccessor
	isStr bool
}

// addAll folds every row of the segment into a.
func (g *aggReader) addAll(a *accumulator, start, n int, fBuf []float64, cBuf []int32) {
	if g.star {
		a.rows += int64(n)
		a.nonNull += int64(n)
		return
	}
	if g.isStr {
		codes, _ := g.acc.CodeBlock(start, n, cBuf)
		for _, c := range codes {
			a.rows++
			if c < 0 {
				continue
			}
			a.nonNull++
			if a.distinct != nil {
				a.distinct[uint64(uint32(c))] = struct{}{}
			}
		}
		return
	}
	vals, _ := g.acc.FloatBlock(start, n, fBuf)
	g.addFloats(a, vals)
}

// addSel folds the selected rows of the segment into a.
func (g *aggReader) addSel(a *accumulator, start, n int, sel []int32, fBuf []float64, cBuf []int32) {
	if len(sel) == 0 {
		return
	}
	if g.star {
		a.rows += int64(len(sel))
		a.nonNull += int64(len(sel))
		return
	}
	if g.isStr {
		codes, _ := g.acc.CodeBlock(start, n, cBuf)
		for _, r := range sel {
			c := codes[r]
			a.rows++
			if c < 0 {
				continue
			}
			a.nonNull++
			if a.distinct != nil {
				a.distinct[uint64(uint32(c))] = struct{}{}
			}
		}
		return
	}
	vals, _ := g.acc.FloatBlock(start, n, fBuf)
	s, mn, mx := a.sum, a.min, a.max
	for _, r := range sel {
		v := vals[r]
		a.rows++
		if v != v { // NULL
			continue
		}
		a.nonNull++
		s += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if a.distinct != nil {
			a.distinct[math.Float64bits(v)] = struct{}{}
		}
	}
	a.sum, a.min, a.max = s, mn, mx
}

// addFloats is the numeric whole-segment loop shared by addAll.
func (g *aggReader) addFloats(a *accumulator, vals []float64) {
	s, mn, mx := a.sum, a.min, a.max
	for _, v := range vals {
		a.rows++
		if v != v { // NULL
			continue
		}
		a.nonNull++
		s += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if a.distinct != nil {
			a.distinct[math.Float64bits(v)] = struct{}{}
		}
	}
	a.sum, a.min, a.max = s, mn, mx
}

// directScan is the compiled form of one direct query: predicates resolved
// to storage-level comparisons, the aggregation column reader, and the
// zone-aligned segmentation. It is immutable after construction, so
// morsels of one scan share it across workers.
type directScan struct {
	q        Query
	preds    []predEval
	agg      aggReader
	needBase bool
	spans    []db.ZoneSpan
}

func newDirectScan(view *db.JoinView, q Query, useZones bool) (*directScan, error) {
	preds, err := compilePreds(view, q.Preds, useZones)
	if err != nil {
		return nil, err
	}
	ds := &directScan{q: q, preds: preds}
	ds.agg.star = q.AggCol.IsStar()
	if ds.agg.star && q.Agg == CountDistinct {
		return nil, fmt.Errorf("sqlexec: CountDistinct needs a column, not *")
	}
	if !ds.agg.star {
		acc, err := view.Accessor(q.AggCol.Table, q.AggCol.Column)
		if err != nil {
			return nil, err
		}
		ds.agg.acc = acc
		ds.agg.isStr = acc.Column().Kind == db.KindString
	}
	ds.needBase = q.Agg == Percentage || q.Agg == ConditionalProbability
	if useZones {
		ds.spans = view.ZoneSpans()
	}
	return ds, nil
}

// directPartial is the result of scanning one row range of a direct query:
// the numerator and (ratio aggregates) denominator accumulators plus the
// pipeline counters of the range.
type directPartial struct {
	main, base *accumulator

	scanned, pruned, selReuses, rowsRead int64
}

// merge folds a later row range's partial into p (p first, preserving
// scan-order semantics of summation and min/max ties).
func (p *directPartial) merge(o *directPartial) {
	p.main.add(o.main)
	if p.base != nil {
		p.base.add(o.base)
	}
	p.scanned += o.scanned
	p.pruned += o.pruned
	p.selReuses += o.selReuses
	p.rowsRead += o.rowsRead
}

// scanRange runs the compiled scan over joined rows [lo, hi) into a fresh
// partial: each segment is zone-tested before any data is read, survivors
// are filtered through a reused selection vector, and the aggregation
// column is folded in row order.
func (ds *directScan) scanRange(ctx context.Context, lo, hi int) (*directPartial, error) {
	q, preds, agg, needBase := ds.q, ds.preds, ds.agg, ds.needBase
	pt := &directPartial{main: newAccumulator(q.Agg == CountDistinct)}
	main := pt.main
	var base *accumulator
	if needBase {
		base = newAccumulator(false)
		pt.base = base
	}

	segs := segmentsOf(ds.spans, lo, hi)
	selBuf := make([]int32, kernelBlockRows)
	fBuf := make([]float64, kernelBlockRows)
	cBuf := make([]int32, kernelBlockRows)

	var scanned, pruned, selReuses, rowsRead int64
	selUsed := false
	useSel := func() {
		if selUsed {
			selReuses++
		}
		selUsed = true
	}
	for _, sg := range segs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mainMiss := false
		for i := range preds {
			if preds[i].zoneMisses(sg.zone) {
				mainMiss = true
				break
			}
		}
		if mainMiss {
			// The numerator is provably empty in this segment; only the
			// denominator of a ratio aggregate may still need rows.
			pruned++
			if !needBase {
				continue
			}
			switch q.Agg {
			case Percentage:
				// Every row stays in the denominator. The star case is a
				// pure batched count; only non-star reads the column.
				if !agg.star {
					rowsRead += int64(sg.n)
				}
				agg.addAll(base, sg.start, sg.n, fBuf, cBuf)
			case ConditionalProbability:
				if len(preds) == 0 {
					agg.addAll(base, sg.start, sg.n, fBuf, cBuf)
					continue
				}
				if preds[0].zoneMisses(sg.zone) {
					continue // the conditioning predicate is refuted too
				}
				useSel()
				rowsRead += int64(sg.n)
				sel := preds[0].selectFull(sg.start, sg.n, selBuf, fBuf, cBuf)
				agg.addSel(base, sg.start, sg.n, sel, fBuf, cBuf)
			}
			continue
		}

		scanned++
		rowsRead += int64(sg.n)
		selFull := len(preds) == 0
		var sel []int32
		if !selFull {
			useSel()
			sel = preds[0].selectFull(sg.start, sg.n, selBuf, fBuf, cBuf)
			if q.Agg == ConditionalProbability && needBase {
				// The denominator consumes the conditioning predicate's
				// matches before the remaining predicates refine them away.
				agg.addSel(base, sg.start, sg.n, sel, fBuf, cBuf)
			}
			for i := 1; i < len(preds) && len(sel) > 0; i++ {
				sel = preds[i].refine(sg.start, sg.n, sel, fBuf, cBuf)
			}
		}
		if needBase && (q.Agg == Percentage || (q.Agg == ConditionalProbability && selFull)) {
			agg.addAll(base, sg.start, sg.n, fBuf, cBuf)
		}
		if selFull {
			agg.addAll(main, sg.start, sg.n, fBuf, cBuf)
		} else {
			agg.addSel(main, sg.start, sg.n, sel, fBuf, cBuf)
		}
	}

	pt.scanned, pt.pruned, pt.selReuses, pt.rowsRead = scanned, pruned, selReuses, rowsRead
	return pt, nil
}

// evaluateDirect runs one query with a dedicated vectorized scan over the
// view. Results are bit-for-bit identical to a row-at-a-time scan: zone
// pruning only skips rows that contribute to neither the numerator nor the
// denominator, and all accumulation runs in row order. Large views
// decompose into zone-aligned morsels on the engine's scheduler whose
// partial accumulators merge in range order — deterministic for a given
// pool width, bit-for-bit identical to the single-threaded scan for
// integer-valued data (float sums regroup at morsel boundaries).
func (e *Engine) evaluateDirect(ctx context.Context, view *db.JoinView, q Query) (float64, error) {
	ds, err := newDirectScan(view, q, e.zoneMaps)
	if err != nil {
		return math.NaN(), err
	}
	partials, err := scanMorsels(ctx, e.sched, &e.Stats, ds.spans, 0, view.NumRows(), func(lo, hi int) (*directPartial, error) {
		return ds.scanRange(ctx, lo, hi)
	})
	if err != nil {
		return math.NaN(), err
	}
	total := partials[0]
	for _, pt := range partials[1:] {
		total.merge(pt)
	}

	e.Stats.DirectVectorScans.Add(1)
	e.Stats.BlocksScanned.Add(total.scanned)
	e.Stats.BlocksPruned.Add(total.pruned)
	e.Stats.SelvecReuses.Add(total.selReuses)
	e.Stats.RowsScanned.Add(total.rowsRead)
	return total.main.finalize(q.Agg, ds.agg.star, total.base), nil
}
