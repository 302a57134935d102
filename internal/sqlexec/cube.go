package sqlexec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"aggchecker/internal/db"
)

// maxCubeDims bounds the number of cube dimensions; the paper expects at
// most three predicates per claim in newspaper articles (§6.3, m = 3).
const maxCubeDims = 3

// DimSpec is one cube dimension: a predicate column together with the
// literals of non-zero marginal probability. All other values are coded to a
// common default by the InOrDefault mapping (§6.2), which keeps the cube
// result small while still answering every related candidate.
type DimSpec struct {
	Col      ColumnRef
	Literals []string
}

// AggRequest names one aggregate to compute in a cube pass.
type AggRequest struct {
	Fn  AggFunc
	Col ColumnRef
}

func (r AggRequest) key() string { return r.Fn.String() + "(" + r.Col.String() + ")" }

// Cell codes: literal index >= 0; cellOther codes "some value outside the
// relevant literal set or NULL"; cellAny means the dimension is not grouped
// (the cube's rolled-up level).
const (
	cellAny   int16 = -1
	cellOther int16 = -2
)

type cellKey [maxCubeDims]int16

// trackedCol is an aggregation column tracked during a cube pass.
type trackedCol struct {
	ref          ColumnRef
	needDistinct bool
}

// CubeResult holds the cells of one cube query: for every combination of
// dimension values (including rolled-up levels) the accumulators of every
// tracked aggregation column plus the star column (index 0).
type CubeResult struct {
	Tables []string
	Dims   []DimSpec

	dimIndex map[string]int     // ColumnRef.String() -> dim position
	litIndex []map[string]int16 // per dim: literal -> code
	cols     []trackedCol       // tracked columns; cols[0] is star
	colIndex map[string]int
	cells    map[cellKey][]*accumulator // parallel to cols

	// filter is the shared predicate of a selection-pushdown pass (nil for
	// ordinary cubes): every cell accumulated only rows matching it, and
	// the cube answers only queries that carry the filter in their
	// conjunction (stripped before the cell lookup). baseRows counts every
	// row of the scanned range, rejected rows included — the Percentage
	// denominator filtered cells can no longer supply.
	filter   *Predicate
	baseRows int64
}

// Filter returns the pushdown predicate the cube was computed under, or nil
// for an ordinary cube.
func (r *CubeResult) Filter() *Predicate { return r.filter }

// BaseRows returns the total rows of the scanned range, including rows the
// pushdown filter rejected (0 for ordinary cubes).
func (r *CubeResult) BaseRows() int64 { return r.baseRows }

// stripFilter maps a query's predicates to the ones the filtered cube's
// dimensions must resolve: the cube's filter predicate is satisfied by
// construction, so exactly one occurrence of it is removed. ok is false
// when the query does not carry the filter — or carries it in a position
// whose ratio-aggregate denominator the filtered cells cannot reproduce:
//
//   - ConditionalProbability: only the conditioning predicate Preds[0] may
//     be absorbed (its matches are then exactly the cube's row set, so the
//     denominator is the rolled-up cell).
//   - Percentage over a non-star column: the denominator needs the
//     column's non-NULL count over ALL rows, which a filtered pass never
//     accumulates.
//
// Unfiltered cubes pass every query through unchanged.
func (r *CubeResult) stripFilter(q Query) ([]Predicate, bool) {
	if r.filter == nil {
		return q.Preds, true
	}
	f := *r.filter
	if q.Agg == ConditionalProbability {
		if len(q.Preds) == 0 || q.Preds[0] != f {
			return nil, false
		}
		return q.Preds[1:], true
	}
	if q.Agg == Percentage && !q.AggCol.IsStar() {
		return nil, false
	}
	for i, p := range q.Preds {
		if p == f {
			out := make([]Predicate, 0, len(q.Preds)-1)
			out = append(out, q.Preds[:i]...)
			return append(out, q.Preds[i+1:]...), true
		}
	}
	return nil, false
}

func newCubeResult(tables []string, dims []DimSpec) *CubeResult {
	r := &CubeResult{
		Tables:   tables,
		Dims:     dims,
		dimIndex: make(map[string]int, len(dims)),
		colIndex: make(map[string]int),
		cells:    make(map[cellKey][]*accumulator),
	}
	for i, d := range dims {
		r.dimIndex[d.Col.String()] = i
		idx := make(map[string]int16, len(d.Literals))
		for j, lit := range d.Literals {
			idx[lit] = int16(j)
		}
		r.litIndex = append(r.litIndex, idx)
	}
	r.cols = []trackedCol{{ref: ColumnRef{}}} // star
	r.colIndex[ColumnRef{}.String()] = 0
	return r
}

// hasColumn reports whether the column is tracked with the needed flags.
func (r *CubeResult) hasColumn(ref ColumnRef, needDistinct bool) bool {
	i, ok := r.colIndex[ref.String()]
	if !ok {
		return false
	}
	return !needDistinct || r.cols[i].needDistinct
}

// CanAnswer reports whether the cube covers query q: all predicates fall on
// cube dimensions with known literals (after absorbing a pushdown filter)
// and the aggregation column is tracked.
func (r *CubeResult) CanAnswer(q Query) bool {
	preds, ok := r.stripFilter(q)
	if !ok {
		return false
	}
	if _, ok := r.cellFor(preds); !ok {
		return false
	}
	if q.AggCol.IsStar() {
		return true
	}
	return r.hasColumn(q.AggCol, q.Agg == CountDistinct)
}

// cellFor maps predicates to the cube cell key.
func (r *CubeResult) cellFor(preds []Predicate) (cellKey, bool) {
	key := cellKey{cellAny, cellAny, cellAny}
	for _, p := range preds {
		di, ok := r.dimIndex[p.Col.String()]
		if !ok {
			return key, false
		}
		li, ok := r.litIndex[di][p.Value]
		if !ok {
			return key, false
		}
		if key[di] != cellAny {
			return key, false // two predicates on the same column
		}
		key[di] = li
	}
	return key, true
}

// acc returns the accumulator of column ci at the cell, or nil when no row
// fell into the cell (semantically an all-zero accumulator).
func (r *CubeResult) acc(key cellKey, ci int) *accumulator {
	cell, ok := r.cells[key]
	if !ok {
		return nil
	}
	return cell[ci]
}

// Value answers query q from the cube. The second return is false when the
// cube does not cover the query.
func (r *CubeResult) Value(q Query) (float64, bool) {
	preds, ok := r.stripFilter(q)
	if !ok {
		return 0, false
	}
	key, ok := r.cellFor(preds)
	if !ok {
		return 0, false
	}
	star := q.AggCol.IsStar()
	ci := 0
	if !star {
		ci, ok = r.colIndex[q.AggCol.String()]
		if !ok {
			return 0, false
		}
		if q.Agg == CountDistinct && !r.cols[ci].needDistinct {
			return 0, false
		}
	}
	a := r.acc(key, ci)
	var base *accumulator
	switch q.Agg {
	case Percentage:
		if r.filter != nil {
			// The denominator covers every scanned row, filter matches or
			// not; the pass counted them in baseRows. stripFilter admits
			// only star aggregates here, and star finalization reads
			// base.rows alone, so a synthesized count-only accumulator is
			// exact.
			base = &accumulator{rows: r.baseRows, nonNull: r.baseRows, min: math.Inf(1), max: math.Inf(-1)}
			break
		}
		baseKey := cellKey{cellAny, cellAny, cellAny}
		base = r.acc(baseKey, ci)
	case ConditionalProbability:
		baseKey := cellKey{cellAny, cellAny, cellAny}
		if r.filter != nil {
			// stripFilter guaranteed the conditioning predicate IS the
			// filter: its matches are exactly the cube's row set, so the
			// denominator is the fully rolled-up cell.
			base = r.acc(baseKey, ci)
			break
		}
		if len(preds) > 0 {
			var ok2 bool
			baseKey, ok2 = r.cellFor(preds[:1])
			if !ok2 {
				return 0, false
			}
		}
		base = r.acc(baseKey, ci)
	}
	if a == nil {
		// Empty cell: counts are zero, other aggregates undefined.
		a = newAccumulator(q.Agg == CountDistinct)
	}
	return a.finalize(q.Agg, star, base), true
}

// signature identifies a cube by join scope and dimension set (the paper's
// cache index granularity is one aggregation function + column + dimension
// set; we key the cell store by scope+dims and track columns inside it,
// which is the same sharing structure with one map level fewer).
// A pushdown filter is part of the identity: a filtered cube holds
// different cell contents than the unfiltered cube over the same scope and
// dims, so the two must never share a cache slot.
func cubeSignature(tables []string, dims []DimSpec, filter *Predicate) string {
	ts := make([]string, len(tables))
	copy(ts, tables)
	sort.Strings(ts)
	ds := make([]string, len(dims))
	for i, d := range dims {
		ds[i] = d.Col.String()
	}
	sort.Strings(ds)
	sig := strings.Join(ts, ",") + "|" + strings.Join(ds, ",")
	if filter != nil {
		sig += "|where " + filter.String()
	}
	return sig
}

// newCubeResultWithCols builds the empty result shell shared by both cube
// kernels: dimension indexes plus the deduplicated tracked columns (star at
// index 0). Kernels fill r.cells.
func newCubeResultWithCols(tables []string, dims []DimSpec, cols []trackedCol) (*CubeResult, error) {
	if len(dims) > maxCubeDims {
		return nil, fmt.Errorf("sqlexec: %d cube dimensions exceeds maximum %d", len(dims), maxCubeDims)
	}
	r := newCubeResult(tables, dims)
	for _, tc := range cols {
		if tc.ref.IsStar() {
			if tc.needDistinct {
				return nil, fmt.Errorf("sqlexec: distinct count over * is not supported")
			}
			continue
		}
		if i, ok := r.colIndex[tc.ref.String()]; ok {
			if tc.needDistinct {
				r.cols[i].needDistinct = true
			}
			continue
		}
		r.colIndex[tc.ref.String()] = len(r.cols)
		r.cols = append(r.cols, tc)
	}
	return r, nil
}

// computeCubeScalar is the legacy row-at-a-time cube interpreter: one scan
// over the joined view, accumulating every tracked column at every cell of
// the cube lattice (2^|dims| hash-map probes and pointer-chased accumulator
// updates per row). It is kept behind WithScalarKernel as the
// reference implementation for differential testing, and as the fallback
// when literal sets make the vectorized kernel's dense lattice too large
// (see flatLatticeSize in kernel.go).
func computeCubeScalar(ctx context.Context, view *db.JoinView, tables []string, dims []DimSpec, cols []trackedCol) (*CubeResult, error) {
	return computeCubeScalarRange(ctx, view, tables, dims, cols, 0, view.NumRows(), nil)
}

// computeCubeScalarFiltered is the scalar interpreter of a full
// selection-pushdown pass — the differential-testing oracle for the
// vectorized filtered kernel.
func computeCubeScalarFiltered(ctx context.Context, view *db.JoinView, tables []string, dims []DimSpec, cols []trackedCol, filter *Predicate) (*CubeResult, error) {
	return computeCubeScalarRange(ctx, view, tables, dims, cols, 0, view.NumRows(), filter)
}

// computeCubeScalarRange is the scalar interpreter restricted to joined
// rows [lo, hi): the full pass with lo=0, hi=NumRows, or a delta scan over
// appended rows when the literal pool forced the scalar fallback. A non-nil
// filter makes it a selection-pushdown pass: rows failing the filter only
// count into baseRows, in the same per-row scan order the vectorized
// kernel's compacted segments preserve.
func computeCubeScalarRange(ctx context.Context, view *db.JoinView, tables []string, dims []DimSpec, cols []trackedCol, lo, hi int, filter *Predicate) (*CubeResult, error) {
	r, err := newCubeResultWithCols(tables, dims, cols)
	if err != nil {
		return nil, err
	}
	r.filter = filter
	var fmatch func(row int) bool
	if filter != nil {
		pes, err := compilePreds(view, []Predicate{*filter}, false)
		if err != nil {
			return nil, err
		}
		pe := pes[0]
		if pe.isStr {
			fmatch = func(row int) bool { return pe.acc.Code(row) == pe.code }
		} else {
			fmatch = func(row int) bool { return pe.acc.Float(row) == pe.val }
		}
		if pe.never {
			fmatch = func(int) bool { return false }
		}
	}

	// Resolve dimension accessors and per-row literal coders.
	type dimCoder struct {
		acc   db.ColumnAccessor
		isStr bool
		// For string dims: dictionary code -> literal index.
		codeToLit map[int32]int16
		// For numeric dims: value -> literal index.
		floatToLit map[float64]int16
	}
	coders := make([]dimCoder, len(dims))
	for i, d := range dims {
		acc, err := view.Accessor(d.Col.Table, d.Col.Column)
		if err != nil {
			return nil, err
		}
		dc := dimCoder{acc: acc, isStr: acc.Column().Kind == db.KindString}
		if dc.isStr {
			dc.codeToLit = make(map[int32]int16, len(d.Literals))
			for j, lit := range d.Literals {
				if code := acc.Column().CodeOf(lit); code >= 0 {
					dc.codeToLit[code] = int16(j)
				}
			}
		} else {
			dc.floatToLit = make(map[float64]int16, len(d.Literals))
			for j, lit := range d.Literals {
				if v, err := parseLiteralFloat(lit); err == nil {
					dc.floatToLit[v] = int16(j)
				}
			}
		}
		coders[i] = dc
	}

	// Resolve aggregation column accessors (index 0 = star, no accessor).
	type colReader struct {
		acc   db.ColumnAccessor
		isStr bool
	}
	readers := make([]colReader, len(r.cols))
	for i := 1; i < len(r.cols); i++ {
		acc, err := view.Accessor(r.cols[i].ref.Table, r.cols[i].ref.Column)
		if err != nil {
			return nil, err
		}
		readers[i] = colReader{acc: acc, isStr: acc.Column().Kind == db.KindString}
	}

	nsubsets := 1 << len(dims)
	var rowCodes [maxCubeDims]int16
	for row := lo; row < hi; row++ {
		if (row-lo)%ctxCheckRows == 0 && row > lo {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if fmatch != nil {
			r.baseRows++
			if !fmatch(row) {
				continue
			}
		}
		for i := range coders {
			dc := &coders[i]
			code := cellOther
			if dc.isStr {
				if c := dc.acc.Code(row); c >= 0 {
					if li, ok := dc.codeToLit[c]; ok {
						code = li
					}
				}
			} else {
				v := dc.acc.Float(row)
				if !math.IsNaN(v) {
					if li, ok := dc.floatToLit[v]; ok {
						code = li
					}
				}
			}
			rowCodes[i] = code
		}
		for mask := 0; mask < nsubsets; mask++ {
			key := cellKey{cellAny, cellAny, cellAny}
			for i := 0; i < len(dims); i++ {
				if mask&(1<<i) != 0 {
					key[i] = rowCodes[i]
				}
			}
			cell, ok := r.cells[key]
			if !ok {
				cell = make([]*accumulator, len(r.cols))
				for i := range cell {
					cell[i] = newAccumulator(r.cols[i].needDistinct)
				}
				r.cells[key] = cell
			}
			cell[0].addRow(false, math.NaN(), 0) // star: row count only
			for i := 1; i < len(r.cols); i++ {
				rd := readers[i]
				if rd.isStr {
					c := rd.acc.Code(row)
					cell[i].addRow(c < 0, math.NaN(), uint64(uint32(c)))
				} else {
					v := rd.acc.Float(row)
					cell[i].addRow(math.IsNaN(v), v, math.Float64bits(v))
				}
			}
		}
	}
	return r, nil
}

// merged returns a new CubeResult combining r with the tracked columns of
// other (computed over identical scope and dims), used when the cache holds
// a cube lacking some columns. r itself is never modified: published cube
// results are immutable, so goroutines answering queries from an earlier
// snapshot never race with cache extension (copy-on-write).
func (r *CubeResult) merged(other *CubeResult) *CubeResult {
	out := &CubeResult{
		Tables:   r.Tables,
		Dims:     r.Dims,
		dimIndex: r.dimIndex, // immutable after construction, safe to share
		litIndex: r.litIndex,
		cols:     append([]trackedCol(nil), r.cols...),
		colIndex: make(map[string]int, len(r.colIndex)),
		cells:    make(map[cellKey][]*accumulator, len(r.cells)),
		filter:   r.filter,
		baseRows: r.baseRows, // both sides scanned the same rows
	}
	for k, v := range r.colIndex {
		out.colIndex[k] = v
	}
	colMap := make([]int, len(other.cols)) // other col idx -> out col idx (-1 skip)
	for i, tc := range other.cols {
		if i == 0 {
			colMap[i] = -1 // star already tracked
			continue
		}
		if j, ok := out.colIndex[tc.ref.String()]; ok {
			if tc.needDistinct && !out.cols[j].needDistinct {
				// Replace stats for this column with the distinct-capable ones.
				out.cols[j].needDistinct = true
				colMap[i] = j
				continue
			}
			colMap[i] = -1
			continue
		}
		colMap[i] = len(out.cols)
		out.colIndex[tc.ref.String()] = len(out.cols)
		out.cols = append(out.cols, tc)
	}
	width := len(out.cols)
	for key, cell := range r.cells {
		nc := make([]*accumulator, width)
		copy(nc, cell)
		out.cells[key] = nc
	}
	for key, otherCell := range other.cells {
		cell, ok := out.cells[key]
		if !ok {
			cell = make([]*accumulator, width)
			out.cells[key] = cell
		}
		for i, target := range colMap {
			if target < 0 {
				continue
			}
			cell[target] = otherCell[i]
		}
	}
	// Fill holes for cells only one side touched (only possible when the
	// cubes scanned different data; defensive, they share one view).
	for _, cell := range out.cells {
		for i := range cell {
			if cell[i] == nil {
				cell[i] = newAccumulator(out.cols[i].needDistinct)
			}
		}
	}
	return out
}

// memBytes estimates the resident heap size of the cube result: cell map
// storage, accumulators (with their distinct sets), and the dimension
// literal tables. Go's map and allocator overheads are approximated with
// fixed per-entry costs — the estimate only needs to be consistent across
// cubes, which is all the cost-aware cache policy ranks by.
func (r *CubeResult) memBytes() int64 {
	const (
		accBytes      = 64 // accumulator struct + allocator overhead
		cellOverhead  = 48 // map bucket share + key + slice header
		distinctEntry = 16 // one uint64 key + bucket share
		distinctMap   = 48 // non-nil distinct map header
	)
	var n int64
	for _, cell := range r.cells {
		n += cellOverhead + int64(len(cell))*8
		for _, a := range cell {
			if a == nil {
				continue
			}
			n += accBytes
			if a.distinct != nil {
				n += distinctMap + int64(len(a.distinct))*distinctEntry
			}
		}
	}
	for _, d := range r.Dims {
		for _, lit := range d.Literals {
			n += 16 + int64(len(lit))
		}
	}
	return n
}

// trackedCols returns the result's tracked aggregation columns (star
// excluded) in tracking order — the column set a delta scan must cover so
// the merged cube keeps answering everything the cached one did.
func (r *CubeResult) trackedCols() []trackedCol {
	if len(r.cols) <= 1 {
		return nil
	}
	return append([]trackedCol(nil), r.cols[1:]...)
}

// mergeAppend returns a new CubeResult equal to scanning the union of the
// two results' disjoint row ranges: r covers the sealed prefix, delta the
// appended rows (computed with r's own Dims and tracked columns). Neither
// input is modified — published cube results are immutable, so readers
// answering queries from the pre-append snapshot never race with the
// advance (copy-on-write). Cells untouched by the delta share r's
// accumulators outright; merged cells get fresh accumulators, so counts,
// sums, min/max, and distinct sets combine exactly as a from-scratch
// rebuild would produce them (bit-for-bit for integer-valued data, where
// float addition is associative).
func (r *CubeResult) mergeAppend(delta *CubeResult) *CubeResult {
	out := &CubeResult{
		Tables:   r.Tables,
		Dims:     r.Dims,
		dimIndex: r.dimIndex, // immutable after construction, safe to share
		litIndex: r.litIndex,
		cols:     r.cols,
		colIndex: r.colIndex,
		cells:    make(map[cellKey][]*accumulator, len(r.cells)+len(delta.cells)),
		filter:   r.filter,
		baseRows: r.baseRows + delta.baseRows, // disjoint row ranges
	}
	for key, cell := range r.cells {
		dcell, ok := delta.cells[key]
		if !ok {
			out.cells[key] = cell // untouched by the appended rows: share
			continue
		}
		merged := make([]*accumulator, len(cell))
		for i := range cell {
			merged[i] = addAccumulators(cell[i], dcell[i])
		}
		out.cells[key] = merged
	}
	for key, dcell := range delta.cells {
		if _, ok := r.cells[key]; !ok {
			out.cells[key] = dcell // first seen in the appended rows: adopt
		}
	}
	return out
}

// addAccumulators combines two accumulators over disjoint row ranges into a
// fresh one (a first, preserving the scan-order semantics of min/max ties
// and summation order).
func addAccumulators(a, b *accumulator) *accumulator {
	if a == nil && b == nil {
		return nil
	}
	if a == nil {
		a = newAccumulator(b.distinct != nil)
	}
	if b == nil {
		b = newAccumulator(a.distinct != nil)
	}
	out := &accumulator{
		rows:    a.rows + b.rows,
		nonNull: a.nonNull + b.nonNull,
		sum:     a.sum + b.sum,
		min:     a.min,
		max:     a.max,
	}
	if b.min < out.min {
		out.min = b.min
	}
	if b.max > out.max {
		out.max = b.max
	}
	if a.distinct != nil || b.distinct != nil {
		out.distinct = make(map[uint64]struct{}, len(a.distinct)+len(b.distinct))
		for k := range a.distinct {
			out.distinct[k] = struct{}{}
		}
		for k := range b.distinct {
			out.distinct[k] = struct{}{}
		}
	}
	return out
}
