package sqlexec

import (
	"context"
	"math"
	"math/bits"
	"testing"

	"aggchecker/internal/db"
)

// The cube kernel's oracle: the row-at-a-time interpreter and sparse map
// cell store the vectorized kernel replaced, kept test-only so every kernel
// differential compares every lattice cell against an independent
// implementation.

// Cell codes of the map store: literal index >= 0; cellOther codes "some
// value outside the relevant literal set or NULL"; cellAny means the
// dimension is not grouped (the cube's rolled-up level).
const (
	cellAny   int16 = -1
	cellOther int16 = -2
)

type cellKey [maxCubeDims]int16

// scalarCube is the oracle's cube: a CubeResult shell (dims, literal and
// column indexes; its lattice unused) with the map cell store. Only cells
// some row fell into exist.
type scalarCube struct {
	*CubeResult
	cells map[cellKey][]*accumulator // parallel to cols
}

// addRow registers a row; null reports whether the aggregation column is
// NULL at the row, v its numeric value and key its distinct-identity (column
// dictionary code for strings, float bits for numerics).
func (a *accumulator) addRow(null bool, v float64, key uint64) {
	a.rows++
	if null {
		return
	}
	a.nonNull++
	if !math.IsNaN(v) {
		a.sum += v
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	if a.distinct != nil {
		a.distinct[key] = struct{}{}
	}
}

// computeCubeScalarRange is the row-at-a-time cube interpreter over
// joined rows [lo, hi), the oracle of the kernel differential tests: one
// scan accumulating every tracked column at every cell of the cube lattice
// (2^|dims| hash-map probes and pointer-chased accumulator updates per row)
// into a sparse map cell store. It shares nothing with the kernel but the
// result shell (newCubeResult).
func computeCubeScalarRange(ctx context.Context, view *db.JoinView, tables []string, dims []DimSpec, cols []trackedCol, lo, hi int) (*scalarCube, error) {
	shell, err := newCubeResult(tables, dims, cols)
	if err != nil {
		return nil, err
	}
	r := &scalarCube{CubeResult: shell, cells: make(map[cellKey][]*accumulator)}

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

// cellFor maps predicates to the cube cell key.
func (r *scalarCube) cellFor(preds []Predicate) (cellKey, bool) {
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
		key[di] = int16(li)
	}
	return key, true
}

// acc returns the accumulator of column ci at the cell, or nil when no row
// fell into the cell (semantically an all-zero accumulator).
func (r *scalarCube) acc(key cellKey, ci int) *accumulator {
	cell, ok := r.cells[key]
	if !ok {
		return nil
	}
	return cell[ci]
}

// Value answers query q from the map store, the oracle of CubeResult.Value.
func (r *scalarCube) Value(q Query) (float64, bool) {
	key, ok := r.cellFor(q.Preds)
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
	}
	if q.Agg == CountDistinct && !r.cols[ci].needDistinct {
		return 0, false
	}
	a := r.acc(key, ci)
	var base *accumulator
	switch q.Agg {
	case Percentage:
		baseKey := cellKey{cellAny, cellAny, cellAny}
		base = r.acc(baseKey, ci)
	case ConditionalProbability:
		baseKey := cellKey{cellAny, cellAny, cellAny}
		if len(q.Preds) > 0 {
			var ok2 bool
			baseKey, ok2 = r.cellFor(q.Preds[:1])
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

// latticeCells converts a CubeResult's dense lattice into the map store:
// every cell some row fell into, keyed by its decoded dimension codes, with
// distinct bitsets and sets turned into value sets.
func latticeCells(r *CubeResult) map[cellKey][]*accumulator {
	cells := make(map[cellKey][]*accumulator)
	for ix, n := range r.cells.rows {
		if n == 0 {
			continue
		}
		key := cellKey{cellAny, cellAny, cellAny}
		for i, d := range r.Dims {
			card := int32(len(d.Literals) + 2)
			switch code := (int32(ix) / r.strides[i]) % card; code {
			case card - 1:
				key[i] = cellAny
			case card - 2:
				key[i] = cellOther
			default:
				key[i] = int16(code)
			}
		}
		cell := make([]*accumulator, len(r.cols))
		for ci := range r.cols {
			a := r.cells.cell(ci, ix)
			if r.cols[ci].needDistinct {
				a.distinct = make(map[uint64]struct{})
				ca := &r.cells.cols[ci]
				if ca.sets != nil {
					for k := range ca.sets[ix] {
						a.distinct[k] = struct{}{}
					}
				}
				if ca.bits != nil {
					for w, word := range ca.bits[ix] {
						for word != 0 {
							a.distinct[uint64(uint32(w*64+bits.TrailingZeros64(word)))] = struct{}{}
							word &= word - 1
						}
					}
				}
			}
			cell[ci] = &a
		}
		cells[key] = cell
	}
	return cells
}

// oracleOf wraps a kernel result in the map store, for comparing two
// kernel results with requireCubesIdentical.
func oracleOf(r *CubeResult) *scalarCube {
	return &scalarCube{CubeResult: r, cells: latticeCells(r)}
}

// requireCubesIdentical asserts a kernel result equals the oracle bit for
// bit: identical tracked columns, and every lattice cell with rows matches
// an oracle cell (and vice versa) whose counts, float bit patterns and
// distinct sets all match.
func requireCubesIdentical(t *testing.T, want *scalarCube, got *CubeResult, label string) {
	t.Helper()
	if len(want.cols) != len(got.cols) {
		t.Fatalf("%s: tracked cols %d vs %d", label, len(want.cols), len(got.cols))
	}
	for i := range want.cols {
		if want.cols[i].ref != got.cols[i].ref || want.cols[i].needDistinct != got.cols[i].needDistinct {
			t.Fatalf("%s: col %d differs: %+v vs %+v", label, i, want.cols[i], got.cols[i])
		}
	}
	gotCells := latticeCells(got)
	if len(want.cells) != len(gotCells) {
		t.Fatalf("%s: cell count %d vs %d", label, len(want.cells), len(gotCells))
	}
	feq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for key, wcell := range want.cells {
		gcell, ok := gotCells[key]
		if !ok {
			t.Fatalf("%s: cell %v missing from kernel result", label, key)
		}
		for ci := range wcell {
			wa, ga := wcell[ci], gcell[ci]
			if wa.rows != ga.rows || wa.nonNull != ga.nonNull {
				t.Fatalf("%s: cell %v col %d: rows/nonNull (%d,%d) vs (%d,%d)",
					label, key, ci, wa.rows, wa.nonNull, ga.rows, ga.nonNull)
			}
			if !feq(wa.sum, ga.sum) || !feq(wa.min, ga.min) || !feq(wa.max, ga.max) {
				t.Fatalf("%s: cell %v col %d: sum/min/max (%v,%v,%v) vs (%v,%v,%v)",
					label, key, ci, wa.sum, wa.min, wa.max, ga.sum, ga.min, ga.max)
			}
			if (wa.distinct == nil) != (ga.distinct == nil) {
				t.Fatalf("%s: cell %v col %d: distinct tracking mismatch", label, key, ci)
			}
			if len(wa.distinct) != len(ga.distinct) {
				t.Fatalf("%s: cell %v col %d: distinct %d vs %d",
					label, key, ci, len(wa.distinct), len(ga.distinct))
			}
			for k := range wa.distinct {
				if _, ok := ga.distinct[k]; !ok {
					t.Fatalf("%s: cell %v col %d: distinct key %d missing", label, key, ci, k)
				}
			}
		}
	}
	// Cross-check a sample of answers through the public query surface,
	// covering ratio functions (which combine two cells) and empty cells.
	for _, q := range sampleQueries(want.CubeResult) {
		wv, wok := want.Value(q)
		gv, gok := got.Value(q)
		if wok != gok || (wok && !feq(wv, gv) && !(math.IsNaN(wv) && math.IsNaN(gv))) {
			t.Fatalf("%s: query %s: oracle (%v,%v) vs kernel (%v,%v)", label, q.Key(), wv, wok, gv, gok)
		}
	}
}
