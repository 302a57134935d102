package sqlexec

import (
	"fmt"
	"sort"
	"strings"
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

// trackedCol is an aggregation column tracked during a cube pass.
type trackedCol struct {
	ref          ColumnRef
	needDistinct bool
}

// CubeResult holds the cells of one cube query: for every combination of
// dimension values (including rolled-up levels) the statistics of every
// tracked aggregation column plus the star column (index 0). The cells are
// the kernel's dense lattice (see kernel.go): dimension i codes a literal
// as its index, "some other value or NULL" as |literals| and "rolled up"
// as |literals|+1, and a cell is the mixed-radix index Σ code_i·strides[i].
type CubeResult struct {
	Tables []string
	Dims   []DimSpec

	dimIndex map[string]int     // ColumnRef.String() -> dim position
	litIndex []map[string]int32 // per dim: literal -> code
	strides  []int32            // per dim: weight of its code in a cell index
	cols     []trackedCol       // tracked columns; cols[0] is star
	colIndex map[string]int
	cells    *vecPartial // the lattice; cells.cols is parallel to cols
}

// newCubeResult builds the empty shell of a cube: dimension and literal
// indexes, lattice strides, and the deduplicated tracked columns (star at
// index 0). The kernel fills its cells. A lattice over maxFlatCells is
// refused before any row is read; EvaluateBatch then answers the pass's
// queries with direct scans.
func newCubeResult(tables []string, dims []DimSpec, cols []trackedCol) (*CubeResult, error) {
	if len(dims) > maxCubeDims {
		return nil, fmt.Errorf("sqlexec: %d cube dimensions exceeds maximum %d", len(dims), maxCubeDims)
	}
	if flatLatticeSize(dims) < 0 {
		return nil, fmt.Errorf("sqlexec: cube lattice over %s exceeds %d cells", cubeSignature(tables, dims), maxFlatCells)
	}
	r := &CubeResult{
		Tables:   tables,
		Dims:     dims,
		dimIndex: make(map[string]int, len(dims)),
		cols:     []trackedCol{{ref: ColumnRef{}}}, // star
		colIndex: map[string]int{ColumnRef{}.String(): 0},
	}
	stride := int32(1)
	for i, d := range dims {
		r.dimIndex[d.Col.String()] = i
		idx := make(map[string]int32, len(d.Literals))
		for j, lit := range d.Literals {
			idx[lit] = int32(j)
		}
		r.litIndex = append(r.litIndex, idx)
		r.strides = append(r.strides, stride)
		stride *= int32(len(d.Literals) + 2)
	}
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

// hasColumn reports whether the column is tracked with the needed flags.
func (r *CubeResult) hasColumn(ref ColumnRef, needDistinct bool) bool {
	i, ok := r.colIndex[ref.String()]
	if !ok {
		return false
	}
	return !needDistinct || r.cols[i].needDistinct
}

// CanAnswer reports whether the cube covers query q: all predicates fall on
// cube dimensions with known literals and the aggregation column is tracked.
func (r *CubeResult) CanAnswer(q Query) bool {
	_, ok := r.Value(q)
	return ok
}

// rootCell is the lattice index of the fully rolled-up cell: every
// dimension at its last code.
func (r *CubeResult) rootCell() int { return len(r.cells.rows) - 1 }

// cellFor maps predicates to their cell's lattice index: a predicate's
// dimension takes its literal's code, every other dimension stays rolled
// up.
func (r *CubeResult) cellFor(preds []Predicate) (int, bool) {
	ix := r.rootCell()
	var grouped [maxCubeDims]bool
	for _, p := range preds {
		di, ok := r.dimIndex[p.Col.String()]
		if !ok || grouped[di] { // unknown column, or two predicates on one
			return 0, false
		}
		li, ok := r.litIndex[di][p.Value]
		if !ok {
			return 0, false
		}
		grouped[di] = true
		anyCode := int32(len(r.Dims[di].Literals) + 1)
		ix -= int((anyCode - li) * r.strides[di])
	}
	return ix, true
}

// Value answers query q from the cube. The second return is false when the
// cube does not cover the query. CountDistinct needs a column tracked with
// distinct sets, which star never is.
func (r *CubeResult) Value(q Query) (float64, bool) {
	ix, ok := r.cellFor(q.Preds)
	if !ok {
		return 0, false
	}
	star := q.AggCol.IsStar()
	ci := 0
	if !star {
		if ci, ok = r.colIndex[q.AggCol.String()]; !ok {
			return 0, false
		}
	}
	if q.Agg == CountDistinct {
		if !r.cols[ci].needDistinct {
			return 0, false
		}
		return float64(r.cells.distinctCount(ci, ix)), true
	}
	a := r.cells.cell(ci, ix)
	var base *accumulator
	if q.Agg == Percentage || q.Agg == ConditionalProbability {
		bix := r.rootCell()
		if q.Agg == ConditionalProbability && len(q.Preds) > 0 {
			if bix, ok = r.cellFor(q.Preds[:1]); !ok {
				return 0, false
			}
		}
		b := r.cells.cell(ci, bix)
		base = &b
	}
	return a.finalize(q.Agg, star, base), true
}

// signature identifies a cube by join scope and dimension set (the paper's
// cache index granularity is one aggregation function + column + dimension
// set; we key the cell store by scope+dims and track columns inside it,
// which is the same sharing structure with one map level fewer).
func cubeSignature(tables []string, dims []DimSpec) string {
	ts := make([]string, len(tables))
	copy(ts, tables)
	sort.Strings(ts)
	ds := make([]string, len(dims))
	for i, d := range dims {
		ds[i] = d.Col.String()
	}
	sort.Strings(ds)
	return strings.Join(ts, ",") + "|" + strings.Join(ds, ",")
}

// merged returns a new CubeResult combining r with the tracked columns of
// other, used when the cache holds a cube lacking some columns. Both were
// computed over the same view and dims, so they share one lattice: the
// result appends other's column arrays to r's. Neither input is modified —
// published cube results are immutable, so goroutines answering queries
// from an earlier snapshot never race with cache extension.
func (r *CubeResult) merged(other *CubeResult) *CubeResult {
	out := *r
	out.cols = append([]trackedCol(nil), r.cols...)
	out.colIndex = make(map[string]int, len(r.colIndex)+len(other.cols))
	for k, v := range r.colIndex {
		out.colIndex[k] = v
	}
	out.cells = &vecPartial{rows: r.cells.rows, cols: append([]vecColAcc(nil), r.cells.cols...)}
	for i := 1; i < len(other.cols); i++ {
		tc := other.cols[i]
		j, ok := out.colIndex[tc.ref.String()]
		switch {
		case !ok:
			out.colIndex[tc.ref.String()] = len(out.cols)
			out.cols = append(out.cols, tc)
			out.cells.cols = append(out.cells.cols, other.cells.cols[i])
		case tc.needDistinct && !out.cols[j].needDistinct:
			// Replace the column with the distinct-capable one.
			out.cols[j].needDistinct = true
			out.cells.cols[j] = other.cells.cols[i]
		}
	}
	return &out
}

// memBytes estimates the resident heap size of the cube result: the
// lattice (see vecPartial.memBytes) and the dimension literal tables. The
// estimate only needs to be consistent across cubes, which is all the
// cost-aware cache policy ranks by.
func (r *CubeResult) memBytes() int64 {
	n := r.cells.memBytes()
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
// input is modified: the fold runs on a copy-on-write clone of r's lattice,
// so readers answering queries from the pre-append snapshot never race with
// the advance, and counts, sums, min/max and distinct sets combine exactly
// as a from-scratch rebuild would produce them (bit-for-bit for
// integer-valued data, where float addition is associative).
func (r *CubeResult) mergeAppend(delta *CubeResult) *CubeResult {
	out := *r
	out.cells = r.cells.clone()
	out.cells.merge(delta.cells)
	return &out
}
