package sqlexec

import (
	"context"
	"fmt"
	"math"
	"sort"

	"aggchecker/internal/db"
)

// This file implements the transportable form of execution results used by
// sharded scatter-gather execution (package shard): a worker runs the normal
// vectorized kernel over its partition and exports the resulting
// accumulators as a CubePartial or ScanPartial; the coordinator folds the
// per-shard partials back together with the same addAccumulators algebra
// that merges delta scans, so a K-shard merge is exact in precisely the way
// mergeAppend is (counts, min/max, and distinct sets always; float sums
// regroup at shard boundaries, bit-for-bit for integer-valued data).
//
// Two representation rules make partials portable across processes:
//
//   - Floats travel as IEEE-754 bit patterns (uint64), because accumulators
//     legitimately hold ±Inf (empty min/max) and NaN, which JSON cannot
//     encode as numbers.
//   - Distinct keys for string columns are canonicalized from per-partition
//     dictionary codes — which assign different codes to the same value on
//     different shards — to an FNV-64 hash of the dictionary string, so
//     cross-shard unions count distinct values, not distinct codes. Numeric
//     distinct keys (float bits) are canonical already.

// CubeRequest is the wire form of one cube pass fanned out to shard
// workers: the join scope, the dimension specs (columns + literal sets),
// and the aggregate requests to track.
type CubeRequest struct {
	Tables []string     `json:"tables"`
	Dims   []DimSpec    `json:"dims"`
	Reqs   []AggRequest `json:"reqs"`
}

// ScanRequest is the wire form of one direct query fanned out to shard
// workers.
type ScanRequest struct {
	Query Query `json:"query"`
}

// PartialAcc is one accumulator in transit.
type PartialAcc struct {
	Rows    int64  `json:"rows"`
	NonNull int64  `json:"non_null"`
	SumBits uint64 `json:"sum_bits"`
	MinBits uint64 `json:"min_bits"`
	MaxBits uint64 `json:"max_bits"`
	// Distinct holds the canonical distinct keys (sorted); HasDistinct
	// distinguishes an empty tracked set from distinct-counting disabled.
	HasDistinct bool     `json:"has_distinct,omitempty"`
	Distinct    []uint64 `json:"distinct,omitempty"`
}

// PartialCell is one cube cell in transit: the cell key plus one
// accumulator per tracked column (index 0 = star; nil = untouched slot).
type PartialCell struct {
	Key  [maxCubeDims]int16 `json:"key"`
	Accs []*PartialAcc      `json:"accs"`
}

// PartialCol is one tracked aggregation column in transit (star excluded).
type PartialCol struct {
	Table    string `json:"table"`
	Column   string `json:"column"`
	Distinct bool   `json:"distinct,omitempty"`
}

// CubePartial is one shard's share of a cube pass: every cell of the cube
// lattice over the shard's rows, with canonical distinct keys and
// bit-pattern floats. Cells are sorted by key so the wire form is
// deterministic.
type CubePartial struct {
	Tables  []string      `json:"tables"`
	Dims    []DimSpec     `json:"dims"`
	Cols    []PartialCol  `json:"cols"`
	Cells   []PartialCell `json:"cells"`
	Rows    int64         `json:"rows"`    // joined rows the shard scanned
	Version uint64        `json:"version"` // shard snapshot version
}

// ScanPartial is one shard's share of a direct query: the numerator and
// (ratio aggregates) denominator accumulators plus the scan-pipeline
// counters of the shard's pass.
type ScanPartial struct {
	Main     *PartialAcc `json:"main"`
	Base     *PartialAcc `json:"base,omitempty"`
	Scanned  int64       `json:"scanned"`
	Pruned   int64       `json:"pruned"`
	RowsRead int64       `json:"rows_read"`
}

// distinctHash canonicalizes a dictionary string into the shard-portable
// distinct-key space (FNV-1a 64).
func distinctHash(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// dictRemap builds the code -> canonical-hash table for one snapshot
// dictionary, or nil when the column is not dictionary-encoded.
func dictRemap(cv *db.ColView) []uint64 {
	dict := cv.Dictionary()
	if dict == nil {
		return nil
	}
	remap := make([]uint64, len(dict))
	for c, v := range dict {
		remap[c] = distinctHash(v)
	}
	return remap
}

// exportAcc converts an accumulator to wire form, remapping string distinct
// keys (dictionary codes) through remap when non-nil.
func exportAcc(a *accumulator, remap []uint64) *PartialAcc {
	if a == nil {
		return nil
	}
	w := &PartialAcc{
		Rows:    a.rows,
		NonNull: a.nonNull,
		SumBits: math.Float64bits(a.sum),
		MinBits: math.Float64bits(a.min),
		MaxBits: math.Float64bits(a.max),
	}
	if a.distinct != nil {
		w.HasDistinct = true
		w.Distinct = make([]uint64, 0, len(a.distinct))
		for k := range a.distinct {
			if remap != nil && k < uint64(len(remap)) {
				k = remap[k]
			}
			w.Distinct = append(w.Distinct, k)
		}
		sort.Slice(w.Distinct, func(i, j int) bool { return w.Distinct[i] < w.Distinct[j] })
	}
	return w
}

// importAcc converts a wire accumulator back to the in-memory form.
func importAcc(w *PartialAcc) *accumulator {
	if w == nil {
		return nil
	}
	a := &accumulator{
		rows:    w.Rows,
		nonNull: w.NonNull,
		sum:     math.Float64frombits(w.SumBits),
		min:     math.Float64frombits(w.MinBits),
		max:     math.Float64frombits(w.MaxBits),
	}
	if w.HasDistinct {
		a.distinct = make(map[uint64]struct{}, len(w.Distinct))
		for _, k := range w.Distinct {
			a.distinct[k] = struct{}{}
		}
	}
	return a
}

// CubePartialFor runs (or serves from cache) the requested cube pass over
// this engine's database and exports it in wire form — the shard-worker
// side of sharded cube execution. Distinct sets of string columns are
// canonicalized through the snapshot dictionary, so partials from engines
// with different dictionary code assignments merge correctly.
func (e *Engine) CubePartialFor(ctx context.Context, req CubeRequest) (*CubePartial, error) {
	res, err := e.CubeForContext(ctx, req.Tables, req.Dims, req.Reqs)
	if err != nil {
		return nil, err
	}
	snap := e.snapshotFor(ctx)
	view, err := e.viewAt(snap, req.Tables)
	if err != nil {
		return nil, err
	}
	p := &CubePartial{
		Tables:  append([]string(nil), res.Tables...),
		Dims:    res.Dims,
		Rows:    int64(view.NumRows()),
		Version: snap.Version(),
	}
	remaps := make([][]uint64, len(res.cols))
	for i, tc := range res.cols {
		if i > 0 {
			p.Cols = append(p.Cols, PartialCol{Table: tc.ref.Table, Column: tc.ref.Column, Distinct: tc.needDistinct})
		}
		if i == 0 || !tc.needDistinct {
			continue
		}
		acc, err := view.Accessor(tc.ref.Table, tc.ref.Column)
		if err != nil {
			return nil, err
		}
		remaps[i] = dictRemap(acc.Column())
	}
	p.Cells = make([]PartialCell, 0, len(res.cells))
	for key, cell := range res.cells {
		pc := PartialCell{Key: key, Accs: make([]*PartialAcc, len(cell))}
		for i, a := range cell {
			pc.Accs[i] = exportAcc(a, remaps[i])
		}
		p.Cells = append(p.Cells, pc)
	}
	sort.Slice(p.Cells, func(i, j int) bool {
		a, b := p.Cells[i].Key, p.Cells[j].Key
		for d := 0; d < maxCubeDims; d++ {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
	return p, nil
}

// MergeCubePartials folds per-shard cube partials — in the given order,
// which the coordinator fixes to shard 0..K-1 so merges are deterministic —
// into an answerable CubeResult, exactly as mergeAppend folds a delta scan:
// counts and sums add, min/max compare (earlier shard wins ties), distinct
// sets union in the canonical key space. All partials must carry the same
// scope, dimension specs, and tracked columns.
func MergeCubePartials(parts []*CubePartial) (*CubeResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sqlexec: no cube partials to merge")
	}
	first := parts[0]
	cols := make([]trackedCol, 0, len(first.Cols))
	for _, c := range first.Cols {
		cols = append(cols, trackedCol{ref: ColumnRef{Table: c.Table, Column: c.Column}, needDistinct: c.Distinct})
	}
	r, err := newCubeResultWithCols(first.Tables, first.Dims, cols)
	if err != nil {
		return nil, err
	}
	sig := cubeSignature(first.Tables, first.Dims, nil)
	for pi, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("sqlexec: nil cube partial at shard %d", pi)
		}
		if pi > 0 {
			if cubeSignature(p.Tables, p.Dims, nil) != sig || !sameDims(first.Dims, p.Dims) || !samePartialCols(first.Cols, p.Cols) {
				return nil, fmt.Errorf("sqlexec: cube partial %d does not match shard 0 (scope, dims, or columns differ)", pi)
			}
		}
		for _, cell := range p.Cells {
			if len(cell.Accs) != len(r.cols) {
				return nil, fmt.Errorf("sqlexec: cube partial %d cell has %d accumulators, want %d", pi, len(cell.Accs), len(r.cols))
			}
			imported := make([]*accumulator, len(cell.Accs))
			for i, w := range cell.Accs {
				imported[i] = importAcc(w)
			}
			prev, ok := r.cells[cell.Key]
			if !ok {
				r.cells[cell.Key] = imported
				continue
			}
			for i := range prev {
				prev[i] = addAccumulators(prev[i], imported[i])
			}
		}
	}
	// Fill holes for slots no shard touched, mirroring merged()'s defensive
	// normalization: readers expect non-nil accumulators in present cells.
	for _, cell := range r.cells {
		for i := range cell {
			if cell[i] == nil {
				cell[i] = newAccumulator(r.cols[i].needDistinct)
			}
		}
	}
	return r, nil
}

func samePartialCols(a, b []PartialCol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ScanPartialContext runs one direct query over this engine's database and
// exports the un-finalized accumulators — the shard-worker side of sharded
// direct evaluation. The scan itself is the standard vectorized pipeline
// (zone pruning, selection vectors, morsel split on a shared scheduler).
func (e *Engine) ScanPartialContext(ctx context.Context, q Query) (*ScanPartial, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tables := q.Tables(e.DefaultTable())
	view, err := e.viewAt(e.snapshotFor(ctx), tables)
	if err != nil {
		return nil, err
	}
	e.Stats.DirectQueries.Add(1)
	ds, err := newDirectScan(view, q, e.zoneMaps)
	if err != nil {
		return nil, err
	}
	total, err := e.runDirect(ctx, view, ds)
	if err != nil {
		return nil, err
	}
	var remap []uint64
	if q.Agg == CountDistinct && !ds.agg.star && ds.agg.isStr {
		remap = dictRemap(ds.agg.acc.Column())
	}
	return &ScanPartial{
		Main:     exportAcc(total.main, remap),
		Base:     exportAcc(total.base, nil),
		Scanned:  total.scanned,
		Pruned:   total.pruned,
		RowsRead: total.rowsRead,
	}, nil
}

// FinalizeScanPartials folds per-shard scan partials (in shard order) and
// finalizes the aggregate, preserving the ratio-aggregate base contract:
// every shard contributed its own denominator rows, so the merged base is
// the global denominator.
func FinalizeScanPartials(q Query, parts []*ScanPartial) (float64, error) {
	if len(parts) == 0 {
		return math.NaN(), fmt.Errorf("sqlexec: no scan partials to merge")
	}
	var main, base *accumulator
	for i, p := range parts {
		if p == nil {
			return math.NaN(), fmt.Errorf("sqlexec: nil scan partial at shard %d", i)
		}
		main = addAccumulators(main, importAcc(p.Main))
		if b := importAcc(p.Base); b != nil {
			base = addAccumulators(base, b)
		}
	}
	if main == nil {
		main = newAccumulator(q.Agg == CountDistinct)
	}
	return main.finalize(q.Agg, q.AggCol.IsStar(), base), nil
}
