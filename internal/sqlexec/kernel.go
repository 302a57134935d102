package sqlexec

import (
	"context"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"aggchecker/internal/db"
	"aggchecker/internal/vec"
)

// This file implements the vectorized columnar execution kernel for cube
// scans — the replacement for the row-at-a-time interpreter in cube.go.
// The merging phase (§6.2–6.3) makes one cube pass answer hundreds of
// related claim candidates, so this scan is the system's hot path.
//
// The kernel processes the join view in blocks of kernelBlockRows rows:
//
//  1. Each dimension column is coded into a dense offset vector per block.
//     String dimensions translate dictionary codes through a flat lookup
//     table; numeric dimensions run a branchless binary search over their
//     sorted literal values — no per-row map probes or hashes anywhere in
//     the scan. The coded value is already pre-multiplied by the
//     dimension's mixed-radix stride.
//  2. The cell store is a flat accumulator array over the bounded lattice:
//     each dimension contributes |literals|+2 codes (literal, other, any)
//     and at most maxCubeDims dimensions exist, so a cube cell is a single
//     mixed-radix index — no hash map in the scan loop. Per subset mask the
//     per-row cell indexes are one vector add away.
//  3. Sum/count/min/max accumulate in struct-of-arrays batch loops; exact
//     distinct counts use per-cell dictionary-code bitsets for string
//     columns and per-cell hash sets for numeric columns.
//  4. Large scans split into zone-aligned morsels executed on the engine's
//     scheduler and merged deterministically at the end, so one cube pass
//     parallelizes internally, not just across passes.
//
// Block reads go through the db block-access contract: zero-copy column
// slices on single-table views, batch gathers through the join-view row
// maps otherwise (Stats.DirectBlockReads / Stats.GatherBlockReads).

const (
	// kernelBlockRows is the number of joined rows a kernel block holds: a
	// balance between buffer locality (code vectors, gather buffers and the
	// index vector stay L1/L2-resident) and amortizing per-block overhead.
	// Context cancellation is checked once per block.
	kernelBlockRows = 4096

	// maxFlatCells bounds the dense lattice. Beyond this the flat
	// accumulator arrays would dominate memory (the lattice is mostly empty
	// for huge literal pools), so the pass falls back to the scalar kernel
	// and its sparse map cell store.
	maxFlatCells = 1 << 18
)

// kernelParallelMinRows is the minimum view size for splitting a cube pass
// into row-range partials; below it the partial arrays cost more than the
// scan. A variable so tests can exercise the partial-merge path on small
// inputs.
var kernelParallelMinRows = 1 << 16

// flatLatticeSize returns the dense cell count of the cube lattice (every
// dimension contributes |literals| codes plus "other" and "any"), or -1
// when it exceeds maxFlatCells and the dense kernel must not be used.
func flatLatticeSize(dims []DimSpec) int {
	size := 1
	for _, d := range dims {
		size *= len(d.Literals) + 2
		if size > maxFlatCells {
			return -1
		}
	}
	return size
}

// passConfig bundles the resolved execution settings of one cube pass or
// delta scan: the stats sink, kernel and zone-map selection, and the
// scheduler a large pass splits its morsels onto (nil for delta scans,
// which always scan their range in one piece).
type passConfig struct {
	stats  *Stats
	scalar bool
	zones  bool
	sched  *Scheduler
}

// computeCubeRange is the one cube-pass entry point: it accumulates joined
// rows [lo, hi) — every row (lo=0, hi=NumRows) for a full pass, or the
// rows of blocks sealed after a cached cube's snapshot for a delta scan,
// whose partial CubeResult.mergeAppend folds into the published result.
// It is the only place that picks the kernel: the vectorized kernel by
// default, the scalar interpreter when forced (WithScalarKernel) or when
// the literal sets blow the dense lattice bound. Both kernels produce
// bit-for-bit identical CubeResults (asserted by the differential tests in
// kernel_diff_test.go), so a delta partial matches what a full rebuild
// would accumulate; pc.zones enables block pruning, which never changes
// results either (a delta block whose dimension domains miss every
// tracked literal takes the batched rolled-up update instead of the
// per-row coding loops).
func computeCubeRange(ctx context.Context, view *db.JoinView, tables []string, dims []DimSpec, cols []trackedCol, lo, hi int, pc passConfig) (*CubeResult, error) {
	size := flatLatticeSize(dims)
	if pc.scalar || size < 0 {
		if pc.stats != nil {
			pc.stats.ScalarPasses.Add(1)
		}
		return computeCubeScalarRange(ctx, view, tables, dims, cols, lo, hi)
	}
	return computeCubeVectorizedRange(ctx, view, tables, dims, cols, size, lo, hi, pc)
}

// vecDim codes one dimension column into pre-multiplied lattice offsets.
type vecDim struct {
	acc    db.ColumnAccessor
	isStr  bool
	direct bool
	// zones are the column's zone-map entries (nil on gather views or with
	// pruning disabled); litCodes the dictionary codes of the string
	// literals present in the dictionary, tested against zone domain
	// bitsets.
	zones    []db.ZoneEntry
	litCodes []int32
	// dictToOff maps a dictionary code directly to literalIndex*stride
	// (entries for non-literal values hold otherOff), replacing the scalar
	// kernel's per-row map probe with an array load.
	dictToOff []int32
	// litVals/litOffs code numeric dimensions: the distinct literal values
	// sorted ascending, with litOffs[i] = literalIndex*stride of
	// litVals[i]. Literal sets are tiny, so a branchless lower-bound
	// binary search over litVals beats the per-row map probe that used to
	// be the kernel's last hash (ROADMAP: numeric dimension coding).
	litVals  []float64
	litOffs  []int32
	stride   int32
	card     int32 // |literals|+2
	otherOff int32 // |literals| * stride
	anyOff   int32 // (|literals|+1) * stride
}

// zoneMisses reports whether zone zi provably contains none of the
// dimension's literals — every row of the segment then codes to "other".
// A dimension whose literal set is entirely absent from the data (no
// dictionary codes, no parseable values) misses every zone.
func (d *vecDim) zoneMisses(zi int) bool {
	if d.zones == nil || zi < 0 {
		return false
	}
	z := &d.zones[zi]
	if d.isStr {
		for _, c := range d.litCodes {
			if z.MayContainCode(c) {
				return false
			}
		}
		return true
	}
	for _, v := range d.litVals {
		if z.MayContainFloat(v) {
			return false
		}
	}
	return true
}

// vecCol reads one tracked aggregation column (index 0, star, is unused).
type vecCol struct {
	acc          db.ColumnAccessor
	isStr        bool
	direct       bool
	needDistinct bool
	dictLen      int
	// zones are the column's zone-map entries (nil on gather views or with
	// pruning disabled): a zone with zero NULLs unlocks the NULL-free fast
	// path per segment, an all-NULL zone skips the value read entirely.
	zones []db.ZoneEntry
	// noNulls lets the accumulation loop hoist the NULL branch out for
	// numeric columns whose null bitmap is empty.
	noNulls bool
}

// vecKernel is the immutable per-pass state shared by all partials.
type vecKernel struct {
	view *db.JoinView
	dims []vecDim
	cols []vecCol // parallel to CubeResult.cols
	size int      // flat lattice cell count
	// spans is the zone-aligned segmentation of the view's rows (nil on
	// gather views or with zone maps disabled: fixed-size chunks then).
	spans []db.ZoneSpan
	// cBase[mask] is the flat index of a row's cell under subset mask with
	// every masked dimension's offset still to be added: baseAny minus the
	// anyOff of each grouped dimension.
	cBase    []int32
	maskDims [][]int
	// maskOtherOff[mask] is the summed otherOff of the mask's dimensions:
	// cBase[mask]+maskOtherOff[mask] is the constant cell index of a fully
	// zone-pruned segment (every row codes to "other" on every dimension).
	maskOtherOff []int32
	stats        *Stats
}

func newVecKernel(view *db.JoinView, dims []DimSpec, r *CubeResult, size int, stats *Stats, zoneMaps bool) (*vecKernel, error) {
	k := &vecKernel{view: view, size: size, stats: stats}
	if zoneMaps {
		k.spans = view.ZoneSpans()
	}

	stride := int32(1)
	baseAny := int32(0)
	for _, d := range dims {
		acc, err := view.Accessor(d.Col.Table, d.Col.Column)
		if err != nil {
			return nil, err
		}
		vd := vecDim{acc: acc, isStr: acc.Column().Kind == db.KindString, direct: acc.Direct(), stride: stride}
		if k.spans != nil {
			vd.zones = acc.Zones()
		}
		nl := int32(len(d.Literals))
		vd.card = nl + 2
		vd.otherOff = nl * stride
		vd.anyOff = (nl + 1) * stride
		if vd.isStr {
			lut := make([]int32, len(acc.Column().Dictionary()))
			for c := range lut {
				lut[c] = vd.otherOff
			}
			for j, lit := range d.Literals {
				if code := acc.Column().CodeOf(lit); code >= 0 {
					lut[code] = int32(j) * stride
					vd.litCodes = append(vd.litCodes, code)
				}
			}
			vd.dictToOff = lut
		} else {
			// Duplicate literal values (e.g. "1" and "1.0") resolve to the
			// last literal's offset, matching the map semantics of the
			// scalar reference kernel.
			m := make(map[float64]int32, len(d.Literals))
			for j, lit := range d.Literals {
				if v, err := parseLiteralFloat(lit); err == nil {
					m[v] = int32(j) * stride
				}
			}
			vd.litVals = make([]float64, 0, len(m))
			for v := range m {
				vd.litVals = append(vd.litVals, v)
			}
			sort.Float64s(vd.litVals)
			vd.litOffs = make([]int32, len(vd.litVals))
			for j, v := range vd.litVals {
				vd.litOffs[j] = m[v]
			}
		}
		k.dims = append(k.dims, vd)
		baseAny += vd.anyOff
		stride *= vd.card
	}

	nsubsets := 1 << len(dims)
	k.cBase = make([]int32, nsubsets)
	k.maskDims = make([][]int, nsubsets)
	k.maskOtherOff = make([]int32, nsubsets)
	for mask := 0; mask < nsubsets; mask++ {
		c := baseAny
		for i := range dims {
			if mask&(1<<i) != 0 {
				c -= k.dims[i].anyOff
				k.maskDims[mask] = append(k.maskDims[mask], i)
				k.maskOtherOff[mask] += k.dims[i].otherOff
			}
		}
		k.cBase[mask] = c
	}

	k.cols = make([]vecCol, len(r.cols))
	for i := 1; i < len(r.cols); i++ {
		acc, err := view.Accessor(r.cols[i].ref.Table, r.cols[i].ref.Column)
		if err != nil {
			return nil, err
		}
		vc := vecCol{acc: acc, isStr: acc.Column().Kind == db.KindString, direct: acc.Direct(), needDistinct: r.cols[i].needDistinct}
		if k.spans != nil {
			vc.zones = acc.Zones()
		}
		if vc.isStr {
			vc.dictLen = len(acc.Column().Dictionary())
		} else {
			vc.noNulls = !acc.Column().HasNulls()
		}
		k.cols[i] = vc
	}
	return k, nil
}

// vecPartial holds the struct-of-arrays accumulator state of one row range.
type vecPartial struct {
	// rows is shared by every column: an accumulator's row count does not
	// depend on which column it tracks.
	rows []int64
	cols []vecColAcc // parallel to vecKernel.cols; index 0 (star) empty
}

type vecColAcc struct {
	nonNull         []int64
	sum, minv, maxv []float64             // numeric columns only
	bits            [][]uint64            // per-cell dictionary-code bitsets (string distinct)
	sets            []map[uint64]struct{} // per-cell value sets (numeric distinct)
}

// latticePool recycles the size-proportional flat accumulator arrays of
// vecPartials between cube passes of the same lattice size. Only the dense
// int64/float64 arrays are pooled: the per-cell bitset and set stores are
// adopted by merge() and fill() and must never be reused.
type latticePool struct {
	ints   sync.Pool // *[]int64
	floats sync.Pool // *[]float64
}

// latticePools maps lattice size -> *latticePool. Lattice sizes are bounded
// (maxFlatCells) and few in practice — one per distinct dimension shape.
var latticePools sync.Map

// latticePoolMisses counts fresh dense-array allocations (pool misses) — a
// test hook asserting that steady-state passes of a given lattice size run
// through the pool without allocating.
var latticePoolMisses atomic.Int64

func poolForSize(size int) *latticePool {
	if v, ok := latticePools.Load(size); ok {
		return v.(*latticePool)
	}
	v, _ := latticePools.LoadOrStore(size, &latticePool{})
	return v.(*latticePool)
}

func (p *latticePool) getInts(size int) []int64 {
	if v := p.ints.Get(); v != nil {
		s := *v.(*[]int64)
		for i := range s {
			s[i] = 0
		}
		return s
	}
	latticePoolMisses.Add(1)
	return make([]int64, size)
}

func (p *latticePool) getFloats(size int, fill float64) []float64 {
	if v := p.floats.Get(); v != nil {
		s := *v.(*[]float64)
		for i := range s {
			s[i] = fill
		}
		return s
	}
	latticePoolMisses.Add(1)
	s := make([]float64, size)
	if fill != 0 {
		for i := range s {
			s[i] = fill
		}
	}
	return s
}

func (p *latticePool) putInts(s []int64)     { p.ints.Put(&s) }
func (p *latticePool) putFloats(s []float64) { p.floats.Put(&s) }

func (k *vecKernel) newPartial() *vecPartial {
	lp := poolForSize(k.size)
	pt := &vecPartial{rows: lp.getInts(k.size), cols: make([]vecColAcc, len(k.cols))}
	for i := 1; i < len(k.cols); i++ {
		vc := &k.cols[i]
		ca := vecColAcc{nonNull: lp.getInts(k.size)}
		if !vc.isStr {
			ca.sum = lp.getFloats(k.size, 0)
			ca.minv = lp.getFloats(k.size, math.Inf(1))
			ca.maxv = lp.getFloats(k.size, math.Inf(-1))
		}
		if vc.needDistinct {
			if vc.isStr {
				ca.bits = make([][]uint64, k.size)
			} else {
				ca.sets = make([]map[uint64]struct{}, k.size)
			}
		}
		pt.cols[i] = ca
	}
	return pt
}

// releasePartial returns a partial's dense arrays to the lattice pool. Call
// only once the partial is dead: after it merged into an earlier-range
// partial, or after fill() exported the root to the sparse cell store. The
// bits/sets stores are not returned — merge and fill adopt their inner
// objects into longer-lived owners.
func (k *vecKernel) releasePartial(pt *vecPartial) {
	lp := poolForSize(k.size)
	lp.putInts(pt.rows)
	for i := 1; i < len(pt.cols); i++ {
		ca := &pt.cols[i]
		lp.putInts(ca.nonNull)
		if ca.sum != nil {
			lp.putFloats(ca.sum)
			lp.putFloats(ca.minv)
			lp.putFloats(ca.maxv)
		}
	}
	pt.rows, pt.cols = nil, nil
}

// scanRange accumulates joined rows [lo, hi) into a fresh partial,
// segment by segment through the shared pipeline segmenter. Zone maps are
// consulted before any data is read: a segment whose zones refute every
// literal of every dimension takes the batched rolled-up update (each
// subset mask accumulates into one constant "other" cell, dimension
// columns are never read), and per-dimension misses skip that dimension's
// read and coding loop. All accumulation stays in row order, so results
// remain bit-for-bit identical to the scalar interpreter.
func (k *vecKernel) scanRange(ctx context.Context, lo, hi int) (*vecPartial, error) {
	pt := k.newPartial()
	nd := len(k.dims)
	dimOffs := make([][]int32, nd)
	for i := range dimOffs {
		dimOffs[i] = make([]int32, kernelBlockRows)
	}
	idxBuf := make([]int32, kernelBlockRows)
	var fScratch []float64
	var cScratch []int32
	for i := range k.dims {
		if k.dims[i].isStr {
			cScratch = make([]int32, kernelBlockRows)
		} else {
			fScratch = make([]float64, kernelBlockRows)
		}
	}
	// Gather buffers only for columns off the zero-copy path; the block
	// values must stay live across all subset masks, so they cannot share
	// one scratch buffer.
	colF := make([][]float64, len(k.cols))
	colC := make([][]int32, len(k.cols))
	for i := 1; i < len(k.cols); i++ {
		if k.cols[i].direct {
			continue
		}
		if k.cols[i].isStr {
			colC[i] = make([]int32, kernelBlockRows)
		} else {
			colF[i] = make([]float64, kernelBlockRows)
		}
	}
	blockF := make([][]float64, len(k.cols))
	blockC := make([][]int32, len(k.cols))

	var blocks, pruned, directReads, gatherReads int64
	countRead := func(direct bool) {
		if direct {
			directReads++
		} else {
			gatherReads++
		}
	}
	// readCols loads the tracked aggregation column blocks (zero-copy when
	// direct), skipping columns whose zone is entirely NULL — their rows
	// count, but no value can contribute.
	readCols := func(start, bn, zi int) {
		for i := 1; i < len(k.cols); i++ {
			vc := &k.cols[i]
			if vc.zones != nil && zi >= 0 && vc.zones[zi].AllNull() {
				blockF[i], blockC[i] = nil, nil
				continue
			}
			countRead(vc.direct)
			if vc.isStr {
				blockC[i], _ = vc.acc.CodeBlock(start, bn, colC[i])
			} else {
				blockF[i], _ = vc.acc.FloatBlock(start, bn, colF[i])
			}
		}
	}

	var dimMiss [maxCubeDims]bool
	for _, sg := range segmentsOf(k.spans, lo, hi) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start, bn, zi := sg.start, sg.n, sg.zone

		allMiss := nd > 0
		for i := range k.dims {
			dimMiss[i] = k.dims[i].zoneMisses(zi)
			if !dimMiss[i] {
				allMiss = false
			}
		}

		if allMiss {
			// Batched rolled-up update: every row of the segment lands in
			// the constant all-"other" cell of each subset mask.
			pruned++
			readCols(start, bn, zi)
			for mask := range k.cBase {
				ix := k.cBase[mask] + k.maskOtherOff[mask]
				pt.rows[ix] += int64(bn)
				for i := 1; i < len(k.cols); i++ {
					k.accumulateConst(pt, i, ix, zi, blockF[i], blockC[i])
				}
			}
			continue
		}
		blocks++

		// Code dimension columns into pre-multiplied offset vectors. A
		// dimension whose zone misses every literal codes to a constant
		// "other" without touching its column.
		for i := range k.dims {
			d := &k.dims[i]
			offs := dimOffs[i][:bn]
			if dimMiss[i] {
				oo := d.otherOff
				for r := range offs {
					offs[r] = oo
				}
				continue
			}
			countRead(d.direct)
			if d.isStr {
				codes, _ := d.acc.CodeBlock(start, bn, cScratch)
				// Dictionary code -> pre-multiplied lattice offset through
				// the flat LUT; NULL codes to "other".
				vec.LookupCodes(offs, codes, d.dictToOff, d.otherOff)
			} else {
				vals, _ := d.acc.FloatBlock(start, bn, fScratch)
				lvals, loffs := d.litVals, d.litOffs
				oo := d.otherOff
				nl := len(lvals)
				for r, v := range vals {
					off := oo
					if v == v && nl > 0 { // not NaN
						// Branchless lower bound over the sorted literal
						// values: the comparison compiles to a conditional
						// add, so the loop has no data-dependent branch and
						// no hash, just log2(|literals|) compares.
						base, n := 0, nl
						for n > 1 {
							half := n >> 1
							if lvals[base+half-1] < v {
								base += half
							}
							n -= half
						}
						if lvals[base] == v {
							off = loffs[base]
						}
					}
					offs[r] = off
				}
			}
		}

		readCols(start, bn, zi)

		// Accumulate each subset mask of the lattice.
		for mask := range k.cBase {
			idx := idxBuf[:bn]
			c0 := k.cBase[mask]
			switch md := k.maskDims[mask]; len(md) {
			case 0:
				for r := range idx {
					idx[r] = c0
				}
			case 1:
				o0 := dimOffs[md[0]][:bn]
				for r := range idx {
					idx[r] = c0 + o0[r]
				}
			case 2:
				o0, o1 := dimOffs[md[0]][:bn], dimOffs[md[1]][:bn]
				for r := range idx {
					idx[r] = c0 + o0[r] + o1[r]
				}
			default: // maxCubeDims == 3
				o0, o1, o2 := dimOffs[md[0]][:bn], dimOffs[md[1]][:bn], dimOffs[md[2]][:bn]
				for r := range idx {
					idx[r] = c0 + o0[r] + o1[r] + o2[r]
				}
			}
			rows := pt.rows
			for _, ix := range idx {
				rows[ix]++
			}
			for i := 1; i < len(k.cols); i++ {
				k.accumulate(pt, i, idx, zi, blockF[i], blockC[i])
			}
		}
	}

	if k.stats != nil {
		k.stats.BlocksScanned.Add(blocks)
		k.stats.BlocksPruned.Add(pruned)
		k.stats.DirectBlockReads.Add(directReads)
		k.stats.GatherBlockReads.Add(gatherReads)
	}
	return pt, nil
}

// segNoNulls reports whether the column provably holds no NULL inside
// zone zi (column-wide bitmap, or the zone's own null count).
func (vc *vecCol) segNoNulls(zi int) bool {
	if vc.noNulls {
		return true
	}
	return vc.zones != nil && zi >= 0 && vc.zones[zi].NullCount == 0
}

// accumulate folds one column's block values into the cells named by idx.
// A nil block (all-NULL zone, read skipped) contributes nothing beyond the
// row counts already taken.
func (k *vecKernel) accumulate(pt *vecPartial, i int, idx []int32, zi int, vals []float64, codes []int32) {
	vc := &k.cols[i]
	ca := &pt.cols[i]
	if vc.isStr {
		if codes == nil {
			return
		}
		nonNull := ca.nonNull
		if !vc.needDistinct {
			for r, c := range codes {
				if c >= 0 {
					nonNull[idx[r]]++
				}
			}
			return
		}
		words := (vc.dictLen + 63) / 64
		for r, c := range codes {
			if c < 0 {
				continue
			}
			ix := idx[r]
			nonNull[ix]++
			bs := ca.bits[ix]
			if bs == nil {
				bs = make([]uint64, words)
				ca.bits[ix] = bs
			}
			bs[c>>6] |= 1 << (uint(c) & 63)
		}
		return
	}
	if vals == nil {
		return
	}
	nonNull, sum, minv, maxv := ca.nonNull, ca.sum, ca.minv, ca.maxv
	if vc.segNoNulls(zi) && !vc.needDistinct {
		// NULL-free fast path: pure struct-of-arrays batch loop, via the
		// dispatched scatter-accumulate primitive (strict row order — float
		// sums must stay bit-for-bit equal to the scalar interpreter).
		vec.AccumulateF64(idx, vals, nonNull, sum, minv, maxv)
		return
	}
	for r, v := range vals {
		if v != v { // NULL
			continue
		}
		ix := idx[r]
		nonNull[ix]++
		sum[ix] += v
		if v < minv[ix] {
			minv[ix] = v
		}
		if v > maxv[ix] {
			maxv[ix] = v
		}
		if vc.needDistinct {
			s := ca.sets[ix]
			if s == nil {
				s = make(map[uint64]struct{})
				ca.sets[ix] = s
			}
			s[math.Float64bits(v)] = struct{}{}
		}
	}
}

// accumulateConst folds one column's block values into the single cell ix
// — the fully zone-pruned path, where every row of the segment belongs to
// the same "other" cell per subset mask. Register-seeded running values
// keep the accumulation order identical to the per-row path, so even
// float sums stay bit-for-bit equal to the scalar interpreter.
func (k *vecKernel) accumulateConst(pt *vecPartial, i int, ix int32, zi int, vals []float64, codes []int32) {
	vc := &k.cols[i]
	ca := &pt.cols[i]
	if vc.isStr {
		if codes == nil {
			return
		}
		nn := int64(0)
		if !vc.needDistinct {
			// Pure non-NULL count: the dispatched sign-bit popcount.
			ca.nonNull[ix] += int64(vec.CountNonNegI32(codes))
			return
		}
		bs := ca.bits[ix]
		if bs == nil {
			bs = make([]uint64, (vc.dictLen+63)/64)
			ca.bits[ix] = bs
		}
		for _, c := range codes {
			if c < 0 {
				continue
			}
			nn++
			bs[c>>6] |= 1 << (uint(c) & 63)
		}
		ca.nonNull[ix] += nn
		return
	}
	if vals == nil {
		return
	}
	var set map[uint64]struct{}
	if vc.needDistinct {
		if set = ca.sets[ix]; set == nil {
			set = make(map[uint64]struct{})
			ca.sets[ix] = set
		}
	}
	nn := int64(0)
	s, mn, mx := ca.sum[ix], ca.minv[ix], ca.maxv[ix]
	for _, v := range vals {
		if v != v { // NULL
			continue
		}
		nn++
		s += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if set != nil {
			set[math.Float64bits(v)] = struct{}{}
		}
	}
	ca.nonNull[ix] += nn
	ca.sum[ix], ca.minv[ix], ca.maxv[ix] = s, mn, mx
}

// merge folds another partial into pt (pt covers the earlier row range, so
// sums merge in deterministic range order).
func (pt *vecPartial) merge(o *vecPartial) {
	for i, v := range o.rows {
		pt.rows[i] += v
	}
	for ci := 1; ci < len(pt.cols); ci++ {
		a, b := &pt.cols[ci], &o.cols[ci]
		for i, v := range b.nonNull {
			a.nonNull[i] += v
		}
		if a.sum != nil {
			for i, v := range b.sum {
				a.sum[i] += v
			}
			for i, v := range b.minv {
				if v < a.minv[i] {
					a.minv[i] = v
				}
			}
			for i, v := range b.maxv {
				if v > a.maxv[i] {
					a.maxv[i] = v
				}
			}
		}
		if a.bits != nil {
			for i, bs := range b.bits {
				if bs == nil {
					continue
				}
				if a.bits[i] == nil {
					a.bits[i] = bs
					continue
				}
				dst := a.bits[i]
				for w, x := range bs {
					dst[w] |= x
				}
			}
		}
		if a.sets != nil {
			for i, s := range b.sets {
				if s == nil {
					continue
				}
				if a.sets[i] == nil {
					a.sets[i] = s
					continue
				}
				dst := a.sets[i]
				for key := range s {
					dst[key] = struct{}{}
				}
			}
		}
	}
}

// fill converts the flat partial into the sparse cell store of the
// published CubeResult (only touched cells materialize, exactly like the
// scalar kernel's lazily created map entries).
func (k *vecKernel) fill(r *CubeResult, pt *vecPartial) {
	for ix := 0; ix < k.size; ix++ {
		n := pt.rows[ix]
		if n == 0 {
			continue
		}
		key := cellKey{cellAny, cellAny, cellAny}
		for i := range k.dims {
			d := &k.dims[i]
			code := (int32(ix) / d.stride) % d.card
			switch code {
			case d.card - 1:
				key[i] = cellAny
			case d.card - 2:
				key[i] = cellOther
			default:
				key[i] = int16(code)
			}
		}
		cell := make([]*accumulator, len(r.cols))
		for ci := range r.cols {
			a := &accumulator{rows: n, min: math.Inf(1), max: math.Inf(-1)}
			if ci == 0 {
				// The star accumulator counts every row as non-NULL.
				a.nonNull = n
			} else {
				ca := &pt.cols[ci]
				a.nonNull = ca.nonNull[ix]
				if ca.sum != nil {
					a.sum = ca.sum[ix]
					a.min = ca.minv[ix]
					a.max = ca.maxv[ix]
				}
				if r.cols[ci].needDistinct {
					switch {
					case ca.bits != nil:
						a.distinct = make(map[uint64]struct{})
						if bs := ca.bits[ix]; bs != nil {
							for w, word := range bs {
								for word != 0 {
									b := bits.TrailingZeros64(word)
									a.distinct[uint64(uint32(w*64+b))] = struct{}{}
									word &= word - 1
								}
							}
						}
					case ca.sets != nil && ca.sets[ix] != nil:
						a.distinct = ca.sets[ix] // partial is discarded; safe to adopt
					default:
						a.distinct = make(map[uint64]struct{})
					}
				}
			}
			cell[ci] = a
		}
		r.cells[key] = cell
	}
}

// computeCubeVectorizedRange runs the vectorized kernel over joined rows
// [rangeLo, rangeHi) with a dense lattice of size cells. The range scans
// as one piece or as zone-aligned morsels on pc.sched (see scanMorsels);
// the decomposition is fixed up front and partials merge in range order,
// so results do not depend on scheduling.
func computeCubeVectorizedRange(ctx context.Context, view *db.JoinView, tables []string, dims []DimSpec, cols []trackedCol, size, rangeLo, rangeHi int, pc passConfig) (*CubeResult, error) {
	r, err := newCubeResultWithCols(tables, dims, cols)
	if err != nil {
		return nil, err
	}
	k, err := newVecKernel(view, dims, r, size, pc.stats, pc.zones)
	if err != nil {
		return nil, err
	}

	partials, err := scanMorsels(ctx, pc.sched, pc.stats, k.spans, rangeLo, rangeHi, func(lo, hi int) (*vecPartial, error) {
		return k.scanRange(ctx, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	root := partials[0]
	for _, pt := range partials[1:] {
		root.merge(pt)
		k.releasePartial(pt)
	}
	if pc.stats != nil && len(partials) > 1 {
		pc.stats.PartialsMerged.Add(int64(len(partials) - 1))
	}
	k.fill(r, root)
	k.releasePartial(root)
	return r, nil
}
