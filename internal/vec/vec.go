// Package vec holds the measured micro-kernel layer under the cube and
// scan execution paths: the handful of inner loops that dominate per-row
// cost once zone maps, batching, and scheduling have removed everything
// else (equality compare → bitmask, mask→index selection compaction,
// selection-vector and dictionary-code gathers, min/max folds, non-NULL
// counts, SoA accumulate into gathered cells).
//
// Every primitive has one Go implementation, which defines its semantics.
// Four of them — CmpEqF64, CmpEqI32, CountNonNegI32 and MinMaxF64 — are
// package-level function variables that init() rebinds to AVX2 assembly
// (vec_amd64.s) when the CPU reports AVX2 (+OS ymm state), unless the
// binary is built with `-tags noasm`, which removes the assembly and the
// CPUID probe entirely. Their Go loops stay as the portable path and as
// the test oracle. The other five are plain functions. Impl() reports
// which configuration is live.
//
// Float-sum ordering: primitives that add float64s (AccumulateF64,
// const folds) are deliberately kept in strict row order and never get
// SIMD variants — reassociating the sums would break the engine's
// bit-for-bit differential guarantees against the scalar kernel.
package vec

import (
	"math"
	"math/bits"
)

// Dispatched entry points. They default to the Go loops and are rebound
// to AVX2 assembly by init() in dispatch_amd64.go when supported.
var (
	CmpEqF64       func(vals []float64, want float64, mask []uint64) = cmpEqF64Go
	CmpEqI32       func(codes []int32, want int32, mask []uint64)    = cmpEqI32Go
	MinMaxF64      func(vals []float64) (mn, mx float64)             = minMaxF64Go
	CountNonNegI32 func(codes []int32) int                           = countNonNegI32Go
)

// Impl reports the live dispatch configuration: "avx2" when the assembly
// kernels are bound, "go" otherwise (non-amd64, `noasm` build, or a CPU
// without AVX2).
func Impl() string { return asmLevel }

// MaskWords returns the number of uint64 words needed to hold an n-row
// bitmask.
func MaskWords(n int) int { return (n + 63) >> 6 }

// ---------------------------------------------------------------------------
// CmpEqF64 / CmpEqI32: equality compare → bitmask.
//
// Set bit i of mask for every vals[i] == want and clear all other bits in
// the first MaskWords(len(vals)) words, including the tail bits of the
// last word. For floats NaN never matches (even NaN want) and ±0 compare
// equal; NULL dictionary codes (negative) never match a non-negative want.

func cmpEqF64Go(vals []float64, want float64, mask []uint64) {
	for w := range mask[:MaskWords(len(vals))] {
		mask[w] = 0
	}
	for i, v := range vals {
		if v == want {
			mask[i>>6] |= 1 << uint(i&63)
		}
	}
}

func cmpEqI32Go(codes []int32, want int32, mask []uint64) {
	for w := range mask[:MaskWords(len(codes))] {
		mask[w] = 0
	}
	for i, c := range codes {
		if c == want {
			mask[i>>6] |= 1 << uint(i&63)
		}
	}
}

// SelFromMask appends the index of every set bit among the first n bits
// of mask to sel[0:] in ascending order and returns the count. sel must
// have room for n entries; bits at or beyond n are ignored. Set bits are
// extracted a word at a time with trailing-zero counts, so empty words
// cost one test.
func SelFromMask(mask []uint64, n int, sel []int32) int {
	c := 0
	words := n >> 6
	for w := 0; w < words; w++ {
		m := mask[w]
		base := int32(w << 6)
		for m != 0 {
			sel[c] = base + int32(bits.TrailingZeros64(m))
			c++
			m &= m - 1
		}
	}
	if t := n & 63; t != 0 {
		m := mask[words] & (1<<uint(t) - 1)
		base := int32(words << 6)
		for m != 0 {
			sel[c] = base + int32(bits.TrailingZeros64(m))
			c++
			m &= m - 1
		}
	}
	return c
}

// ---------------------------------------------------------------------------
// GatherF64 / GatherI32: selection-vector gather (dst[i] = src[idx[i]]).
// Also serves the join view's rowMap block reads, which have exactly this
// shape. idx entries must be valid indexes into src.
//
// dst and src may alias only for in-place compaction with an ascending
// selection vector (idx[i] >= i for all i, as SelFromMask produces): each
// source element is then read before position i could have overwritten it.
// Any other overlap is undefined.

// GatherF64 gathers float64s through a selection vector.
func GatherF64(dst, src []float64, idx []int32) {
	for i, r := range idx {
		dst[i] = src[r]
	}
}

// GatherI32 gathers int32s through a selection vector.
func GatherI32(dst, src []int32, idx []int32) {
	for i, r := range idx {
		dst[i] = src[r]
	}
}

// LookupCodes is a dictionary-code gather through a lookup table:
// dst[i] = lut[codes[i]] for codes[i] >= 0, def for NULL (negative)
// codes. Non-negative codes must be < len(lut).
func LookupCodes(dst, codes, lut []int32, def int32) {
	for i, c := range codes {
		if c >= 0 {
			dst[i] = lut[c]
		} else {
			dst[i] = def
		}
	}
}

// ---------------------------------------------------------------------------
// MinMaxF64: NaN-skipping min/max fold (zone-map construction).
//
// Returns (+Inf, -Inf) for an empty or all-NaN input. When both +0 and
// -0 are present, implementations may return either representation of
// zero (callers must not depend on the sign of a zero bound; zone-map
// containment treats them as equal). This is the one primitive whose
// implementations are allowed to differ below == equality.

func minMaxF64Go(vals []float64) (mn, mx float64) {
	mn = inf
	mx = negInf
	for _, v := range vals {
		if v != v {
			continue
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

var (
	inf    = math.Inf(1)
	negInf = math.Inf(-1)
)

// ---------------------------------------------------------------------------
// CountNonNegI32: non-NULL count of a dictionary-code block (NULLs are
// negative codes).

func countNonNegI32Go(codes []int32) int {
	c := 0
	for _, v := range codes {
		if v >= 0 {
			c++
		}
	}
	return c
}

// AccumulateF64 is the SoA sum/count/min/max scatter into gathered cells.
// For each row i, in strictly ascending row order:
//
//	ix := offs[i]; v := vals[i]
//	nonNull[ix]++; sum[ix] += v
//	minv[ix] = min-by-strict-<; maxv[ix] = max-by-strict->
//
// This is the NULL-free fast path: callers must have established that no
// vals entry is NaN. Row order is a hard contract (float sums must match
// the scalar kernel bit for bit), so no SIMD variant exists and none
// should be added.
func AccumulateF64(offs []int32, vals []float64, nonNull []int64, sum, minv, maxv []float64) {
	for i, ix := range offs {
		v := vals[i]
		nonNull[ix]++
		sum[ix] += v
		if v < minv[ix] {
			minv[ix] = v
		}
		if v > maxv[ix] {
			maxv[ix] = v
		}
	}
}
