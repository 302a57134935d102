// Package vec holds the measured micro-kernel layer under the cube and
// scan execution paths: the handful of inner loops that dominate per-row
// cost once zone maps, batching, and scheduling have removed everything
// else (equality compare → bitmask, mask→index selection compaction,
// selection-vector and dictionary-code gathers, min/max folds, non-NULL
// counts, SoA accumulate into gathered cells).
//
// Every primitive is one plain Go function, and its loop defines its
// semantics.
//
// Float-sum ordering: primitives that add float64s (AccumulateF64,
// const folds) are deliberately kept in strict row order and never get
// SIMD variants — reassociating the sums would change their results in
// the last bit, and the engine's differential tests pin cube cells
// bit for bit against the row-at-a-time oracle.
package vec

import (
	"math"
	"math/bits"
)

// MaskWords returns the number of uint64 words needed to hold an n-row
// bitmask.
func MaskWords(n int) int { return (n + 63) >> 6 }

// CmpEqF64 is the equality compare → bitmask: it sets bit i of mask for
// every vals[i] == want and clears all other bits in the first
// MaskWords(len(vals)) words, including the tail bits of the last word.
// NaN never matches (even NaN want) and ±0 compare equal.
func CmpEqF64(vals []float64, want float64, mask []uint64) {
	for w := range mask[:MaskWords(len(vals))] {
		mask[w] = 0
	}
	for i, v := range vals {
		if v == want {
			mask[i>>6] |= 1 << uint(i&63)
		}
	}
}

// CmpEqI32 is CmpEqF64 over dictionary codes. NULL codes (negative) never
// match a non-negative want.
func CmpEqI32(codes []int32, want int32, mask []uint64) {
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

// MinMaxF64 is the NaN-skipping min/max fold of zone-map construction. It
// returns (+Inf, -Inf) for an empty or all-NaN input. Comparisons are
// strict, so of equal values (+0 and -0 included) the first one wins.
func MinMaxF64(vals []float64) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
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

// CountNonNegI32 is the non-NULL count of a dictionary-code block (NULLs
// are negative codes).
func CountNonNegI32(codes []int32) int {
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
// the row-at-a-time oracle bit for bit), so no SIMD variant exists and
// none should be added.
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
