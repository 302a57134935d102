package vec

import (
	"math"
	"math/rand"
	"testing"
)

// Lengths straddling every boundary in the package: the 4/8-lane vector
// groups and the 64-row mask words (including multi-word, unaligned-tail
// and empty inputs).
var lengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 66, 127, 128, 129, 191, 192, 193, 255, 256, 257, 300}

func randFloats(rng *rand.Rand, n int) []float64 {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1), 1.5, -1.5}
	vals := make([]float64, n)
	for i := range vals {
		switch rng.Intn(4) {
		case 0:
			vals[i] = specials[rng.Intn(len(specials))]
		case 1:
			vals[i] = float64(rng.Intn(8)) // dense duplicates so compares hit
		default:
			vals[i] = rng.NormFloat64() * 100
		}
	}
	return vals
}

func randCodes(rng *rand.Rand, n, card int, nullFrac float64) []int32 {
	codes := make([]int32, n)
	for i := range codes {
		if rng.Float64() < nullFrac {
			codes[i] = -1 - int32(rng.Intn(2)) // NULLs are any negative code
		} else {
			codes[i] = int32(rng.Intn(card))
		}
	}
	return codes
}

func maskEq(t *testing.T, name string, n int, got, want []uint64) {
	t.Helper()
	for w := 0; w < MaskWords(n); w++ {
		if got[w] != want[w] {
			t.Fatalf("%s: n=%d word %d: got %016x want %016x", name, n, w, got[w], want[w])
		}
	}
}

// garbage fills a mask with set bits, so an implementation that ORs into
// stale words instead of clearing them fails.
func garbage(mask []uint64) {
	for i := range mask {
		mask[i] = ^uint64(0)
	}
}

func TestCmpEqF64Variants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			vals := randFloats(rng, n)
			var want float64
			switch trial % 4 {
			case 0:
				want = math.NaN() // must match nothing
			case 1:
				want = 0.0 // must match -0 too
			case 2:
				want = float64(rng.Intn(8))
			default:
				if n > 0 {
					want = vals[rng.Intn(n)]
				}
			}
			ref := make([]uint64, MaskWords(n)+1)
			got := make([]uint64, MaskWords(n)+1)
			garbage(ref)
			garbage(got)
			cmpEqF64Go(vals, want, ref)
			for i, v := range vals {
				if bit := ref[i>>6]>>uint(i&63)&1 == 1; bit != (v == want) {
					t.Fatalf("go: n=%d row %d (%v == %v): bit %v", n, i, v, want, bit)
				}
			}
			CmpEqF64(vals, want, got)
			maskEq(t, Impl(), n, got, ref)
		}
	}
}

func TestCmpEqI32Variants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			codes := randCodes(rng, n, 6, 0.3)
			want := int32(rng.Intn(8) - 1) // includes -1: matching a NULL code is the caller's bug, but compare semantics stay exact
			ref := make([]uint64, MaskWords(n)+1)
			got := make([]uint64, MaskWords(n)+1)
			garbage(ref)
			garbage(got)
			cmpEqI32Go(codes, want, ref)
			for i, c := range codes {
				if bit := ref[i>>6]>>uint(i&63)&1 == 1; bit != (c == want) {
					t.Fatalf("go: n=%d row %d (%d == %d): bit %v", n, i, c, want, bit)
				}
			}
			CmpEqI32(codes, want, got)
			maskEq(t, Impl(), n, got, ref)
		}
	}
}

func TestSelFromMaskVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range lengths {
		for trial := 0; trial < 12; trial++ {
			mask := make([]uint64, MaskWords(n)+1)
			switch trial {
			case 0: // empty
			case 1: // full, plus garbage beyond n that must be ignored
				garbage(mask)
			default:
				for i := range mask {
					mask[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
				}
			}
			sel := make([]int32, n)
			got := SelFromMask(mask, n, sel)
			want := 0
			for i := 0; i < n; i++ {
				if mask[i>>6]>>uint(i&63)&1 == 1 {
					if want >= got || sel[want] != int32(i) {
						t.Fatalf("n=%d trial=%d: selection entry %d should be row %d (got count %d)", n, trial, want, i, got)
					}
					want++
				}
			}
			if got != want {
				t.Fatalf("n=%d trial=%d: count %d want %d", n, trial, got, want)
			}
		}
	}
}

func TestGatherVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randFloats(rng, 512)
	srcI := randCodes(rng, 512, 100, 0.2)
	for _, n := range lengths {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(rng.Intn(len(src)))
		}
		got := make([]float64, n)
		GatherF64(got, src, idx)
		for i, r := range idx {
			if math.Float64bits(got[i]) != math.Float64bits(src[r]) {
				t.Fatalf("GatherF64 n=%d i=%d: %v != src[%d]=%v", n, i, got[i], r, src[r])
			}
		}
		gotI := make([]int32, n)
		GatherI32(gotI, srcI, idx)
		for i, r := range idx {
			if gotI[i] != srcI[r] {
				t.Fatalf("GatherI32 n=%d i=%d: %d != src[%d]=%d", n, i, gotI[i], r, srcI[r])
			}
		}
	}
	// In-place compaction through an ascending selection vector is the one
	// aliasing the contract allows.
	for _, n := range lengths {
		vals := randFloats(rng, n)
		orig := append([]float64(nil), vals...)
		var idx []int32
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				idx = append(idx, int32(i))
			}
		}
		GatherF64(vals, vals, idx)
		for i, r := range idx {
			if math.Float64bits(vals[i]) != math.Float64bits(orig[r]) {
				t.Fatalf("in-place GatherF64 n=%d i=%d: %v != %v", n, i, vals[i], orig[r])
			}
		}
	}
}

func TestLookupCodesVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lut := make([]int32, 40)
	for i := range lut {
		lut[i] = int32(rng.Intn(1000))
	}
	for _, n := range lengths {
		for _, nullFrac := range []float64{0, 0.5, 1} { // incl. all-NULL blocks
			codes := randCodes(rng, n, len(lut), nullFrac)
			def := int32(rng.Intn(100) - 50)
			got := make([]int32, n)
			LookupCodes(got, codes, lut, def)
			for i, c := range codes {
				want := def
				if c >= 0 {
					want = lut[c]
				}
				if got[i] != want {
					t.Fatalf("n=%d null=%.1f i=%d code %d: %d != %d", n, nullFrac, i, c, got[i], want)
				}
			}
		}
	}
}

func TestMinMaxF64Variants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range lengths {
		for trial := 0; trial < 15; trial++ {
			var vals []float64
			switch trial {
			case 0:
				vals = make([]float64, n) // all zero
			case 1:
				vals = make([]float64, n)
				for i := range vals {
					vals[i] = math.NaN() // all NaN → (+Inf, -Inf)
				}
			case 2:
				vals = make([]float64, n)
				for i := range vals {
					vals[i] = math.Copysign(0, -1)
					if i%2 == 0 {
						vals[i] = 0
					}
				}
			default:
				vals = randFloats(rng, n)
			}
			// The Go loop against a per-row expectation: NaN-skipping,
			// strict < and > so the first of equal values wins.
			wmn, wmx := math.Inf(1), math.Inf(-1)
			for _, v := range vals {
				if v < wmn {
					wmn = v
				}
				if v > wmx {
					wmx = v
				}
			}
			rmn, rmx := minMaxF64Go(vals)
			if math.Float64bits(rmn) != math.Float64bits(wmn) || math.Float64bits(rmx) != math.Float64bits(wmx) {
				t.Fatalf("go: n=%d got (%v,%v) want (%v,%v)", n, rmn, rmx, wmn, wmx)
			}
			// == treats -0 and +0 as equal, which is exactly the documented
			// latitude of the dispatched implementation.
			if mn, mx := MinMaxF64(vals); mn != rmn || mx != rmx {
				t.Fatalf("%s: n=%d got (%v,%v) want (%v,%v)", Impl(), n, mn, mx, rmn, rmx)
			}
		}
	}
}

func TestCountNonNegI32Variants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range lengths {
		for _, nullFrac := range []float64{0, 0.1, 0.9, 1} { // incl. NULL runs and all-NULL blocks
			codes := randCodes(rng, n, 50, nullFrac)
			want := 0
			for _, c := range codes {
				if c >= 0 {
					want++
				}
			}
			if got := countNonNegI32Go(codes); got != want {
				t.Fatalf("go n=%d null=%.1f: %d != %d", n, nullFrac, got, want)
			}
			if got := CountNonNegI32(codes); got != want {
				t.Fatalf("%s n=%d null=%.1f: %d != %d", Impl(), n, nullFrac, got, want)
			}
		}
	}
}

// TestAccumulateF64Variants pins the strict row-order contract: with
// colliding cells, float sums are only bit-identical to the per-row
// expectation if rows are added in exactly that order.
func TestAccumulateF64Variants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const cells = 7 // tiny lattice → heavy collisions
	for _, n := range lengths {
		for trial := 0; trial < 10; trial++ {
			offs := make([]int32, n)
			for i := range offs {
				offs[i] = int32(rng.Intn(cells))
			}
			vals := make([]float64, n)
			for i := range vals {
				// No NaNs: this is the NULL-free fast path by contract.
				vals[i] = rng.NormFloat64() * float64(rng.Intn(1000))
			}
			nonNull := make([]int64, cells)
			sum := make([]float64, cells)
			minv := make([]float64, cells)
			maxv := make([]float64, cells)
			for i := 0; i < cells; i++ {
				minv[i] = math.Inf(1)
				maxv[i] = math.Inf(-1)
			}
			AccumulateF64(offs, vals, nonNull, sum, minv, maxv)
			for c := int32(0); c < cells; c++ {
				var wn int64
				var ws float64
				wmn, wmx := math.Inf(1), math.Inf(-1)
				for i, ix := range offs {
					if ix != c {
						continue
					}
					wn++
					ws += vals[i]
					if vals[i] < wmn {
						wmn = vals[i]
					}
					if vals[i] > wmx {
						wmx = vals[i]
					}
				}
				if nonNull[c] != wn ||
					math.Float64bits(sum[c]) != math.Float64bits(ws) ||
					math.Float64bits(minv[c]) != math.Float64bits(wmn) ||
					math.Float64bits(maxv[c]) != math.Float64bits(wmx) {
					t.Fatalf("n=%d cell %d: (%d,%v,%v,%v) != (%d,%v,%v,%v)", n, c,
						nonNull[c], sum[c], minv[c], maxv[c], wn, ws, wmn, wmx)
				}
			}
		}
	}
}

// TestMaskSelRoundTrip composes the primitives the way a filtered scan
// uses them: compare → select → gather.
func TestMaskSelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range lengths {
		codes := randCodes(rng, n, 4, 0.2)
		vals := randFloats(rng, n)
		mask := make([]uint64, MaskWords(n))
		garbage(mask)
		CmpEqI32(codes, 2, mask)
		sel := make([]int32, n)
		cnt := SelFromMask(mask, n, sel)
		got := make([]float64, cnt)
		GatherF64(got, vals, sel[:cnt])
		// Oracle: plain filtered scan.
		want := 0
		for i := 0; i < n; i++ {
			if codes[i] == 2 {
				if want >= cnt || sel[want] != int32(i) {
					t.Fatalf("n=%d: selection entry %d should be row %d", n, want, i)
				}
				if math.Float64bits(got[want]) != math.Float64bits(vals[i]) {
					t.Fatalf("n=%d: gathered %v for row %d, want %v", n, got[want], i, vals[i])
				}
				want++
			}
		}
		if cnt != want {
			t.Fatalf("n=%d: count %d want %d", n, cnt, want)
		}
	}
}

func TestImplReportsConfiguration(t *testing.T) {
	switch Impl() {
	case "avx2", "go":
	default:
		t.Fatalf("Impl() = %q, want avx2 or go", Impl())
	}
}
