//go:build amd64 && !noasm

package vec

// Hand-rolled CPU feature detection (cpuid_amd64.s). The stdlib keeps
// internal/cpu to itself and this module carries no dependencies, so we
// probe the two leaves we need directly.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// AVX2 kernels (vec_amd64.s). Each processes only whole vector groups;
// the Go wrappers below hand tails to the Go loops.
func cmpEqF64Asm(vals *float64, want float64, mask *uint64, words int)
func cmpEqI32Asm(codes *int32, want int32, mask *uint64, words int)
func countNegI32Asm(codes *int32, octs int) int64
func minMaxF64Asm(vals *float64, quads int, out *[8]float64)

var asmLevel = "go"

// hasAVX2 reports AVX2 plus POPCNT, with AVX enabled and the OS saving
// xmm/ymm state (OSXSAVE + XCR0 bits 1..2) — the full set the assembly
// kernels rely on.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const (
		popcnt  = 1 << 23
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c&popcnt == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func init() {
	if !hasAVX2() {
		return
	}
	asmLevel = "avx2"
	CmpEqF64 = cmpEqF64AVX2
	CmpEqI32 = cmpEqI32AVX2
	MinMaxF64 = minMaxF64AVX2
	CountNonNegI32 = countNonNegI32AVX2
}

func cmpEqF64AVX2(vals []float64, want float64, mask []uint64) {
	words := len(vals) >> 6
	if words > 0 {
		cmpEqF64Asm(&vals[0], want, &mask[0], words)
	}
	cmpEqF64Go(vals[words<<6:], want, mask[words:])
}

func cmpEqI32AVX2(codes []int32, want int32, mask []uint64) {
	words := len(codes) >> 6
	if words > 0 {
		cmpEqI32Asm(&codes[0], want, &mask[0], words)
	}
	cmpEqI32Go(codes[words<<6:], want, mask[words:])
}

func minMaxF64AVX2(vals []float64) (mn, mx float64) {
	quads := len(vals) >> 2
	mn, mx = inf, negInf
	if quads > 0 {
		out := [8]float64{inf, inf, inf, inf, negInf, negInf, negInf, negInf}
		minMaxF64Asm(&vals[0], quads, &out)
		for i := 0; i < 4; i++ {
			if out[i] < mn {
				mn = out[i]
			}
			if out[4+i] > mx {
				mx = out[4+i]
			}
		}
	}
	tmn, tmx := minMaxF64Go(vals[quads<<2:])
	if tmn < mn {
		mn = tmn
	}
	if tmx > mx {
		mx = tmx
	}
	return mn, mx
}

func countNonNegI32AVX2(codes []int32) int {
	octs := len(codes) >> 3
	c := countNonNegI32Go(codes[octs<<3:])
	if octs > 0 {
		c += octs<<3 - int(countNegI32Asm(&codes[0], octs))
	}
	return c
}
