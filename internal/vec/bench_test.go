package vec

import (
	"math/rand"
	"testing"
)

// Benchmarks time each primitive on one kernel-block of rows (4096,
// matching sqlexec's kernelBlockRows). This is the primitive table:
// `go test -run '^$' -bench . ./internal/vec` prints ns/op per primitive,
// and `make bench-smoke` keeps every benchmark executing.
const benchRows = 4096

func benchData() (vals []float64, codes []int32, mask []uint64, sel []int32) {
	rng := rand.New(rand.NewSource(42))
	vals = make([]float64, benchRows)
	codes = make([]int32, benchRows)
	for i := range vals {
		vals[i] = float64(rng.Intn(16))
		codes[i] = int32(rng.Intn(16)) - 1
	}
	mask = make([]uint64, MaskWords(benchRows))
	sel = make([]int32, benchRows)
	return
}

func BenchmarkCmpEqF64(b *testing.B) {
	vals, _, mask, _ := benchData()
	b.SetBytes(benchRows * 8)
	for i := 0; i < b.N; i++ {
		CmpEqF64(vals, 7, mask)
	}
}

func BenchmarkCmpEqI32(b *testing.B) {
	_, codes, mask, _ := benchData()
	b.SetBytes(benchRows * 4)
	for i := 0; i < b.N; i++ {
		CmpEqI32(codes, 7, mask)
	}
}

func BenchmarkSelFromMask(b *testing.B) {
	vals, _, mask, sel := benchData()
	CmpEqF64(vals, 7, mask) // ~1/16 dense
	for i := 0; i < b.N; i++ {
		SelFromMask(mask, benchRows, sel)
	}
}

func BenchmarkGatherF64(b *testing.B) {
	vals, _, _, sel := benchData()
	for i := range sel {
		sel[i] = int32((i * 7) % benchRows)
	}
	dst := make([]float64, benchRows)
	b.SetBytes(benchRows * 8)
	for i := 0; i < b.N; i++ {
		GatherF64(dst, vals, sel)
	}
}

func BenchmarkLookupCodes(b *testing.B) {
	_, codes, _, _ := benchData()
	lut := make([]int32, 16)
	dst := make([]int32, benchRows)
	b.SetBytes(benchRows * 4)
	for i := 0; i < b.N; i++ {
		LookupCodes(dst, codes, lut, -2)
	}
}

func BenchmarkMinMaxF64(b *testing.B) {
	vals, _, _, _ := benchData()
	b.SetBytes(benchRows * 8)
	for i := 0; i < b.N; i++ {
		MinMaxF64(vals)
	}
}

func BenchmarkCountNonNegI32(b *testing.B) {
	_, codes, _, _ := benchData()
	b.SetBytes(benchRows * 4)
	for i := 0; i < b.N; i++ {
		CountNonNegI32(codes)
	}
}

func BenchmarkAccumulateF64(b *testing.B) {
	vals, _, _, _ := benchData()
	offs := make([]int32, benchRows)
	for i := range offs {
		offs[i] = int32(i & 63)
	}
	nonNull := make([]int64, 64)
	sum := make([]float64, 64)
	minv := make([]float64, 64)
	maxv := make([]float64, 64)
	b.SetBytes(benchRows * 8)
	for i := 0; i < b.N; i++ {
		AccumulateF64(offs, vals, nonNull, sum, minv, maxv)
	}
}
