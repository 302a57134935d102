package vec

import (
	"math/rand"
	"testing"
)

// Benchmarks compare the three flavors of each primitive on one
// kernel-block of rows (4096, matching sqlexec's kernelBlockRows). This
// is the primitive table: `go test -run '^$' -bench . ./internal/vec`
// prints ns/op per primitive and flavor, and `make bench-smoke` keeps all
// variants executing.
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
	run := func(name string, fn func([]float64, float64, []uint64)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 8)
			for i := 0; i < b.N; i++ {
				fn(vals, 7, mask)
			}
		})
	}
	run("ref", CmpEqF64Ref)
	run("unrolled", CmpEqF64Unrolled)
	run(Impl(), CmpEqF64)
}

func BenchmarkCmpEqI32(b *testing.B) {
	_, codes, mask, _ := benchData()
	run := func(name string, fn func([]int32, int32, []uint64)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 4)
			for i := 0; i < b.N; i++ {
				fn(codes, 7, mask)
			}
		})
	}
	run("ref", CmpEqI32Ref)
	run("unrolled", CmpEqI32Unrolled)
	run(Impl(), CmpEqI32)
}

func BenchmarkSelFromMask(b *testing.B) {
	vals, _, mask, sel := benchData()
	CmpEqF64Ref(vals, 7, mask) // ~1/16 dense
	run := func(name string, fn func([]uint64, int, []int32) int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(mask, benchRows, sel)
			}
		})
	}
	run("ref", SelFromMaskRef)
	run("unrolled", SelFromMaskUnrolled)
	run(Impl(), SelFromMask)
}

func BenchmarkGatherF64(b *testing.B) {
	vals, _, _, sel := benchData()
	for i := range sel {
		sel[i] = int32((i * 7) % benchRows)
	}
	dst := make([]float64, benchRows)
	run := func(name string, fn func(dst, src []float64, idx []int32)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 8)
			for i := 0; i < b.N; i++ {
				fn(dst, vals, sel)
			}
		})
	}
	run("ref", GatherF64Ref)
	run("unrolled", GatherF64Unrolled)
	run(Impl(), GatherF64)
}

func BenchmarkLookupCodes(b *testing.B) {
	_, codes, _, _ := benchData()
	lut := make([]int32, 16)
	dst := make([]int32, benchRows)
	run := func(name string, fn func(dst, codes, lut []int32, def int32)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 4)
			for i := 0; i < b.N; i++ {
				fn(dst, codes, lut, -2)
			}
		})
	}
	run("ref", LookupCodesRef)
	run("unrolled", LookupCodesUnrolled)
	run(Impl(), LookupCodes)
}

func BenchmarkAndPopcount(b *testing.B) {
	vals, codes, mask, _ := benchData()
	m2 := make([]uint64, MaskWords(benchRows))
	CmpEqF64Ref(vals, 7, mask)
	CmpEqI32Ref(codes, 3, m2)
	run := func(name string, fn func(a, b []uint64) int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(mask, m2)
			}
		})
	}
	run("ref", AndPopcountRef)
	run("unrolled", AndPopcountUnrolled)
	run(Impl(), AndPopcount)
}

func BenchmarkMinMaxF64(b *testing.B) {
	vals, _, _, _ := benchData()
	run := func(name string, fn func([]float64) (float64, float64)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 8)
			for i := 0; i < b.N; i++ {
				fn(vals)
			}
		})
	}
	run("ref", MinMaxF64Ref)
	run("unrolled", MinMaxF64Unrolled)
	run(Impl(), MinMaxF64)
}

func BenchmarkCountNonNegI32(b *testing.B) {
	_, codes, _, _ := benchData()
	run := func(name string, fn func([]int32) int) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 4)
			for i := 0; i < b.N; i++ {
				fn(codes)
			}
		})
	}
	run("ref", CountNonNegI32Ref)
	run("unrolled", CountNonNegI32Unrolled)
	run(Impl(), CountNonNegI32)
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
	run := func(name string, fn func([]int32, []float64, []int64, []float64, []float64, []float64)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 8)
			for i := 0; i < b.N; i++ {
				fn(offs, vals, nonNull, sum, minv, maxv)
			}
		})
	}
	run("ref", AccumulateF64Ref)
	run("unrolled", AccumulateF64Unrolled)
	run(Impl(), AccumulateF64)
}
