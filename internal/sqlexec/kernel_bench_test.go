package sqlexec_test

// External test package: the benchmark takes its schema and case matrix
// from internal/benchdata, which imports sqlexec and therefore cannot be
// used from the in-package tests.

import (
	"context"
	"testing"

	"aggchecker/internal/benchdata"
	"aggchecker/internal/db"
	"aggchecker/internal/sqlexec"
)

const kernelBenchRows = 40000

// BenchmarkCubeKernel times the cube kernel across the
// dimension/type/view/distinct matrix of benchdata.Cases; rows/s is the
// comparable throughput measure (one op = one full cube pass; caching is
// off so every request scans).
func BenchmarkCubeKernel(bm *testing.B) {
	ctx := context.Background()
	d := benchdata.BuildDB(kernelBenchRows)
	for _, tc := range benchdata.Cases() {
		view, err := db.BuildJoinView(d, tc.Tables)
		if err != nil {
			bm.Fatal(err)
		}
		bm.Run(tc.Name, func(b *testing.B) {
			serial := sqlexec.NewScheduler(1) // isolate kernel throughput
			defer serial.Close()
			e := sqlexec.NewEngine(d, sqlexec.WithScheduler(serial), sqlexec.WithCaching(false))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.CubeForContext(ctx, tc.Tables, tc.Dims, tc.Reqs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(view.NumRows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkCubeKernelParallel measures intra-pass morsel parallelism on a
// view large enough to split (a width-1 scheduler, the single-threaded
// vectorized kernel, is the baseline).
func BenchmarkCubeKernelParallel(bm *testing.B) {
	ctx := context.Background()
	d := benchdata.BuildDB(1 << 17)
	tc := benchdata.Cases()[1] // 3dim-string-single
	view, err := db.BuildJoinView(d, tc.Tables)
	if err != nil {
		bm.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "workers1", 4: "workers4"}[workers]
		bm.Run(name, func(b *testing.B) {
			sched := sqlexec.NewScheduler(workers)
			defer sched.Close()
			e := sqlexec.NewEngine(d, sqlexec.WithScheduler(sched), sqlexec.WithCaching(false))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.CubeForContext(ctx, tc.Tables, tc.Dims, tc.Reqs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(view.NumRows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
