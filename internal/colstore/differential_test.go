package colstore_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aggchecker/internal/colstore"
	"aggchecker/internal/sqlexec"
)

// TestDifferentialDiskVsMemory drives a disk-backed database and an
// identical memory-only mirror through randomized schedules of appends,
// commits, compactions, and full store reopens, asserting after every
// publication that engine results over the disk-backed snapshot are
// bit-for-bit identical to the memory mirror, and that the snapshots
// themselves match field for field.
func TestDifferentialDiskVsMemory(t *testing.T) {
	queries := []sqlexec.Query{
		{Agg: sqlexec.Count, AggCol: sqlexec.ColumnRef{Table: "fact"}},
		{Agg: sqlexec.Sum, AggCol: sqlexec.ColumnRef{Table: "fact", Column: "val"}},
		{Agg: sqlexec.Avg, AggCol: sqlexec.ColumnRef{Table: "fact", Column: "val"},
			Preds: []sqlexec.Predicate{{Col: sqlexec.ColumnRef{Table: "fact", Column: "cat"}, Value: "b"}}},
		{Agg: sqlexec.Percentage, AggCol: sqlexec.ColumnRef{Table: "fact"},
			Preds: []sqlexec.Predicate{{Col: sqlexec.ColumnRef{Table: "fact", Column: "cat"}, Value: "c"}}},
		{Agg: sqlexec.Max, AggCol: sqlexec.ColumnRef{Table: "fact", Column: "val"},
			Preds: []sqlexec.Predicate{{Col: sqlexec.ColumnRef{Table: "fact", Column: "cat"}, Value: "a"}}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()

			disk := buildDB(t, 4000)
			mem := buildDB(t, 4000)
			st, _, err := colstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := disk.SetPersister(st); err != nil {
				t.Fatal(err)
			}
			rows := 4000

			check := func(step string) {
				t.Helper()
				assertSameSnapshot(t, mem.Snapshot(), disk.Snapshot())
				de := sqlexec.NewEngine(disk)
				me := sqlexec.NewEngine(mem)
				for qi, q := range queries {
					dv, derr := de.EvaluateContext(context.Background(), q)
					mv, merr := me.EvaluateContext(context.Background(), q)
					if (derr == nil) != (merr == nil) {
						t.Fatalf("%s query %d: disk err %v, mem err %v", step, qi, derr, merr)
					}
					if derr == nil && math.Float64bits(dv) != math.Float64bits(mv) {
						t.Fatalf("%s query %d: disk %v != mem %v", step, qi, dv, mv)
					}
				}
			}

			check("initial")
			for step := 0; step < 12; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // append + commit
					n := 500 + rng.Intn(2000)
					appendFactRows(t, disk, rows, n)
					appendFactRows(t, mem, rows, n)
					rows += n
					if _, err := disk.Commit(); err != nil {
						t.Fatal(err)
					}
					if _, err := mem.Commit(); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("step %d commit", step))
				case op < 7: // compact both (adaptive granularity is deterministic)
					if _, err := disk.Compact(); err != nil {
						t.Fatal(err)
					}
					if _, err := mem.Compact(); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("step %d compact", step))
				default: // close the store and reopen the disk database from it
					want := disk.Snapshot()
					st.Close()
					disk, st = openRestore(t, dir)
					assertSameSnapshot(t, want, disk.Snapshot())
					check(fmt.Sprintf("step %d reopen", step))
				}
			}
			st.Close()
		})
	}
}
