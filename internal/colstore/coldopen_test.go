package colstore_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"

	"aggchecker/internal/benchdata"
	"aggchecker/internal/colstore"
	"aggchecker/internal/db"
	"aggchecker/internal/sqlexec"
)

// coldOpenRows is the seed commit's fact rows; persistBenchDB appends as
// many again in twelve blocks.
const coldOpenRows = 30000

// persistBenchDB persists the benchmark database into dir as a seed commit
// plus twelve appended blocks — the shape a -watch daemon leaves behind
// after a day of refreshes — and returns the live database. The appended
// rows carry t and z values the seed never does, so every block has zone
// bounds of its own.
func persistBenchDB(tb testing.TB, dir string) *db.Database {
	tb.Helper()
	d := benchdata.BuildDB(coldOpenRows)
	st, _, err := colstore.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	if err := d.SetPersister(st); err != nil {
		tb.Fatal(err)
	}
	const blocks = 12
	rows := make([][]any, coldOpenRows/blocks)
	for b := 0; b < blocks; b++ {
		for i := range rows {
			rows[i] = []any{"p", "u", "c0", float64(i % 6), float64(i % 4), float64(i % 5),
				float64(i % 1000), float64(i%100) / 2, "zapp", float64(1<<30 + b), "k0"}
		}
		if err := d.Append("fact", rows...); err != nil {
			tb.Fatal(err)
		}
		if _, err := d.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// TestPrunedScanFaultsNoPages is the store's read-path claim: zone maps
// survive a restore, and a scan they refute entirely never touches the
// mmapped column pages — which is what makes reopening a large store cheap
// for queries over a narrow band of it. The full scan afterwards shows the
// residency probe can see a fault when there is one.
func TestPrunedScanFaultsNoPages(t *testing.T) {
	dir := t.TempDir()
	persistBenchDB(t, dir)
	rd, st := openRestore(t, dir)
	defer st.Close()
	e := sqlexec.NewEngine(rd)
	fact := func(c string) sqlexec.ColumnRef { return sqlexec.ColumnRef{Table: "fact", Column: c} }

	opened := st.Stats().ResidentBytes
	n, err := e.EvaluateContext(context.Background(), sqlexec.Query{Agg: sqlexec.Count, AggCol: sqlexec.ColumnRef{Table: "fact"},
		Preds: []sqlexec.Predicate{{Col: fact("t"), Value: "-5"}}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("COUNT(*) WHERE t = -5 = %v, want 0", n)
	}
	if e.Stats.BlocksPruned.Load() == 0 {
		t.Fatal("the refuted scan pruned no blocks: zone maps did not survive the restore")
	}
	if opened < 0 {
		t.Skip("page residency needs /proc/self/smaps")
	}
	pruned := st.Stats().ResidentBytes
	if pruned != opened {
		t.Fatalf("pruned scan faulted %d bytes of column pages in, want 0", pruned-opened)
	}
	if _, err := e.EvaluateContext(context.Background(), sqlexec.Query{Agg: sqlexec.Sum, AggCol: fact("y")}); err != nil {
		t.Fatal(err)
	}
	if full := st.Stats().ResidentBytes; full <= pruned {
		t.Fatalf("full scan faulted no pages (%d -> %d): the residency probe is blind", pruned, full)
	}
}

// BenchmarkColdOpen measures what a restart costs per database: reopening
// the manifest and mapping the columns, against re-parsing CSV files that
// hold the same rows.
func BenchmarkColdOpen(b *testing.B) {
	dir := b.TempDir()
	storeDir := filepath.Join(dir, "store")
	var csvFiles []string
	for _, tv := range persistBenchDB(b, storeDir).Snapshot().Tables() {
		path := filepath.Join(dir, tv.Name+".csv")
		writeCSV(b, path, tv)
		csvFiles = append(csvFiles, path)
	}
	b.Run("restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, pdb, err := colstore.Open(storeDir)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.RestoreDatabase(pdb); err != nil {
				b.Fatal(err)
			}
			st.Close()
		}
	})
	b.Run("csv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.NewCSVSource("bench", csvFiles...).Open(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func writeCSV(tb testing.TB, path string, tv *db.TableView) {
	tb.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	cols := tv.Columns()
	rec := make([]string, len(cols))
	for i, c := range cols {
		rec[i] = c.Name
	}
	w.Write(rec) // writes to a bytes.Buffer cannot fail
	for row := 0; row < tv.NumRows(); row++ {
		for i, c := range cols {
			rec[i] = c.StringAt(row) // NULL renders as the empty cell CSV loads as NULL
		}
		w.Write(rec)
	}
	w.Flush()
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}
