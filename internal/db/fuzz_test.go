package db

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// checkLoaded is the invariant both loaders owe an accepted table: every
// column holds the table's row count, and every cell reads back.
func checkLoaded(t *testing.T, tbl *Table) {
	t.Helper()
	n := tbl.NumRows()
	for _, c := range tbl.Columns {
		if c.Len() != n {
			t.Fatalf("column %s has %d rows, table has %d", c.Name, c.Len(), n)
		}
		if nulls := c.NullCount(); nulls < 0 || nulls > n {
			t.Fatalf("column %s counts %d NULLs over %d rows", c.Name, nulls, n)
		}
		for i := 0; i < n; i++ {
			c.StringAt(i)
		}
	}
}

// FuzzLoadCSV feeds arbitrary bytes to the CSV loader behind -data, -db and
// CSV sources. It must reject or load them without a panic, and a loaded
// table must be rectangular.
func FuzzLoadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := LoadCSVOptions(bytes.NewReader(data), "t", CSVOptions{NullTokens: []string{"NA", "-"}})
		if err != nil {
			return
		}
		checkLoaded(t, tbl)
	})
}

// FuzzLoadJSONL is FuzzLoadCSV for the JSON-lines loader.
func FuzzLoadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := LoadJSONL(bytes.NewReader(data), "t")
		if err != nil {
			return
		}
		checkLoaded(t, tbl)
	})
}

// FuzzSourceRefresh fuzzes the Refresh boundary of both file sources:
// data[:cut] is written and opened, then data[cut:] and a newline are
// appended and refreshed. A refresh may fail; one that succeeds must leave
// each table as a fresh Open of the same file loads it: the same row count,
// and the same cells in every column whose kind the two agree on.
func FuzzSourceRefresh(f *testing.F) {
	f.Fuzz(func(t *testing.T, format uint8, data []byte, cut int) {
		ctx := context.Background()
		cut = int(uint(cut) % uint(len(data)+1))
		path := filepath.Join(t.TempDir(), "t.csv")
		newSource := func() interface {
			Source
			Refresher
		} {
			return &CSVSource{Name: "t", Files: []string{path}, Options: CSVOptions{NullTokens: []string{"NA"}}}
		}
		if format%2 == 1 {
			path = filepath.Join(filepath.Dir(path), "t.jsonl")
			newSource = func() interface {
				Source
				Refresher
			} {
				return NewJSONLSource("t", path)
			}
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		src := newSource()
		d, err := src.Open(ctx)
		if err != nil {
			return
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Refresh(ctx, d); err != nil {
			return
		}
		fresh, err := newSource().Open(ctx)
		if err != nil {
			t.Fatalf("fresh open after a successful refresh: %v", err)
		}
		got, want := d.Snapshot().Table("t"), fresh.Snapshot().Table("t")
		if got.NumRows() != want.NumRows() {
			t.Fatalf("refreshed rows = %d, fresh open rows = %d", got.NumRows(), want.NumRows())
		}
		for _, wc := range want.Columns() {
			gc := got.Column(wc.Name)
			if gc == nil || gc.Kind != wc.Kind {
				continue
			}
			for i := 0; i < want.NumRows(); i++ {
				g, w := gc.Float(i), wc.Float(i)
				if gc.StringAt(i) != wc.StringAt(i) || (g != w && !(math.IsNaN(g) && math.IsNaN(w))) {
					t.Fatalf("column %s row %d: refreshed %q, fresh open %q", wc.Name, i, gc.StringAt(i), wc.StringAt(i))
				}
			}
		}
	})
}
