package db

import (
	"bytes"
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
