package db

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// CSVOptions tunes CSV parsing and type inference.
type CSVOptions struct {
	// NullTokens lists cell values (compared after whitespace trimming,
	// case-insensitively) treated as NULL in addition to the empty string.
	// Typical sets include "NA", "N/A", "null", and "-". NULL cells never
	// influence type inference, so a numeric column speckled with "NA"
	// markers stays numeric instead of degrading to text.
	NullTokens []string
	// Comma is the field delimiter; 0 means ','.
	Comma rune
}

// nullSet compiles the NULL-token list for case-insensitive lookup. The
// empty string is always NULL.
func (o CSVOptions) nullSet() map[string]bool {
	set := map[string]bool{"": true}
	for _, tok := range o.NullTokens {
		set[strings.ToLower(strings.TrimSpace(tok))] = true
	}
	return set
}

// LoadCSV reads a table from CSV data with default options. The first
// record is the header. Type inference mirrors the paper's setup (raw .csv
// files loaded untouched): a column is numeric when every non-NULL cell
// parses as a float (thousands separators tolerated), otherwise it is text;
// NULL cells (empty by default, plus any configured NULL tokens) are NULL
// either way. Quoted fields may contain the delimiter and newlines
// (encoding/csv semantics). Inference is two-pass over the whole file, so a
// column whose cells only reveal their true type late — e.g. a numeric-
// looking prefix followed by text, or a NULL-token prefix followed by
// numbers — is typed from all of its rows, not its first few.
func LoadCSV(r io.Reader, tableName string) (*Table, error) {
	return LoadCSVOptions(r, tableName, CSVOptions{})
}

// LoadCSVOptions is LoadCSV with explicit parsing options.
func LoadCSVOptions(r io.Reader, tableName string, opts CSVOptions) (*Table, error) {
	records, err := readCSVRecords(r, tableName, opts)
	if err != nil {
		return nil, err
	}
	header := records[0]
	rows := records[1:]
	return buildCSVTable(tableName, header, rows, opts)
}

// readCSVRecords parses raw CSV records (header included).
func readCSVRecords(r io.Reader, tableName string, opts CSVOptions) ([][]string, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.FieldsPerRecord = -1
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("db: reading csv for %s: %w", tableName, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("db: csv for %s is empty", tableName)
	}
	return records, nil
}

// buildCSVTable infers column types over all rows and materializes the
// table. NULL cells are excluded from inference and stored as NULL under
// either inferred kind.
func buildCSVTable(tableName string, header []string, rows [][]string, opts CSVOptions) (*Table, error) {
	ncols := len(header)
	nulls := opts.nullSet()
	isNull := func(cell string) bool { return nulls[strings.ToLower(cell)] }

	numeric := make([]bool, ncols)
	for j := 0; j < ncols; j++ {
		numeric[j] = true
		nonNull := 0
		for _, rec := range rows {
			if j >= len(rec) {
				continue
			}
			cell := strings.TrimSpace(rec[j])
			if isNull(cell) {
				continue
			}
			nonNull++
			if _, err := parseNumericCell(cell); err != nil {
				numeric[j] = false
				break
			}
		}
		if nonNull == 0 {
			numeric[j] = false // all-NULL columns default to text
		}
	}

	cols := make([]*Column, ncols)
	for j := 0; j < ncols; j++ {
		name := strings.TrimSpace(header[j])
		if name == "" {
			name = fmt.Sprintf("col%d", j+1)
		}
		if numeric[j] {
			cols[j] = NewFloatColumn(name)
		} else {
			cols[j] = NewStringColumn(name)
		}
	}
	for _, rec := range rows {
		for j := 0; j < ncols; j++ {
			var cell string
			if j < len(rec) {
				cell = strings.TrimSpace(rec[j])
			}
			null := isNull(cell)
			if numeric[j] {
				if null {
					cols[j].AppendFloat(math.NaN())
				} else {
					v, _ := parseNumericCell(cell)
					cols[j].AppendFloat(v)
				}
			} else if null {
				cols[j].AppendString("")
			} else {
				cols[j].AppendString(cell)
			}
		}
	}
	return NewTable(tableName, cols...)
}

// LoadCSVFileOptions loads a table from a CSV file (see LoadCSVOptions);
// the table name defaults to the file's base name without extension.
func LoadCSVFileOptions(path, tableName string, opts CSVOptions) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if tableName == "" {
		tableName = tableNameFromPath(path)
	}
	return LoadCSVOptions(f, tableName, opts)
}

// tableNameFromPath derives a table name from a file path: the base name
// without extension.
func tableNameFromPath(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

func parseNumericCell(cell string) (float64, error) {
	s := strings.ReplaceAll(cell, ",", "")
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimPrefix(s, "$")
	return strconv.ParseFloat(s, 64)
}
