package db

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
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
	return loadTable(r, tableName, opts.format())
}

// csvFormat is the CSV fileFormat: records are raw cells, converted by
// column position. nulls holds the lower-cased NULL tokens; the empty
// string is always NULL.
type csvFormat struct {
	opts  CSVOptions
	nulls map[string]bool
}

func (o CSVOptions) format() csvFormat {
	f := csvFormat{opts: o, nulls: map[string]bool{"": true}}
	for _, tok := range o.NullTokens {
		f.nulls[strings.ToLower(strings.TrimSpace(tok))] = true
	}
	return f
}

func (csvFormat) kind() string { return "csv" }

func (f csvFormat) reader(data []byte) *csv.Reader {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.TrimLeadingSpace = true
	cr.FieldsPerRecord = -1
	if f.opts.Comma != 0 {
		cr.Comma = f.opts.Comma
	}
	return cr
}

// decode splits CSV bytes into the header and the records after it. A
// record that fails to parse only because its quoted field is still open
// at the end of the data is a torn write, the undecoded tail; any other
// parse error is permanent, whatever follows it.
func (f csvFormat) decode(data []byte, table string) (decoded[[]string], error) {
	cr := f.reader(data)
	var dec decoded[[]string]
	for {
		start := int(cr.InputOffset())
		rec, err := cr.Read()
		if err == io.EOF {
			dec.done = len(data)
			break
		}
		if err != nil {
			err = fmt.Errorf("db: reading csv for %s: %w", table, err)
			// Closing the quote completes an open field and nothing else.
			if _, perr := f.reader(append(slices.Clip(data[start:]), '"')).Read(); perr != nil {
				return dec, err
			}
			dec.done, dec.tailErr = start, err
			break
		}
		dec.open = data[cr.InputOffset()-1] != '\n'
		if dec.cols == nil {
			for j := range rec {
				if rec[j] = strings.TrimSpace(rec[j]); rec[j] == "" {
					rec[j] = fmt.Sprintf("col%d", j+1)
				}
			}
			dec.cols = rec
			continue
		}
		dec.last = start
		dec.recs = append(dec.recs, rec)
	}
	if dec.cols == nil {
		if dec.tailErr != nil {
			return dec, dec.tailErr
		}
		return dec, fmt.Errorf("db: csv for %s is empty", table)
	}
	return dec, nil
}

// value converts the cell at position j; a missing cell is NULL.
func (f csvFormat) value(c *Column, j int, rec []string) (float64, string, error) {
	var cell string
	if j < len(rec) {
		cell = strings.TrimSpace(rec[j])
	}
	if f.nulls[strings.ToLower(cell)] {
		return math.NaN(), "", nil
	}
	if c.Kind == KindString {
		return 0, cell, nil
	}
	v, err := parseNumericCell(cell)
	if err != nil {
		return 0, "", fmt.Errorf("column %s: cell %q is not numeric", c.Name, cell)
	}
	return v, "", nil
}

// tableNameFromPath derives a table name from a file path: the base name
// without extension.
func tableNameFromPath(path string) string {
	base := filepath.Base(path)
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		return base[:i]
	}
	return base
}

func parseNumericCell(cell string) (float64, error) {
	s := strings.ReplaceAll(cell, ",", "")
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimPrefix(s, "$")
	return strconv.ParseFloat(s, 64)
}
