package db

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Source materializes a database on demand — the pluggable opener side of
// the storage contract. A Source is registered with a service once and
// opened lazily; the resulting Database publishes immutable, versioned
// Snapshots that the execution engine reads.
type Source interface {
	// Open loads the data and returns the mutable database head. Open may
	// be called again after the returned database was discarded (e.g. an
	// evicted service catalog); each call must produce a fresh, fully
	// loaded database reflecting the source's current contents.
	Open(ctx context.Context) (*Database, error)
}

// Refresher is implemented by sources that can bring an already-open
// database up to date incrementally. Refresh appends rows that appeared in
// the backing store since the database was opened (or last refreshed),
// commits them — publishing snapshot version N+1 — and reports how many
// rows were appended. Sources whose backing data changed in a non-append
// way (rows removed or rewritten) must return an error; callers then fall
// back to a full re-open.
type Refresher interface {
	Refresh(ctx context.Context, d *Database) (appended int, err error)
}

// SourceFunc adapts a plain open function into a Source.
type SourceFunc func(ctx context.Context) (*Database, error)

// Open implements Source.
func (f SourceFunc) Open(ctx context.Context) (*Database, error) { return f(ctx) }

// CSVSource opens a database from a set of CSV files (or a directory of
// them), one table per file, and supports incremental refresh: re-reading
// a grown file appends only the new rows as a fresh block.
type CSVSource struct {
	// Name is the database name.
	Name string
	// Files lists the CSV files to load, one table each (table name = file
	// base name without extension).
	Files []string
	// Dir, when non-empty, is globbed for *.csv at Open time in addition
	// to Files. Files appearing in the directory after Open are ignored by
	// Refresh (adding a table is structural; re-register the source).
	Dir string
	// Options tunes CSV parsing (NULL tokens, delimiter).
	Options CSVOptions

	fileSource[[]string]
}

// NewCSVSource returns a source over an explicit CSV file list.
func NewCSVSource(name string, files ...string) *CSVSource {
	return &CSVSource{Name: name, Files: files}
}

// NewCSVDirSource returns a source over every *.csv file in a directory.
func NewCSVDirSource(name, dir string) *CSVSource {
	return &CSVSource{Name: name, Dir: dir}
}

// Open implements Source: every file becomes one table.
func (s *CSVSource) Open(ctx context.Context) (*Database, error) {
	return s.open(ctx, s.Name, s.Options.format(), s.Files, s.Dir)
}

// Refresh implements Refresher (see fileSource).
func (s *CSVSource) Refresh(ctx context.Context, d *Database) (int, error) {
	return s.refresh(ctx, d, s.Name, s.Options.format(), s.Files, s.Dir)
}

// JSONLSource opens a database from JSON-lines files, one table per file,
// with the same incremental append-only Refresh contract as CSVSource.
type JSONLSource struct {
	Name  string
	Files []string

	fileSource[map[string]any]
}

// NewJSONLSource returns a source over an explicit JSONL file list.
func NewJSONLSource(name string, files ...string) *JSONLSource {
	return &JSONLSource{Name: name, Files: files}
}

// Open implements Source: every file becomes one table.
func (s *JSONLSource) Open(ctx context.Context) (*Database, error) {
	return s.open(ctx, s.Name, jsonlFormat{}, s.Files, "")
}

// Refresh implements Refresher (see fileSource).
func (s *JSONLSource) Refresh(ctx context.Context, d *Database) (int, error) {
	return s.refresh(ctx, d, s.Name, jsonlFormat{}, s.Files, "")
}

// fileFormat is what one input format supplies to a fileSource: decoding
// bytes into records, and converting one record's cells under fixed column
// kinds. Loading, refreshing and type inference all go through value.
type fileFormat[R any] interface {
	kind() string // "csv" or "jsonl": the file extension
	decode(data []byte, table string) (decoded[R], error)
	// value converts the cell for column c (at position j) of one record
	// under c's kind: a float (NaN = NULL) for a numeric column, a string
	// ("" = NULL) for a text one. It fails when the cell is no number.
	value(c *Column, j int, rec R) (float64, string, error)
}

// decoded is one file's bytes split into records by a format.
type decoded[R any] struct {
	cols    []string // column names: the CSV header, or JSONL keys in first-seen order
	recs    []R
	last    int   // offset where the last record starts
	open    bool  // no newline ends the last record, which may still change: CSV 2 → 20
	done    int   // bytes decoded; past them lies a tail that does not decode
	tailErr error // why that tail does not decode
}

// loadTable reads a whole table from r. A reader has no later read to
// complete a torn tail, so a tail that does not decode is an error.
func loadTable[R any](r io.Reader, name string, f fileFormat[R]) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("db: reading %s: %w", name, err)
	}
	dec, err := f.decode(data, name)
	if err == nil {
		err = dec.tailErr
	}
	if err != nil {
		return nil, err
	}
	return buildTable(f, name, dec)
}

// buildTable infers each column's kind over every record — numeric when
// every non-NULL cell converts to a number and at least one does, text
// otherwise — and then converts the records under those kinds.
func buildTable[R any](f fileFormat[R], name string, dec decoded[R]) (*Table, error) {
	cols := make([]*Column, len(dec.cols))
	for j, col := range dec.cols {
		cols[j] = NewFloatColumn(col)
		numeric := false
		for _, rec := range dec.recs {
			v, _, err := f.value(cols[j], j, rec)
			if err != nil {
				numeric = false
				break
			}
			numeric = numeric || !math.IsNaN(v)
		}
		if !numeric {
			cols[j] = NewStringColumn(col)
		}
	}
	for _, rec := range dec.recs {
		for j, c := range cols {
			// The kinds were inferred from these very cells: no error.
			v, s, _ := f.value(c, j, rec)
			if c.Kind == KindFloat {
				c.AppendFloat(v)
			} else {
				c.AppendString(s)
			}
		}
	}
	return NewTable(name, cols...)
}

// fileState is what a fileSource consumed of one backing file: the
// prefix's length and hash, whether the prefix ends inside its last
// record's line, and how many bytes past the prefix were held back.
type fileState struct {
	size    int64
	sum     [sha256.Size]byte
	open    bool
	pending int64
}

func consumed(data []byte, n int, open bool) fileState {
	return fileState{size: int64(n), sum: sha256.Sum256(data[:n]), open: open, pending: int64(len(data) - n)}
}

// verifyAppendOnly checks the file's current contents against the
// consumed prefix before Refresh diffs by row count, so a file rewritten
// in place to the same or a larger size fails instead of appending rows
// diffed from a stale offset. A file that shrank, or whose unterminated
// last line was extended (the first byte past the prefix is no newline),
// cannot be expressed as an append either.
func (st fileState) verifyAppendOnly(data []byte, label, table string) error {
	if int64(len(data)) < st.size {
		return fmt.Errorf("db: %s: table %s shrank from %d to %d bytes; refresh requires append-only files",
			label, table, st.size, len(data))
	}
	if sha256.Sum256(data[:st.size]) != st.sum {
		return fmt.Errorf("db: %s: table %s was rewritten in place; refresh requires append-only files", label, table)
	}
	if rest := bytes.TrimPrefix(data[st.size:], []byte{'\r'}); st.open && len(rest) > 0 && rest[0] != '\n' {
		return fmt.Errorf("db: %s: table %s extended its unterminated last line; refresh requires append-only files", label, table)
	}
	return nil
}

// fileSource is the one implementation behind CSVSource and JSONLSource:
// one table per file, loaded and refreshed under one tail rule.
//
//   - Open loads every record that decodes, an unterminated final one
//     included.
//   - Refresh appends only records that can no longer change:
//     newline-terminated ones, plus an unterminated one that is whole (a
//     JSON object).
//   - A record ingested unterminated whose line a later read finds
//     extended fails the refresh as not append-only.
//
// The bytes held back — a tail that does not decode yet, or a final CSV
// line without its newline at Refresh — are counted by PendingTailBytes.
type fileSource[R any] struct {
	// mu guards seen: what was consumed of each file, by path.
	mu   sync.Mutex
	seen map[string]fileState
}

// files trims the listed paths and adds the directory's files of the
// format's kind.
func files(label string, listed []string, dir, kind string) ([]string, error) {
	out := make([]string, 0, len(listed))
	for _, f := range listed {
		out = append(out, strings.TrimSpace(f))
	}
	if dir != "" {
		matches, err := filepath.Glob(filepath.Join(dir, "*."+kind))
		if err != nil {
			return nil, fmt.Errorf("db: %s: %w", label, err)
		}
		out = append(out, matches...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("db: %s: no files", label)
	}
	return out, nil
}

func (s *fileSource[R]) open(ctx context.Context, name string, f fileFormat[R], listed []string, dir string) (*Database, error) {
	paths, err := files(f.kind()+" source "+name, listed, dir, f.kind())
	if err != nil {
		return nil, err
	}
	d := NewDatabase(name)
	fresh := make(map[string]fileState, len(paths))
	for _, path := range paths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		dec, err := f.decode(data, tableNameFromPath(path))
		if err != nil {
			return nil, err
		}
		tbl, err := buildTable(f, tableNameFromPath(path), dec)
		if err != nil {
			return nil, err
		}
		if err := d.AddTable(tbl); err != nil {
			return nil, err
		}
		fresh[path] = consumed(data, dec.done, dec.open)
	}
	s.mu.Lock()
	s.seen = fresh
	s.mu.Unlock()
	return d, nil
}

// refresh re-reads each backing file and appends the records past the
// table's current count, committed as one new block per table. A file new
// since Open is skipped (adding a table is structural; re-open).
func (s *fileSource[R]) refresh(ctx context.Context, d *Database, name string, f fileFormat[R], listed []string, dir string) (int, error) {
	label := f.kind() + " source " + name
	paths, err := files(label, listed, dir, f.kind())
	if err != nil {
		return 0, err
	}
	appended := 0
	// Commit what was staged even when a later file fails, so one broken
	// file cannot withhold other files' rows (refreshFile stages a table
	// only after all of its new rows converted).
	commitStaged := func() error {
		if appended == 0 {
			return nil
		}
		_, err := d.Commit()
		return err
	}
	for _, path := range paths {
		if err := ctx.Err(); err != nil {
			return appended, errors.Join(err, commitStaged())
		}
		t := d.Table(tableNameFromPath(path))
		if t == nil {
			continue
		}
		n, err := s.refreshFile(d, t, label, path, f)
		if err != nil {
			return appended, errors.Join(err, commitStaged())
		}
		appended += n
	}
	return appended, commitStaged()
}

// refreshFile stages one file's new records. With no record of the
// consumed prefix — a database restored from a store — the row counts
// alone place the new records, and the file's record at the table's last
// row must still equal the stored row, so a tail extended or rewritten
// while the process was down does not stand.
func (s *fileSource[R]) refreshFile(d *Database, t *Table, label, path string, f fileFormat[R]) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	prev, tracked := s.seen[path]
	s.mu.Unlock()
	if tracked {
		if err := prev.verifyAppendOnly(data, label, t.Name); err != nil {
			return 0, err
		}
	}
	dec, err := f.decode(data, t.Name)
	if err != nil {
		return 0, err
	}
	have := t.NumRows() + d.Pending(t.Name)
	n, done, open := len(dec.recs), dec.done, dec.open
	if dec.open && n > have {
		n, done, open = n-1, dec.last, false
	}
	if n < have {
		return 0, fmt.Errorf("db: %s: table %s shrank from %d to %d rows; refresh requires append-only files",
			label, t.Name, have, n)
	}
	if last := t.NumRows() - 1; !tracked && last >= 0 {
		for j, c := range t.Columns {
			v, str, err := f.value(c, j, dec.recs[last])
			same := err == nil && c.StringAt(last) == str
			if c.Kind == KindFloat {
				same = err == nil && (c.Float(last) == v || c.IsNull(last) && math.IsNaN(v))
			}
			if !same {
				return 0, fmt.Errorf("db: %s: table %s row %d was rewritten since it was stored; refresh requires append-only files",
					label, t.Name, last)
			}
		}
	}
	var out [][]any
	for _, rec := range dec.recs[have:n] {
		row := make([]any, len(t.Columns))
		for j, c := range t.Columns {
			v, str, err := f.value(c, j, rec)
			if err != nil {
				return 0, fmt.Errorf("db: %s: table %s: appended %w (column types are fixed after load)", label, t.Name, err)
			}
			row[j] = str
			if c.Kind == KindFloat {
				row[j] = v
			}
		}
		out = append(out, row)
	}
	if len(out) > 0 {
		if err := d.Append(t.Name, out...); err != nil {
			return 0, err
		}
	}
	// Only bytes that staged cleanly become the new consumed prefix; a
	// failed refresh re-verifies from the old one.
	s.mu.Lock()
	if s.seen == nil {
		s.seen = make(map[string]fileState)
	}
	s.seen[path] = consumed(data, done, open)
	s.mu.Unlock()
	return len(out), nil
}

// PendingTailBytes sums, over the files, the bytes past what the last Open
// or Refresh loaded, so a row that waits for its newline or for the rest
// of a torn write is visible rather than silent.
func (s *fileSource[R]) PendingTailBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, st := range s.seen {
		n += st.pending
	}
	return n
}

// MemSource wraps an already-built in-memory database (the builder opener):
// Open hands out the same head, and Refresh commits any rows the owner has
// staged with Append since the last snapshot.
type MemSource struct {
	DB *Database
}

// NewMemSource returns a source over an in-memory database.
func NewMemSource(d *Database) *MemSource { return &MemSource{DB: d} }

// Open implements Source.
func (s *MemSource) Open(context.Context) (*Database, error) {
	if s.DB == nil {
		return nil, fmt.Errorf("db: mem source has no database")
	}
	return s.DB, nil
}

// Refresh implements Refresher: it seals whatever the owner staged.
func (s *MemSource) Refresh(context.Context, *Database) (int, error) {
	before := s.DB.Snapshot().TotalRows()
	snap, err := s.DB.Commit()
	if err != nil {
		return 0, err
	}
	return snap.TotalRows() - before, nil
}
