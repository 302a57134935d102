package db

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// sourceFileState fingerprints the consumed prefix of one backing file:
// its byte length and a hash of those bytes. Refresh verifies both before
// appending, so a file that shrank, or was rewritten in place to the same
// or a larger size, surfaces the non-append-only error instead of silently
// appending garbage rows diffed from a stale offset.
type sourceFileState struct {
	size int64
	sum  [sha256.Size]byte
}

func fingerprint(data []byte) sourceFileState {
	return sourceFileState{size: int64(len(data)), sum: sha256.Sum256(data)}
}

// verifyAppendOnly checks the current file contents against the fingerprint
// of the previously consumed prefix.
func (st sourceFileState) verifyAppendOnly(data []byte, source, table string) error {
	if int64(len(data)) < st.size {
		return fmt.Errorf("db: %s source: table %s shrank from %d to %d bytes; refresh requires append-only files",
			source, table, st.size, len(data))
	}
	if sha256.Sum256(data[:st.size]) != st.sum {
		return fmt.Errorf("db: %s source: table %s was rewritten in place; refresh requires append-only files",
			source, table)
	}
	return nil
}

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

	// mu guards seen: per-file fingerprints of the consumed prefix, used by
	// Refresh to detect truncated or rewritten-in-place files.
	mu   sync.Mutex
	seen map[string]sourceFileState
}

// NewCSVSource returns a source over an explicit CSV file list.
func NewCSVSource(name string, files ...string) *CSVSource {
	return &CSVSource{Name: name, Files: files}
}

// NewCSVDirSource returns a source over every *.csv file in a directory.
func NewCSVDirSource(name, dir string) *CSVSource {
	return &CSVSource{Name: name, Dir: dir}
}

// resolveFiles expands Dir into the effective file list.
func (s *CSVSource) resolveFiles() ([]string, error) {
	files := append([]string(nil), s.Files...)
	if s.Dir != "" {
		matches, err := filepath.Glob(filepath.Join(s.Dir, "*.csv"))
		if err != nil {
			return nil, fmt.Errorf("db: csv source %s: %w", s.Name, err)
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("db: csv source %s: no files", s.Name)
	}
	return files, nil
}

// readCompleteLines reads a file but withholds any torn final line (no
// trailing newline): a writer appending non-atomically may have flushed
// half a row, and ingesting the fragment would be permanent — refresh
// diffs by row count, so the later-completed line would never be re-read.
// The withheld tail is picked up whole by the next Open or Refresh. Torn
// quoted multi-line fields remain the writer's problem — append atomically
// or whole-lines-at-a-time.
func readCompleteLines(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if n := len(data); n > 0 && data[n-1] != '\n' {
		cut := strings.LastIndexByte(string(data), '\n')
		if cut < 0 {
			return nil, nil
		}
		data = data[:cut+1]
	}
	return data, nil
}

// readCompleteJSONL is readCompleteLines for JSON lines, except that an
// unterminated final line that is already one whole JSON object is kept:
// no proper prefix of an object is itself a valid object, so a torn write
// such as {"a":4, is still held back while a file whose writer never ends
// its last record with a newline loads every row.
func readCompleteJSONL(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cut := bytes.LastIndexByte(data, '\n') + 1
	if tail := bytes.TrimSpace(data[cut:]); len(tail) > 0 && (tail[0] != '{' || !json.Valid(tail)) {
		data = data[:cut]
	}
	return data, nil
}

// Open implements Source: every file becomes one table.
func (s *CSVSource) Open(ctx context.Context) (*Database, error) {
	files, err := s.resolveFiles()
	if err != nil {
		return nil, err
	}
	d := NewDatabase(s.Name)
	fresh := make(map[string]sourceFileState, len(files))
	for _, f := range files {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		path := strings.TrimSpace(f)
		data, err := readCompleteLines(path)
		if err != nil {
			return nil, err
		}
		tbl, err := LoadCSVOptions(strings.NewReader(string(data)), tableNameFromPath(path), s.Options)
		if err != nil {
			return nil, err
		}
		if err := d.AddTable(tbl); err != nil {
			return nil, err
		}
		fresh[path] = fingerprint(data)
	}
	s.mu.Lock()
	s.seen = fresh
	s.mu.Unlock()
	return d, nil
}

// Refresh implements Refresher: each backing file is re-read and any rows
// beyond the table's current count are appended and committed as one new
// block per table. A file that shrank (or whose table vanished) fails the
// refresh, since the change cannot be expressed as an append.
func (s *CSVSource) Refresh(ctx context.Context, d *Database) (int, error) {
	files, err := s.resolveFiles()
	if err != nil {
		return 0, err
	}
	appended := 0
	// Commit whatever was successfully staged even when a later file
	// fails, so one broken file cannot withhold other files' valid rows
	// indefinitely (refreshTable stages a table only after all of its new
	// rows converted cleanly, so partial tables are never committed).
	commitStaged := func() error {
		if appended == 0 {
			return nil
		}
		_, err := d.Commit()
		return err
	}
	for _, path := range files {
		if err := ctx.Err(); err != nil {
			return appended, errors.Join(err, commitStaged())
		}
		path = strings.TrimSpace(path)
		name := tableNameFromPath(path)
		t := d.Table(name)
		if t == nil {
			continue // new file since Open: adding tables needs a re-open
		}
		n, err := s.refreshTable(d, t, path)
		if err != nil {
			return appended, errors.Join(err, commitStaged())
		}
		appended += n
	}
	return appended, commitStaged()
}

func (s *CSVSource) refreshTable(d *Database, t *Table, path string) (int, error) {
	data, err := readCompleteLines(path)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	prev, tracked := s.seen[path]
	s.mu.Unlock()
	if tracked {
		if err := prev.verifyAppendOnly(data, "csv "+s.Name, t.Name); err != nil {
			return 0, err
		}
	}
	if len(data) == 0 {
		return 0, nil
	}
	records, err := readCSVRecords(strings.NewReader(string(data)), t.Name, s.Options)
	if err != nil {
		return 0, err
	}
	rows := records[1:]
	have := t.NumRows() + d.Pending(t.Name)
	if len(rows) < have {
		return 0, fmt.Errorf("db: csv source %s: table %s shrank from %d to %d rows; refresh requires append-only files",
			s.Name, t.Name, have, len(rows))
	}
	nulls := s.Options.nullSet()
	var out [][]any
	for _, rec := range rows[have:] {
		row := make([]any, len(t.Columns))
		for j, c := range t.Columns {
			var cell string
			if j < len(rec) {
				cell = strings.TrimSpace(rec[j])
			}
			if nulls[strings.ToLower(cell)] {
				row[j] = nil
				continue
			}
			if c.Kind == KindFloat {
				v, perr := parseNumericCell(cell)
				if perr != nil {
					return 0, fmt.Errorf("db: csv source %s: table %s column %s: appended cell %q is not numeric (column types are fixed after load)",
						s.Name, t.Name, c.Name, cell)
				}
				row[j] = v
				continue
			}
			row[j] = cell
		}
		out = append(out, row)
	}
	if len(out) > 0 {
		if err := d.Append(t.Name, out...); err != nil {
			return 0, err
		}
	}
	// Only bytes that parsed and staged cleanly become the new consumed
	// prefix; a failed refresh re-verifies from the old fingerprint.
	s.mu.Lock()
	if s.seen == nil {
		s.seen = make(map[string]sourceFileState)
	}
	s.seen[path] = fingerprint(data)
	s.mu.Unlock()
	return len(out), nil
}

// JSONLSource opens a database from JSON-lines files, one table per file,
// with the same incremental append-only Refresh contract as CSVSource; a
// torn final line is held back until its newline arrives (readCompleteJSONL).
type JSONLSource struct {
	Name  string
	Files []string

	// mu guards seen: per-file fingerprints of the consumed prefix, used by
	// Refresh to detect truncated or rewritten-in-place files.
	mu   sync.Mutex
	seen map[string]sourceFileState
}

// NewJSONLSource returns a source over an explicit JSONL file list.
func NewJSONLSource(name string, files ...string) *JSONLSource {
	return &JSONLSource{Name: name, Files: files}
}

// Open implements Source.
func (s *JSONLSource) Open(ctx context.Context) (*Database, error) {
	if len(s.Files) == 0 {
		return nil, fmt.Errorf("db: jsonl source %s: no files", s.Name)
	}
	d := NewDatabase(s.Name)
	fresh := make(map[string]sourceFileState, len(s.Files))
	for _, f := range s.Files {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		path := strings.TrimSpace(f)
		data, err := readCompleteJSONL(path)
		if err != nil {
			return nil, err
		}
		tbl, err := LoadJSONL(bytes.NewReader(data), tableNameFromPath(path))
		if err != nil {
			return nil, err
		}
		if err := d.AddTable(tbl); err != nil {
			return nil, err
		}
		fresh[path] = fingerprint(data)
	}
	s.mu.Lock()
	s.seen = fresh
	s.mu.Unlock()
	return d, nil
}

// Refresh implements Refresher for append-only JSONL files. As with
// CSVSource, rows staged from earlier files are committed even when a
// later file fails.
func (s *JSONLSource) Refresh(ctx context.Context, d *Database) (int, error) {
	appended := 0
	commitStaged := func() error {
		if appended == 0 {
			return nil
		}
		_, err := d.Commit()
		return err
	}
	for _, path := range s.Files {
		if err := ctx.Err(); err != nil {
			return appended, errors.Join(err, commitStaged())
		}
		n, err := s.refreshFile(d, strings.TrimSpace(path))
		if err != nil {
			return appended, errors.Join(err, commitStaged())
		}
		appended += n
	}
	return appended, commitStaged()
}

// refreshFile stages one JSONL file's appended rows (the table is staged
// only after every new row converted cleanly, so partial tables are never
// committed).
func (s *JSONLSource) refreshFile(d *Database, path string) (int, error) {
	name := tableNameFromPath(path)
	t := d.Table(name)
	if t == nil {
		return 0, nil
	}
	data, err := readCompleteJSONL(path)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	prev, tracked := s.seen[path]
	s.mu.Unlock()
	if tracked {
		if err := prev.verifyAppendOnly(data, "jsonl "+s.Name, name); err != nil {
			return 0, err
		}
	}
	objs, _, err := readJSONLObjects(bytes.NewReader(data), name)
	if err != nil {
		return 0, err
	}
	have := t.NumRows() + d.Pending(name)
	if len(objs) < have {
		return 0, fmt.Errorf("db: jsonl source %s: table %s shrank from %d to %d rows; refresh requires append-only files",
			s.Name, name, have, len(objs))
	}
	// Keys first appearing in appended lines are skipped (adding a column
	// is structural; re-register the source), mirroring how new files are
	// skipped by Refresh.
	var out [][]any
	for _, obj := range objs[have:] {
		row := make([]any, len(t.Columns))
		for j, c := range t.Columns {
			v, ok := obj[c.Name]
			if c.Kind == KindFloat {
				switch {
				case !ok || v == nil:
					row[j] = nil
				default:
					f64, isNum := v.(float64)
					if !isNum {
						return 0, fmt.Errorf("db: jsonl source %s: table %s column %s: appended value %v is not a number (column types are fixed after load)",
							s.Name, name, c.Name, v)
					}
					row[j] = f64
				}
				continue
			}
			row[j] = jsonCellString(v, ok)
		}
		out = append(out, row)
	}
	if len(out) > 0 {
		if err := d.Append(name, out...); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	if s.seen == nil {
		s.seen = make(map[string]sourceFileState)
	}
	s.seen[path] = fingerprint(data)
	s.mu.Unlock()
	return len(out), nil
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
