// Package colstore is the durable half of the snapshot-versioned column
// store: a compact on-disk block format (raw little-endian column pages,
// uvarint-framed dictionary pages, and a JSONL manifest carrying null
// counts, zone maps, sealed-block layout, and the published version
// lineage) written incrementally at every Commit and read back on restart
// without re-deriving anything from source files.
//
// A Store implements db.Persister: same-epoch publications append only the
// rows, dictionary entries, and zone entries sealed since the previous
// one; an epoch change (AddTable, AddForeignKey, Compact) re-records the
// schema, block layout, and zone maps wholesale in a reset record while
// leaving the column pages in place — compaction is metadata-only, because
// column storage is contiguous and data never moves.
//
// On reopen the manifest is folded record by record (a torn trailing line
// — the crash case — is discarded, and the manifest truncated back to the
// last durable record), column files are clipped to the recorded lengths,
// and the column pages are memory-mapped read-only. The resulting
// db.PersistedDB feeds db.RestoreDatabase, which pre-publishes a snapshot
// from the manifest metadata alone: zone-refuted blocks are never paged
// in, even across a restart. See FORMAT.md for the byte-level spec.
package colstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"aggchecker/internal/db"
)

const manifestName = "MANIFEST"

// Store is a durable columnar store rooted at one directory. It is safe
// for concurrent use; Publish is additionally serialized by the owning
// database's mutation lock.
type Store struct {
	dir string

	mu           sync.Mutex
	manifest     *os.File
	manifestSize int64
	closed       bool
	detached     bool

	haveSchema bool
	name       string
	version    uint64
	epoch      uint64
	tables     []*storeTable
	byName     map[string]*storeTable

	// maps holds every live memory mapping (column pages handed to the
	// restored database). Unmapped only by Close; Detach leaves them valid
	// for snapshot readers that still alias them.
	maps []mappedBytes

	publishes atomic.Int64
	resets    atomic.Int64
}

// storeTable tracks the durable watermarks of one table: rows and zone
// entries already recorded, in schema order (table index = file name).
type storeTable struct {
	name  string
	rows  int
	zones int // zone entries recorded per column
	cols  []*storeCol
}

type storeCol struct {
	kind    db.Kind
	data    *os.File // .f64 (floats) or .i32 (dictionary codes)
	dict    *os.File // .dict, strings only
	dictN   int
	dictOff int64
}

func (sc *storeCol) rowWidth() int64 {
	if sc.kind == db.KindString {
		return 4
	}
	return 8
}

// Open opens (or creates) the store rooted at dir and returns the reopened
// state, nil when the store is empty. Recovery is part of opening: the
// manifest is folded up to the last record that is both well-formed and
// covered by the column files on disk, everything after it is truncated
// away, and column files are clipped to the recorded lengths so a torn
// final flush can never leak into a reopened snapshot.
func Open(dir string) (*Store, *db.PersistedDB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("colstore: %w", err)
	}
	st := &Store{dir: dir, byName: make(map[string]*storeTable)}
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("colstore: %w", err)
	}
	fold, goodOff, err := foldManifest(dir, raw)
	if err != nil {
		return nil, nil, err
	}
	if int64(len(raw)) > goodOff {
		// Torn or invalid tail: drop it so future appends extend a clean
		// record stream.
		if err := os.Truncate(mpath, goodOff); err != nil {
			return nil, nil, fmt.Errorf("colstore: truncate manifest: %w", err)
		}
	}
	mf, err := os.OpenFile(mpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("colstore: %w", err)
	}
	st.manifest = mf
	st.manifestSize = goodOff
	if fold == nil {
		syncDir(dir)
		return st, nil, nil
	}
	pdb, err := st.attach(fold)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	syncDir(dir)
	return st, pdb, nil
}

// attach materializes the folded manifest state: column files are opened,
// clipped to the recorded lengths, and mapped; dictionaries are decoded;
// zone maps and null counts come straight from the manifest.
func (st *Store) attach(f *foldDB) (*db.PersistedDB, error) {
	st.haveSchema = true
	st.name = f.name
	st.version, st.epoch = f.version, f.epoch
	pdb := &db.PersistedDB{Name: f.name, Version: f.version, Epoch: f.epoch}
	for _, fk := range f.fks {
		pdb.FKs = append(pdb.FKs, db.ForeignKey{FromTable: fk.FromTable, FromColumn: fk.FromColumn, ToTable: fk.ToTable, ToColumn: fk.ToColumn})
	}
	for ti, ft := range f.tables {
		stb := &storeTable{name: ft.name, rows: ft.rows}
		pt := db.PersistedTable{Name: ft.name, PrimaryKey: ft.pk, ZoneRows: ft.zoneRows}
		for _, b := range ft.blocks {
			pt.Blocks = append(pt.Blocks, db.Block{Seq: b.Seq, Start: b.Start, End: b.End})
		}
		for ci := range ft.cols {
			fc := &ft.cols[ci]
			sc := &storeCol{kind: fc.kind, dictN: fc.dictN, dictOff: fc.dictBytes}
			pc := db.PersistedColumn{
				Name:        fc.name,
				Description: fc.desc,
				Kind:        fc.kind,
				Integral:    fc.integral,
				NullCount:   fc.nulls,
			}
			zones, err := decodeZones(fc.zones)
			if err != nil {
				return nil, fmt.Errorf("colstore: table %s column %s: %w", ft.name, fc.name, err)
			}
			pc.Zones = zones
			dataBytes := int64(ft.rows) * sc.rowWidth()
			dataF, pages, err := st.openColumn(st.dataPath(ti, ci, fc.kind), dataBytes)
			if err != nil {
				return nil, err
			}
			sc.data = dataF
			if fc.kind == db.KindString {
				pc.Codes = viewCodes(pages, ft.rows)
				dictF, err := os.OpenFile(st.dictPath(ti, ci), os.O_RDWR|os.O_CREATE, 0o644)
				if err != nil {
					return nil, fmt.Errorf("colstore: %w", err)
				}
				if err := dictF.Truncate(fc.dictBytes); err != nil {
					dictF.Close()
					return nil, fmt.Errorf("colstore: %w", err)
				}
				sc.dict = dictF
				dict, err := readDictEntries(dictF, fc.dictBytes, fc.dictN)
				if err != nil {
					return nil, fmt.Errorf("colstore: table %s column %s: %w", ft.name, fc.name, err)
				}
				pc.Dict = dict
			} else {
				pc.Floats = viewFloats(pages, ft.rows)
			}
			stb.cols = append(stb.cols, sc)
			if ci == 0 {
				stb.zones = len(fc.zones)
			}
			pt.Cols = append(pt.Cols, pc)
		}
		st.tables = append(st.tables, stb)
		st.byName[stb.name] = stb
		pdb.Tables = append(pdb.Tables, pt)
	}
	return pdb, nil
}

// openColumn opens a column data file read-write, clips it to the recorded
// byte length, and maps its pages (nil pages for an empty column).
func (st *Store) openColumn(path string, size int64) (*os.File, []byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("colstore: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("colstore: %w", err)
	}
	if size == 0 {
		return f, nil, nil
	}
	pages, mapped, err := openColumnBytes(f, size)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("colstore: map %s: %w", filepath.Base(path), err)
	}
	if mapped {
		st.maps = append(st.maps, mappedBytes(pages))
	}
	return f, pages, nil
}

func (st *Store) dataPath(ti, ci int, kind db.Kind) string {
	ext := "f64"
	if kind == db.KindString {
		ext = "i32"
	}
	return filepath.Join(st.dir, fmt.Sprintf("t%d_c%d.%s", ti, ci, ext))
}

func (st *Store) dictPath(ti, ci int) string {
	return filepath.Join(st.dir, fmt.Sprintf("t%d_c%d.dict", ti, ci))
}

// Publish implements db.Persister: same-epoch snapshots append the sealed
// suffix; an epoch change (or the first publication) re-records the store
// wholesale. Column pages are written and fsynced before the manifest
// record that covers them, so a crash between the two leaves only
// unreferenced bytes that the next open clips away.
func (st *Store) Publish(s *db.Snapshot) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.detached {
		return fmt.Errorf("colstore: store is closed")
	}
	if st.haveSchema && s.Epoch() == st.epoch && s.Version() <= st.version {
		return nil // already durable at this version (idempotent re-offer)
	}
	if !st.haveSchema || s.Epoch() != st.epoch {
		return st.resetLocked(s)
	}
	return st.appendLocked(s)
}

// appendLocked records a same-epoch publication as a delta.
func (st *Store) appendLocked(s *db.Snapshot) error {
	rec := manifestRecord{Kind: recPublish, Version: s.Version(), Epoch: s.Epoch()}
	var touched []*os.File
	for _, tv := range s.Tables() {
		stb := st.byName[tv.Name]
		if stb == nil {
			return fmt.Errorf("colstore: table %s appeared without an epoch change", tv.Name)
		}
		tr, files, err := st.writeTableLocked(stb, tv, false)
		if err != nil {
			return err
		}
		touched = append(touched, files...)
		if tr != nil {
			rec.Tables = append(rec.Tables, *tr)
		}
	}
	if err := syncFiles(touched); err != nil {
		return err
	}
	if err := st.appendRecordLocked(&rec); err != nil {
		return err
	}
	st.version = s.Version()
	st.publishes.Add(1)
	return nil
}

// resetLocked re-records the store wholesale: schema, block layout, zone
// maps, and foreign keys, plus any column bytes not yet on disk. Data
// already persisted is left in place — a compaction reseal changes only
// metadata.
func (st *Store) resetLocked(s *db.Snapshot) error {
	tvs := s.Tables()
	if len(tvs) < len(st.tables) {
		return fmt.Errorf("colstore: snapshot dropped tables (have %d, got %d)", len(st.tables), len(tvs))
	}
	for ti, tv := range tvs {
		if ti < len(st.tables) {
			if st.tables[ti].name != tv.Name {
				return fmt.Errorf("colstore: table order changed: slot %d was %s, got %s", ti, st.tables[ti].name, tv.Name)
			}
			continue
		}
		stb := &storeTable{name: tv.Name}
		for ci, cv := range tv.Columns() {
			sc := &storeCol{kind: cv.Kind}
			// O_TRUNC: a brand-new table must not inherit bytes from a
			// previous incarnation of this directory.
			f, err := os.OpenFile(st.dataPath(ti, ci, cv.Kind), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				return fmt.Errorf("colstore: %w", err)
			}
			sc.data = f
			if cv.Kind == db.KindString {
				df, err := os.OpenFile(st.dictPath(ti, ci), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
				if err != nil {
					return fmt.Errorf("colstore: %w", err)
				}
				sc.dict = df
			}
			stb.cols = append(stb.cols, sc)
		}
		st.tables = append(st.tables, stb)
		st.byName[stb.name] = stb
	}
	rec := manifestRecord{Kind: recReset, Name: s.DatabaseName(), Version: s.Version(), Epoch: s.Epoch()}
	for _, fk := range s.ForeignKeys() {
		rec.FKs = append(rec.FKs, fkRecord{FromTable: fk.FromTable, FromColumn: fk.FromColumn, ToTable: fk.ToTable, ToColumn: fk.ToColumn})
	}
	var touched []*os.File
	for ti, tv := range tvs {
		stb := st.tables[ti]
		tr, files, err := st.writeTableLocked(stb, tv, true)
		if err != nil {
			return err
		}
		touched = append(touched, files...)
		rec.Tables = append(rec.Tables, *tr)
	}
	if err := syncFiles(touched); err != nil {
		return err
	}
	syncDir(st.dir) // new column files must survive the crash too
	if err := st.appendRecordLocked(&rec); err != nil {
		return err
	}
	st.haveSchema = true
	st.name = s.DatabaseName()
	st.version = s.Version()
	st.epoch = s.Epoch()
	st.resets.Add(1)
	return nil
}

// writeTableLocked writes the column bytes a snapshot added beyond the
// table's durable watermarks and builds its manifest record: the full
// layout when full (reset records), the sealed suffix otherwise. Returns a
// nil record when a delta publication left the table untouched.
func (st *Store) writeTableLocked(stb *storeTable, tv *db.TableView, full bool) (*tableRecord, []*os.File, error) {
	newRows := tv.NumRows()
	if newRows < stb.rows {
		return nil, nil, fmt.Errorf("colstore: table %s shrank from %d to %d rows", stb.name, stb.rows, newRows)
	}
	cols := tv.Columns()
	if len(cols) != len(stb.cols) {
		return nil, nil, fmt.Errorf("colstore: table %s column count changed from %d to %d", stb.name, len(stb.cols), len(cols))
	}
	newZones := len(tv.ZoneSpans())
	if !full && newRows == stb.rows && newZones == stb.zones {
		return nil, nil, nil
	}
	if !full && newZones < stb.zones {
		return nil, nil, fmt.Errorf("colstore: table %s zone map shrank without an epoch change", stb.name)
	}
	tr := &tableRecord{Name: stb.name, Rows: newRows}
	if full {
		tr.PK = tv.PrimaryKey
		tr.ZoneRows = tv.ZoneGranularity()
	}
	for _, b := range tv.Blocks() {
		if full || b.Start >= stb.rows {
			tr.Blocks = append(tr.Blocks, blockRecord{Seq: b.Seq, Start: b.Start, End: b.End})
		}
	}
	var touched []*os.File
	for ci, cv := range cols {
		sc := stb.cols[ci]
		if cv.Kind != sc.kind {
			return nil, nil, fmt.Errorf("colstore: table %s column %s changed kind", stb.name, cv.Name)
		}
		cr := colRecord{Nulls: cv.NullCount()}
		if full {
			cr.ColName = cv.Name
			cr.Desc = cv.Description
			cr.Kind = int(cv.Kind)
			cr.Integral = cv.Integral
		}
		wroteData := false
		if cv.Kind == db.KindString {
			if err := writeCodeRows(sc.data, cv.Codes(), stb.rows); err != nil {
				return nil, nil, fmt.Errorf("colstore: table %s column %s: %w", stb.name, cv.Name, err)
			}
			wroteData = newRows > stb.rows
			dict := cv.Dictionary()
			if len(dict) < sc.dictN {
				return nil, nil, fmt.Errorf("colstore: table %s column %s dictionary shrank", stb.name, cv.Name)
			}
			newOff, err := appendDictEntries(sc.dict, sc.dictOff, dict[sc.dictN:])
			if err != nil {
				return nil, nil, fmt.Errorf("colstore: table %s column %s: %w", stb.name, cv.Name, err)
			}
			if newOff != sc.dictOff {
				touched = append(touched, sc.dict)
			}
			sc.dictN, sc.dictOff = len(dict), newOff
			cr.Dict = sc.dictN
			cr.DictBytes = sc.dictOff
		} else {
			if err := writeFloatRows(sc.data, cv.Floats(), stb.rows); err != nil {
				return nil, nil, fmt.Errorf("colstore: table %s column %s: %w", stb.name, cv.Name, err)
			}
			wroteData = newRows > stb.rows
		}
		if wroteData {
			touched = append(touched, sc.data)
		}
		zs := cv.Zones()
		if full {
			cr.Zones = encodeZones(zs)
		} else {
			if len(zs) != newZones {
				return nil, nil, fmt.Errorf("colstore: table %s column %s has %d zones, want %d", stb.name, cv.Name, len(zs), newZones)
			}
			cr.Zones = encodeZones(zs[stb.zones:])
		}
		tr.Cols = append(tr.Cols, cr)
	}
	stb.rows = newRows
	stb.zones = newZones
	return tr, touched, nil
}

func (st *Store) appendRecordLocked(rec *manifestRecord) error {
	b, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if _, err := st.manifest.Write(b); err != nil {
		return fmt.Errorf("colstore: manifest append: %w", err)
	}
	if err := st.manifest.Sync(); err != nil {
		return fmt.Errorf("colstore: manifest sync: %w", err)
	}
	st.manifestSize += int64(len(b))
	return nil
}

// Close releases everything: file handles and the column-page mappings.
// Only safe once no snapshot that aliases the mappings is reachable
// (tests, benchmarks, process shutdown).
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closeFilesLocked()
	for _, m := range st.maps {
		unmapBytes(m)
	}
	st.maps = nil
	st.closed = true
	return nil
}

// Detach closes the file handles but keeps the column-page mappings
// valid, because live snapshots may still alias them. Used when a service
// evicts a checker whose readers may still be draining.
func (st *Store) Detach() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closeFilesLocked()
	st.detached = true
	return nil
}

func (st *Store) closeFilesLocked() {
	if st.manifest != nil {
		st.manifest.Close()
		st.manifest = nil
	}
	for _, t := range st.tables {
		for _, c := range t.cols {
			if c.data != nil {
				c.data.Close()
				c.data = nil
			}
			if c.dict != nil {
				c.dict.Close()
				c.dict = nil
			}
		}
	}
}

// Stats is a point-in-time summary of the store for status endpoints and
// benchmarks.
type Stats struct {
	Dir            string
	Version, Epoch uint64
	Tables         int
	Publishes      int64 // delta records written by this process
	Resets         int64 // reset records written by this process
	DataBytes      int64 // column + dictionary bytes recorded durable
	ManifestBytes  int64
	MappedBytes    int64 // column pages currently memory-mapped
	ResidentBytes  int64 // mapped pages actually faulted in (-1 if unknown)
}

// Stats returns the store's current counters. ResidentBytes distinguishes
// mapped from touched: a zone-pruned scan leaves refuted pages unmapped in
// the page table, and that is visible here.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	s := Stats{
		Dir:           st.dir,
		Version:       st.version,
		Epoch:         st.epoch,
		Tables:        len(st.tables),
		Publishes:     st.publishes.Load(),
		Resets:        st.resets.Load(),
		ManifestBytes: st.manifestSize,
	}
	for _, t := range st.tables {
		for _, c := range t.cols {
			s.DataBytes += int64(t.rows) * c.rowWidth()
			s.DataBytes += c.dictOff
		}
	}
	for _, m := range st.maps {
		s.MappedBytes += int64(len(m))
	}
	// Publish takes st.mu under the database's commit lock, so the smaps
	// walk runs on a copy after the lock is released: a status poll must
	// not stall a refresh. residentBytes only takes the mappings'
	// addresses, so a concurrent Close cannot fault it.
	maps := append([]mappedBytes(nil), st.maps...)
	st.mu.Unlock()
	s.ResidentBytes = residentBytes(maps)
	return s
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

func syncFiles(files []*os.File) error {
	seen := make(map[*os.File]bool, len(files))
	for _, f := range files {
		if f == nil || seen[f] {
			continue
		}
		seen[f] = true
		if err := f.Sync(); err != nil {
			return fmt.Errorf("colstore: sync: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so freshly created files survive a crash.
// Best-effort: some platforms cannot sync directories.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
