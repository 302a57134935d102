package colstore

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"aggchecker/internal/db"
)

// The manifest is a JSONL stream of publication records, appended and
// fsynced after the column bytes each record references are durable. Two
// kinds: a reset re-states the whole store (schema, block layout, zone
// maps, foreign keys) and starts a structural epoch; a publish is an
// append-only delta within the current epoch. Recovery folds the stream
// front to back and stops at the first record that is torn, malformed, or
// not covered by the column files on disk — everything before it is the
// reopened state, everything after it is truncated away.

const (
	recReset   = "reset"
	recPublish = "publish"
)

type manifestRecord struct {
	Kind    string        `json:"kind"`
	Name    string        `json:"name,omitempty"` // database name (reset only)
	Version uint64        `json:"version"`
	Epoch   uint64        `json:"epoch"`
	Tables  []tableRecord `json:"tables,omitempty"`
	FKs     []fkRecord    `json:"fks,omitempty"` // reset only
}

type fkRecord struct {
	FromTable  string `json:"ft"`
	FromColumn string `json:"fc"`
	ToTable    string `json:"tt"`
	ToColumn   string `json:"tc"`
}

type tableRecord struct {
	Name     string        `json:"name"`
	PK       string        `json:"pk,omitempty"`     // reset only
	ZoneRows int           `json:"zr,omitempty"`     // zone granularity (reset only)
	Rows     int           `json:"rows"`             // total rows after this record
	Blocks   []blockRecord `json:"blocks,omitempty"` // reset: all; publish: appended
	Cols     []colRecord   `json:"cols"`
}

type blockRecord struct {
	Seq   int `json:"q"`
	Start int `json:"s"`
	End   int `json:"e"`
}

type colRecord struct {
	ColName  string `json:"name,omitempty"` // reset only
	Desc     string `json:"desc,omitempty"` // reset only
	Kind     int    `json:"kind,omitempty"` // reset only (db.Kind; zero = string)
	Integral bool   `json:"int,omitempty"`  // reset only

	Dict      int          `json:"dict,omitempty"`  // total dictionary entries
	DictBytes int64        `json:"dictb,omitempty"` // total dictionary bytes
	Nulls     int          `json:"nulls,omitempty"` // total NULL rows
	Zones     []zoneRecord `json:"zones,omitempty"` // reset: all; publish: appended
}

// zoneRecord carries one db.ZoneEntry. Min/Max travel as float64 bit
// patterns: JSON has no NaN or ±Inf (the all-NULL zone's bounds), and Go's
// encoder round-trips uint64 exactly. The domain bitset travels as base64
// little-endian words; HasD distinguishes an empty-but-built bitset (all
// rows NULL — refutes every code) from an absent one (claims nothing).
type zoneRecord struct {
	S    int    `json:"s"`
	E    int    `json:"e"`
	N    int    `json:"n,omitempty"`
	MinB uint64 `json:"minb,omitempty"`
	MaxB uint64 `json:"maxb,omitempty"`
	Dom  string `json:"d,omitempty"`
	HasD bool   `json:"hd,omitempty"`
}

func encodeRecord(rec *manifestRecord) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("colstore: encode manifest record: %w", err)
	}
	return append(b, '\n'), nil
}

func encodeZones(zs []db.ZoneEntry) []zoneRecord {
	out := make([]zoneRecord, len(zs))
	for i := range zs {
		z := &zs[i]
		zr := zoneRecord{
			S:    z.Start,
			E:    z.End,
			N:    z.NullCount,
			MinB: math.Float64bits(z.Min),
			MaxB: math.Float64bits(z.Max),
		}
		if dom, has := z.Domain(); has {
			zr.HasD = true
			if len(dom) > 0 {
				raw := make([]byte, len(dom)*8)
				for j, w := range dom {
					binary.LittleEndian.PutUint64(raw[j*8:], w)
				}
				zr.Dom = base64.StdEncoding.EncodeToString(raw)
			}
		}
		out[i] = zr
	}
	return out
}

func decodeZones(zrs []zoneRecord) ([]db.ZoneEntry, error) {
	out := make([]db.ZoneEntry, len(zrs))
	for i := range zrs {
		zr := &zrs[i]
		var dom []uint64
		if zr.Dom != "" {
			raw, err := base64.StdEncoding.DecodeString(zr.Dom)
			if err != nil || len(raw)%8 != 0 {
				return nil, fmt.Errorf("corrupt zone domain at entry %d", i)
			}
			dom = make([]uint64, len(raw)/8)
			for j := range dom {
				dom[j] = binary.LittleEndian.Uint64(raw[j*8:])
			}
		}
		out[i] = db.MakeZoneEntry(zr.S, zr.E, zr.N,
			math.Float64frombits(zr.MinB), math.Float64frombits(zr.MaxB),
			dom, zr.HasD)
	}
	return out, nil
}

// Fold state: the store as described by the manifest prefix applied so
// far.
type foldDB struct {
	name           string
	version, epoch uint64
	tables         []*foldTable
	byName         map[string]*foldTable
	fks            []fkRecord
}

type foldTable struct {
	name, pk string
	zoneRows int
	rows     int
	blocks   []blockRecord
	cols     []foldCol
}

type foldCol struct {
	name, desc string
	kind       db.Kind
	integral   bool
	dictN      int
	dictBytes  int64
	nulls      int
	zones      []zoneRecord
}

// foldManifest folds the raw manifest bytes and returns the reopened state
// (nil when no valid record exists) plus the byte offset of the end of the
// last accepted record. A record is accepted only if it parses, is
// consistent with the state so far, and every column length it claims fits
// the column files on disk — the fsync ordering guarantees that for
// records that were durably appended, so a failure here means the record
// (or the data flush it describes) was torn by a crash.
func foldManifest(dir string, raw []byte) (*foldDB, int64, error) {
	var f *foldDB
	sizes := make(map[string]int64) // stat cache, path -> size
	var goodOff int64
	rest := raw
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn final line: no trailing newline
		}
		line := rest[:nl]
		var rec manifestRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break
		}
		nf, ok := applyRecord(dir, f, &rec, sizes)
		if !ok {
			break
		}
		f = nf
		goodOff += int64(nl + 1)
		rest = rest[nl+1:]
	}
	return f, goodOff, nil
}

// applyRecord validates rec against the folded state and the on-disk file
// sizes, then applies it. Returns ok=false to stop folding.
func applyRecord(dir string, f *foldDB, rec *manifestRecord, sizes map[string]int64) (*foldDB, bool) {
	switch rec.Kind {
	case recReset:
		nf := &foldDB{
			name:    rec.Name,
			version: rec.Version,
			epoch:   rec.Epoch,
			byName:  make(map[string]*foldTable, len(rec.Tables)),
			fks:     rec.FKs,
		}
		for ti := range rec.Tables {
			tr := &rec.Tables[ti]
			if tr.Rows < 0 || nf.byName[tr.Name] != nil {
				return f, false
			}
			ft := &foldTable{name: tr.Name, pk: tr.PK, zoneRows: tr.ZoneRows, rows: tr.Rows, blocks: tr.Blocks}
			for ci := range tr.Cols {
				cr := &tr.Cols[ci]
				if !countsValid(cr, tr.Rows) {
					return f, false
				}
				fc := foldCol{
					name:      cr.ColName,
					desc:      cr.Desc,
					kind:      db.Kind(cr.Kind),
					integral:  cr.Integral,
					dictN:     cr.Dict,
					dictBytes: cr.DictBytes,
					nulls:     cr.Nulls,
					zones:     cr.Zones,
				}
				if !columnCovered(dir, sizes, ti, ci, fc.kind, tr.Rows, fc.dictBytes) {
					return f, false
				}
				ft.cols = append(ft.cols, fc)
			}
			nf.tables = append(nf.tables, ft)
			nf.byName[ft.name] = ft
		}
		// Table slots are append-only: a reset may add tables at the end
		// but never reorder existing ones (slot index = file name).
		if f != nil {
			if len(nf.tables) < len(f.tables) {
				return f, false
			}
			for ti := range f.tables {
				if nf.tables[ti].name != f.tables[ti].name {
					return f, false
				}
			}
		}
		return nf, true

	case recPublish:
		if f == nil || rec.Epoch != f.epoch || rec.Version <= f.version {
			return f, false
		}
		// Validate everything before mutating, so a rejected record leaves
		// the previous state intact.
		type patch struct {
			ft *foldTable
			ti int
			tr *tableRecord
		}
		var patches []patch
		for ti := range rec.Tables {
			tr := &rec.Tables[ti]
			ft := f.byName[tr.Name]
			if ft == nil || tr.Rows < ft.rows || len(tr.Cols) != len(ft.cols) {
				return f, false
			}
			slot := -1
			for i, t := range f.tables {
				if t == ft {
					slot = i
					break
				}
			}
			for ci := range tr.Cols {
				cr := &tr.Cols[ci]
				fc := &ft.cols[ci]
				if !countsValid(cr, tr.Rows) {
					return f, false
				}
				dictN, dictBytes := fc.dictN, fc.dictBytes
				if fc.kind == db.KindString {
					if cr.Dict < dictN || cr.DictBytes < dictBytes {
						return f, false
					}
					dictBytes = cr.DictBytes
				}
				if !columnCovered(dir, sizes, slot, ci, fc.kind, tr.Rows, dictBytes) {
					return f, false
				}
			}
			patches = append(patches, patch{ft: ft, ti: slot, tr: tr})
		}
		for _, p := range patches {
			p.ft.rows = p.tr.Rows
			p.ft.blocks = append(p.ft.blocks, p.tr.Blocks...)
			for ci := range p.tr.Cols {
				cr := &p.tr.Cols[ci]
				fc := &p.ft.cols[ci]
				if fc.kind == db.KindString {
					fc.dictN = cr.Dict
					fc.dictBytes = cr.DictBytes
				}
				fc.nulls = cr.Nulls
				fc.zones = append(fc.zones, cr.Zones...)
			}
		}
		f.version = rec.Version
		return f, true
	}
	return f, false
}

// countsValid rejects a column record whose dictionary counts are negative
// or name more entries than bytes (every entry takes at least its one-byte
// length prefix), or whose NULL count falls outside [0, rows].
func countsValid(cr *colRecord, rows int) bool {
	return cr.Dict >= 0 && int64(cr.Dict) <= cr.DictBytes && cr.Nulls >= 0 && cr.Nulls <= rows
}

// columnCovered reports whether the column files on disk hold at least the
// bytes a record claims for one column.
func columnCovered(dir string, sizes map[string]int64, ti, ci int, kind db.Kind, rows int, dictBytes int64) bool {
	width := int64(8)
	ext := "f64"
	if kind == db.KindString {
		width, ext = 4, "i32"
	}
	need := int64(rows) * width
	if fileSize(sizes, filepath.Join(dir, fmt.Sprintf("t%d_c%d.%s", ti, ci, ext))) < need {
		return false
	}
	if kind == db.KindString && fileSize(sizes, filepath.Join(dir, fmt.Sprintf("t%d_c%d.dict", ti, ci))) < dictBytes {
		return false
	}
	return true
}

func fileSize(sizes map[string]int64, path string) int64 {
	if n, ok := sizes[path]; ok {
		return n
	}
	var n int64
	if fi, err := os.Stat(path); err == nil {
		n = fi.Size()
	}
	sizes[path] = n
	return n
}
