package db

import (
	"fmt"
)

// Table is a named collection of equal-length columns, optionally with a
// primary-key column (required only when the table participates in joins).
type Table struct {
	Name       string
	Columns    []*Column
	PrimaryKey string // name of the PK column, "" if none

	byName map[string]*Column

	// zoneRows is the table's zone-map granularity in rows (0 = the package
	// default ZoneRows). It changes only when the compactor reseals the
	// table's blocks, which republishes every zone under a fresh structural
	// epoch, so all zones of one snapshot share a single granularity.
	zoneRows int
}

// ZoneGranularity returns the table's zone-map chunking in rows.
func (t *Table) ZoneGranularity() int {
	if t.zoneRows <= 0 {
		return ZoneRows
	}
	return t.zoneRows
}

// NewTable creates a table from columns. All columns must have equal length.
func NewTable(name string, cols ...*Column) (*Table, error) {
	t := &Table{Name: name, Columns: cols, byName: make(map[string]*Column, len(cols))}
	n := -1
	for _, c := range cols {
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("db: table %s: duplicate column %s", name, c.Name)
		}
		t.byName[c.Name] = c
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("db: table %s: column %s has %d rows, want %d", name, c.Name, c.Len(), n)
		}
	}
	return t, nil
}

// MustNewTable is NewTable that panics on error; for tests and embedded data.
func MustNewTable(name string, cols ...*Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column { return t.byName[name] }

// StringColumns returns the dictionary-encoded text columns.
func (t *Table) StringColumns() []*Column {
	var out []*Column
	for _, c := range t.Columns {
		if c.Kind == KindString {
			out = append(out, c)
		}
	}
	return out
}
