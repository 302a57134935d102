package db

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func snapTestDB(t *testing.T) *Database {
	t.Helper()
	s := NewStringColumn("s")
	n := NewFloatColumn("n")
	for i, v := range []string{"a", "b", "a"} {
		s.AppendString(v)
		n.AppendFloat(float64(i + 1))
	}
	d := NewDatabase("snap")
	d.MustAddTable(MustNewTable("t", s, n))
	return d
}

func TestSnapshotVersioningAndBlocks(t *testing.T) {
	d := snapTestDB(t)
	s1 := d.Snapshot()
	if s1.Version() != 1 {
		t.Fatalf("initial version = %d, want 1", s1.Version())
	}
	if d.Snapshot() != s1 {
		t.Fatal("repeated Snapshot without mutation must return the same snapshot")
	}
	if got := s1.NumRows("t"); got != 3 {
		t.Fatalf("snapshot rows = %d, want 3", got)
	}
	bs := s1.Table("t").Blocks()
	if len(bs) != 1 || bs[0].Start != 0 || bs[0].End != 3 {
		t.Fatalf("initial blocks = %v, want one [0,3)", bs)
	}

	if err := d.Append("t", []any{"c", 4.0}, []any{nil, nil}); err != nil {
		t.Fatal(err)
	}
	if d.Pending("t") != 2 {
		t.Fatalf("pending = %d, want 2", d.Pending("t"))
	}
	// Staged rows are invisible until Commit.
	if d.Snapshot() != s1 {
		t.Fatal("Append must not publish a new snapshot")
	}
	s2, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version() != 2 || s2.NumRows("t") != 5 {
		t.Fatalf("after commit: version=%d rows=%d, want 2/5", s2.Version(), s2.NumRows("t"))
	}
	if got := len(s2.Table("t").Blocks()); got != 2 {
		t.Fatalf("blocks after commit = %d, want 2", got)
	}
	since := s2.BlocksSince("t", 3)
	if len(since) != 1 || since[0].Start != 3 || since[0].End != 5 {
		t.Fatalf("BlocksSince(3) = %v, want one [3,5)", since)
	}

	// The old snapshot still sees exactly its own rows (copy-on-write).
	if s1.NumRows("t") != 3 || s1.Table("t").Column("s").Len() != 3 {
		t.Fatal("old snapshot leaked appended rows")
	}
	sv := s2.Table("t").Column("s")
	nv := s2.Table("t").Column("n")
	if sv.StringAt(3) != "c" || !sv.IsNull(4) {
		t.Errorf("appended string rows wrong: %q null=%v", sv.StringAt(3), sv.IsNull(4))
	}
	if nv.Float(3) != 4 || !math.IsNaN(nv.Float(4)) {
		t.Errorf("appended numeric rows wrong: %v %v", nv.Float(3), nv.Float(4))
	}
	if nv.NullCount() != 1 || sv.NullCount() != 1 {
		t.Errorf("incremental null counts = %d/%d, want 1/1", nv.NullCount(), sv.NullCount())
	}
	// New dictionary value resolves in the new snapshot only.
	if sv.CodeOf("c") < 0 {
		t.Error("new snapshot misses appended dictionary value")
	}
	if s1.Table("t").Column("s").CodeOf("c") >= 0 {
		t.Error("old snapshot sees appended dictionary value")
	}

	// Empty commit publishes no new version.
	s3, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if s3.Version() != s2.Version() {
		t.Errorf("empty commit bumped version %d -> %d", s2.Version(), s3.Version())
	}
}

func TestSnapshotEpochBumpsOnStructuralChange(t *testing.T) {
	d := snapTestDB(t)
	s1 := d.Snapshot()
	extra := NewFloatColumn("z")
	d.MustAddTable(MustNewTable("u", extra))
	s2 := d.Snapshot()
	if s2.Version() <= s1.Version() {
		t.Errorf("AddTable did not advance version: %d -> %d", s1.Version(), s2.Version())
	}
	if s2.Epoch() == s1.Epoch() {
		t.Error("AddTable did not advance epoch")
	}
	if s2.Table("u") == nil {
		t.Error("new table missing from snapshot")
	}
}

func TestAppendValidation(t *testing.T) {
	d := snapTestDB(t)
	if err := d.Append("nope", []any{"x"}); err == nil {
		t.Error("append to unknown table should fail")
	}
	if err := d.Append("t", []any{"only-one"}); err == nil {
		t.Error("short row should fail")
	}
	if err := d.Append("t", []any{"ok", "notanumber"}); err == nil {
		t.Error("non-numeric string into float column should fail")
	}
	if err := d.Append("t", []any{"ok", "1,234"}); err != nil {
		t.Errorf("numeric string should parse: %v", err)
	}
	if err := d.Append("t", []any{3, 7}); err != nil {
		t.Errorf("int into string column should format: %v", err)
	}
	snap, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	sv := snap.Table("t").Column("s")
	nv := snap.Table("t").Column("n")
	if sv.StringAt(4) != "3" || nv.Float(3) != 1234 {
		t.Errorf("converted cells = %q %v", sv.StringAt(4), nv.Float(3))
	}
}

func TestSnapshotViewConsistentAcrossAppend(t *testing.T) {
	d := snapTestDB(t)
	view, err := BuildSnapshotView(d.Snapshot(), []string{"t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append("t", []any{"zzz", 99.0}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if view.NumRows() != 3 {
		t.Fatalf("pre-append view rows = %d, want 3", view.NumRows())
	}
	acc, err := view.Accessor("t", "n")
	if err != nil {
		t.Fatal(err)
	}
	vals, direct := acc.FloatBlock(0, view.NumRows(), nil)
	if !direct || len(vals) != 3 {
		t.Fatalf("FloatBlock over old view: direct=%v len=%d", direct, len(vals))
	}
	// A fresh view over the new snapshot sees the appended row.
	view2, err := BuildSnapshotView(d.Snapshot(), []string{"t"})
	if err != nil {
		t.Fatal(err)
	}
	if view2.NumRows() != 4 {
		t.Fatalf("post-append view rows = %d, want 4", view2.NumRows())
	}
}

func TestCSVSourceOpenAndRefresh(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sales.csv")
	if err := os.WriteFile(path, []byte("region,amount\neast,10\nwest,20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewCSVSource("salesdb", path)
	d, err := src.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s1 := d.Snapshot()
	if s1.NumRows("sales") != 2 {
		t.Fatalf("rows = %d, want 2", s1.NumRows("sales"))
	}

	// Appending to the file and refreshing seals exactly the new rows.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("north,30\nsouth,40\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	appended, err := src.Refresh(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if appended != 2 {
		t.Fatalf("appended = %d, want 2", appended)
	}
	s2 := d.Snapshot()
	if s2.Version() != s1.Version()+1 || s2.NumRows("sales") != 4 {
		t.Fatalf("after refresh: version=%d rows=%d", s2.Version(), s2.NumRows("sales"))
	}
	blocks := s2.Table("sales").Blocks()
	if len(blocks) != 2 || blocks[1].Rows() != 2 {
		t.Fatalf("blocks = %v, want initial + one 2-row delta", blocks)
	}
	amount := s2.Table("sales").Column("amount")
	if amount.Kind != KindFloat || amount.Float(3) != 40 {
		t.Errorf("appended amount = %v (kind %v)", amount.Float(3), amount.Kind)
	}

	// Unchanged file: refresh is a no-op and publishes nothing.
	appended, err = src.Refresh(context.Background(), d)
	if err != nil || appended != 0 {
		t.Fatalf("no-op refresh = (%d, %v)", appended, err)
	}
	if d.Snapshot().Version() != s2.Version() {
		t.Error("no-op refresh bumped the version")
	}

	// A shrunken file cannot be expressed as an append.
	if err := os.WriteFile(path, []byte("region,amount\neast,10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Refresh(context.Background(), d); err == nil {
		t.Error("refresh over a shrunken file should fail")
	}
}

func TestCSVSourceRefreshIgnoresTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("region,amount\neast,10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewCSVSource("t", path)
	d, err := src.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A non-atomic writer flushed half a row: the fragment must not be
	// ingested (a later completed line would never raise the row count
	// again, making the torn row permanent).
	if err := os.WriteFile(path, []byte("region,amount\neast,10\nwest,"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := src.Refresh(context.Background(), d); err != nil || n != 0 {
		t.Fatalf("torn refresh = (%d, %v), want (0, nil)", n, err)
	}
	// The write completes; the whole line is appended on the next poll.
	if err := os.WriteFile(path, []byte("region,amount\neast,10\nwest,20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := src.Refresh(context.Background(), d)
	if err != nil || n != 1 {
		t.Fatalf("completed refresh = (%d, %v), want (1, nil)", n, err)
	}
	s := d.Snapshot()
	if got := s.Table("t").Column("amount").Float(1); got != 20 {
		t.Errorf("completed row amount = %v, want 20", got)
	}
}

func TestCSVDirSource(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.csv"), []byte("x\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.csv"), []byte("y\nq\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := NewCSVDirSource("dirdb", dir).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Table("a") == nil || d.Table("b") == nil {
		t.Fatalf("tables = %v", d.Tables())
	}
}

func TestJSONLSourceOpenAndRefresh(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	data := `{"kind":"click","count":3}
{"kind":"view","count":7,"extra":true}
`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewJSONLSource("events", path)
	d, err := src.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tbl := d.Snapshot().Table("events")
	if tbl == nil || tbl.NumRows() != 2 {
		t.Fatalf("events table missing or wrong rows: %+v", tbl)
	}
	if c := tbl.Column("count"); c == nil || c.Kind != KindFloat || c.Float(1) != 7 {
		t.Fatalf("count column wrong: %+v", c)
	}
	if c := tbl.Column("extra"); c == nil || c.Kind != KindString || !c.IsNull(0) || c.StringAt(1) != "true" {
		t.Fatalf("extra column wrong: %+v", c)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"click","count":null}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	appended, err := src.Refresh(context.Background(), d)
	if err != nil || appended != 1 {
		t.Fatalf("jsonl refresh = (%d, %v)", appended, err)
	}
	s := d.Snapshot()
	if s.NumRows("events") != 3 || !s.Table("events").Column("count").IsNull(2) {
		t.Fatalf("appended jsonl row wrong: rows=%d", s.NumRows("events"))
	}
}

func TestJSONLSourceIgnoresTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	if err := os.WriteFile(path, []byte(`{"a":1,"b":"x"}`+"\n"+`{"a":2,"b":"y"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewJSONLSource("t", path)
	d, err := src.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	appendFile := func(s string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
	}
	// One whole line and half of the next: the whole one is appended, the
	// fragment waits for its newline.
	appendFile(`{"a":3,"b":"z"}` + "\n" + `{"a":4,`)
	if n, err := src.Refresh(context.Background(), d); err != nil || n != 1 {
		t.Fatalf("torn refresh = (%d, %v), want (1, nil)", n, err)
	}
	fresh, err := NewJSONLSource("t", path).Open(context.Background())
	if err != nil {
		t.Fatalf("open over a torn final line: %v", err)
	}
	if got := fresh.Snapshot().NumRows("t"); got != 3 {
		t.Errorf("fresh open rows = %d, want 3", got)
	}
	// The write completes; the whole line is appended on the next poll.
	appendFile(`"b":"w"}` + "\n")
	if n, err := src.Refresh(context.Background(), d); err != nil || n != 1 {
		t.Fatalf("completed refresh = (%d, %v), want (1, nil)", n, err)
	}
	s := d.Snapshot()
	if s.NumRows("t") != 4 || s.Table("t").Column("a").Float(3) != 4 || s.Table("t").Column("b").StringAt(3) != "w" {
		t.Errorf("completed row wrong: rows=%d", s.NumRows("t"))
	}
}

// An unterminated final line that is one whole object is a complete row,
// not a torn one: Open and Refresh load it.
func TestJSONLSourceKeepsWholeUnterminatedLine(t *testing.T) {
	dir := t.TempDir()
	one := filepath.Join(dir, "one.jsonl")
	if err := os.WriteFile(one, []byte(`{"a":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewJSONLSource("one", one)
	d, err := src.Open(context.Background())
	if err != nil {
		t.Fatalf("open one unterminated line: %v", err)
	}
	if got := d.Snapshot().NumRows("one"); got != 1 {
		t.Errorf("one-line rows = %d, want 1", got)
	}
	f, err := os.OpenFile(one, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString("\n" + `{"a":2}`)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := src.Refresh(context.Background(), d); err != nil || n != 1 {
		t.Fatalf("refresh after unterminated append = (%d, %v), want (1, nil)", n, err)
	}
	if got := d.Snapshot().Table("one").Column("a").Float(1); got != 2 {
		t.Errorf("appended row a = %v, want 2", got)
	}

	two := filepath.Join(dir, "two.jsonl")
	if err := os.WriteFile(two, []byte(`{"a":1}`+"\n"+`{"a":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := NewJSONLSource("two", two).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Snapshot().NumRows("two"); got != 2 {
		t.Errorf("unterminated two-line rows = %d, want 2", got)
	}
}

// appendTo appends s to the file at path.
func appendTo(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

// A CSV whose last record lacks a newline loads every row. Refresh then
// appends what follows that newline, and a write that extends the
// unterminated record instead is not an append. A malformed last record
// that no later write can mend fails Open rather than being held back.
func TestCSVSourceUnterminatedLastRecord(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	amounts := func(d *Database) []float64 {
		c := d.Snapshot().Table("t").Column("a")
		out := make([]float64, d.Snapshot().NumRows("t"))
		for i := range out {
			out[i] = c.Float(i)
		}
		return out
	}

	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("a\n1\n2"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewCSVSource("t", path)
	d, err := src.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := amounts(d); !slices.Equal(got, []float64{1, 2}) {
		t.Fatalf("open rows = %v, want [1 2]", got)
	}
	if n, err := src.Refresh(ctx, d); err != nil || n != 0 {
		t.Fatalf("unchanged refresh = (%d, %v), want (0, nil)", n, err)
	}
	appendTo(t, path, "\n3\n")
	if n, err := src.Refresh(ctx, d); err != nil || n != 1 {
		t.Fatalf("refresh after the newline = (%d, %v), want (1, nil)", n, err)
	}
	if got := amounts(d); !slices.Equal(got, []float64{1, 2, 3}) {
		t.Fatalf("refreshed rows = %v, want [1 2 3]", got)
	}

	path = filepath.Join(dir, "u.csv")
	if err := os.WriteFile(path, []byte("a\n1\n2"), 0o644); err != nil {
		t.Fatal(err)
	}
	src = NewCSVSource("t", path)
	if d, err = src.Open(ctx); err != nil {
		t.Fatal(err)
	}
	appendTo(t, path, "0\n")
	if _, err := src.Refresh(ctx, d); err == nil || !strings.Contains(err.Error(), "append-only") {
		t.Fatalf("refresh over an extended last record = %v, want the append-only error", err)
	}
	if d, err = NewCSVSource("t", path).Open(ctx); err != nil {
		t.Fatal(err)
	}
	if got := d.Snapshot().Table("u").Column("a"); got.Float(0) != 1 || got.Float(1) != 20 || got.Len() != 2 {
		t.Fatalf("fresh open after the extension: want [1 20]")
	}

	for _, tail := range []string{"2,y\"z\n", "2,y\"z", "2,\"y\"z\n", "2,\"y\"z"} {
		path = filepath.Join(dir, "bad.csv")
		if err := os.WriteFile(path, []byte("a,b\n1,x\n"+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewCSVSource("t", path).Open(ctx); err == nil || !strings.Contains(err.Error(), "quote") {
			t.Errorf("open with last record %q = %v, want a quote error", tail, err)
		}
	}
}

// Bytes a file source holds back are counted: a torn JSON object, a CSV
// line still without its newline at Refresh, and a CSV tail that does not
// decode yet.
func TestFileSourcePendingTailBytes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	jpath := filepath.Join(dir, "j.jsonl")
	if err := os.WriteFile(jpath, []byte(`{"a":1}`+"\n"+`{"a":`), 0o644); err != nil {
		t.Fatal(err)
	}
	jsrc := NewJSONLSource("j", jpath)
	d, err := jsrc.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := jsrc.PendingTailBytes(); got != 5 {
		t.Errorf("torn object pending = %d, want 5", got)
	}
	appendTo(t, jpath, "2}\n")
	if n, err := jsrc.Refresh(ctx, d); err != nil || n != 1 || jsrc.PendingTailBytes() != 0 {
		t.Errorf("completed object: refresh = (%d, %v), pending %d; want (1, nil), 0", n, err, jsrc.PendingTailBytes())
	}

	cpath := filepath.Join(dir, "c.csv")
	if err := os.WriteFile(cpath, []byte("a,b\n1,x\n2,\"y"), 0o644); err != nil {
		t.Fatal(err)
	}
	csrc := NewCSVSource("c", cpath)
	if d, err = csrc.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if got := csrc.PendingTailBytes(); got != 4 || d.Snapshot().NumRows("c") != 1 {
		t.Errorf("open quoted field: pending %d, rows %d; want 4, 1", got, d.Snapshot().NumRows("c"))
	}
	appendTo(t, cpath, "z\"\n3,w")
	if n, err := csrc.Refresh(ctx, d); err != nil || n != 1 {
		t.Fatalf("refresh = (%d, %v), want (1, nil)", n, err)
	}
	if got := csrc.PendingTailBytes(); got != 3 {
		t.Errorf("unterminated line at refresh: pending %d, want 3", got)
	}
	appendTo(t, cpath, "\n")
	if n, err := csrc.Refresh(ctx, d); err != nil || n != 1 || csrc.PendingTailBytes() != 0 {
		t.Errorf("terminated line: refresh = (%d, %v), pending %d; want (1, nil), 0", n, err, csrc.PendingTailBytes())
	}
}

func TestMemSourceRefreshCommitsStagedRows(t *testing.T) {
	d := snapTestDB(t)
	src := NewMemSource(d)
	got, err := src.Open(context.Background())
	if err != nil || got != d {
		t.Fatalf("mem open = (%v, %v)", got, err)
	}
	v1 := d.Snapshot().Version()
	if err := d.Append("t", []any{"m", 9.0}); err != nil {
		t.Fatal(err)
	}
	appended, err := src.Refresh(context.Background(), d)
	if err != nil || appended != 1 {
		t.Fatalf("mem refresh = (%d, %v)", appended, err)
	}
	if d.Snapshot().Version() != v1+1 {
		t.Error("mem refresh did not publish a new version")
	}
}

func TestLoadCSVOptionsEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		csv     string
		opts    CSVOptions
		col     string
		kind    Kind
		nulls   []int    // rows expected NULL
		vals    []string // expected StringAt per row (after nulls applied)
		numVals []float64
	}{
		{
			name: "quoted delimiter stays one field",
			csv:  "name,team\n\"Smith, John\",NYC\nPlain,LA\n",
			col:  "name", kind: KindString,
			vals: []string{"Smith, John", "Plain"},
		},
		{
			name: "quoted embedded newline",
			csv:  "note,v\n\"line one\nline two\",1\nplain,2\n",
			col:  "note", kind: KindString,
			vals: []string{"line one\nline two", "plain"},
		},
		{
			name: "NA tokens keep numeric columns numeric",
			csv:  "score\n10\nNA\nnull\n30\n",
			opts: CSVOptions{NullTokens: []string{"NA", "null"}},
			col:  "score", kind: KindFloat,
			nulls:   []int{1, 2},
			numVals: []float64{10, math.NaN(), math.NaN(), 30},
		},
		{
			name: "without NULL tokens the same column degrades to text",
			csv:  "score\n10\nNA\nnull\n30\n",
			col:  "score", kind: KindString,
			vals: []string{"10", "NA", "null", "30"},
		},
		{
			name: "late string flips numeric-looking column to text",
			csv:  "v\n1\n2\n3\n4\nfive\n",
			col:  "v", kind: KindString,
			vals: []string{"1", "2", "3", "4", "five"},
		},
		{
			name: "late numbers after NULL-token prefix stay numeric",
			csv:  "v\nNA\nNA\nNA\n7\n8\n",
			opts: CSVOptions{NullTokens: []string{"na"}},
			col:  "v", kind: KindFloat,
			nulls:   []int{0, 1, 2},
			numVals: []float64{math.NaN(), math.NaN(), math.NaN(), 7, 8},
		},
		{
			name: "custom delimiter",
			csv:  "a;b\n1;x\n2;y\n",
			opts: CSVOptions{Comma: ';'},
			col:  "a", kind: KindFloat,
			numVals: []float64{1, 2},
		},
		{
			name: "null token matching is case-insensitive",
			csv:  "v\nn/a\nN/A\n5\n",
			opts: CSVOptions{NullTokens: []string{"N/A"}},
			col:  "v", kind: KindFloat,
			nulls:   []int{0, 1},
			numVals: []float64{math.NaN(), math.NaN(), 5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := LoadCSVOptions(strings.NewReader(tc.csv), "t", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			c := tbl.Column(tc.col)
			if c == nil {
				t.Fatalf("column %q missing", tc.col)
			}
			if c.Kind != tc.kind {
				t.Fatalf("kind = %v, want %v", c.Kind, tc.kind)
			}
			for _, r := range tc.nulls {
				if !c.IsNull(r) {
					t.Errorf("row %d should be NULL", r)
				}
			}
			for r, want := range tc.vals {
				if got := c.StringAt(r); got != want {
					t.Errorf("row %d = %q, want %q", r, got, want)
				}
			}
			for r, want := range tc.numVals {
				got := c.Float(r)
				if math.IsNaN(want) != math.IsNaN(got) || (!math.IsNaN(want) && got != want) {
					t.Errorf("row %d = %v, want %v", r, got, want)
				}
			}
		})
	}
}
