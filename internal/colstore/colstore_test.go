package colstore_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"aggchecker/internal/colstore"
	"aggchecker/internal/db"
)

// buildDB returns a two-table database (fact + dimension, FK-joined) with
// a string column containing NULLs and repeats and an integral float
// column, committed once.
func buildDB(t testing.TB, rows int) *db.Database {
	t.Helper()
	d := db.NewDatabase("store_test")
	dim := db.MustNewTable("dim", db.NewStringColumn("name"))
	dim.PrimaryKey = "name"
	d.MustAddTable(dim)
	d.MustAddTable(db.MustNewTable("fact", db.NewStringColumn("cat"), db.NewFloatColumn("val")))
	d.MustAddForeignKey(db.ForeignKey{FromTable: "fact", FromColumn: "cat", ToTable: "dim", ToColumn: "name"})
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := d.Append("dim", []any{n}); err != nil {
			t.Fatal(err)
		}
	}
	appendFactRows(t, d, 0, rows)
	if _, err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	return d
}

func appendFactRows(t testing.TB, d *db.Database, from, n int) {
	t.Helper()
	cats := []string{"a", "b", "c", "d"}
	for i := from; i < from+n; i++ {
		var row []any
		if i%17 == 0 {
			row = []any{nil, nil}
		} else {
			row = []any{cats[i%len(cats)], float64(i % 250)}
		}
		if err := d.Append("fact", row); err != nil {
			t.Fatal(err)
		}
	}
}

// openRestore reopens the store at dir and rebuilds a live database from
// it, reattaching the store as its persister.
func openRestore(t *testing.T, dir string) (*db.Database, *colstore.Store) {
	t.Helper()
	st, pdb, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pdb == nil {
		st.Close()
		t.Fatal("reopened store is empty")
	}
	rd, err := db.RestoreDatabase(pdb)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	if err := rd.SetPersister(st); err != nil {
		st.Close()
		t.Fatal(err)
	}
	return rd, st
}

// assertSameSnapshot compares two snapshots bit-for-bit: versions, block
// layout, zone maps, dictionaries, and raw column data.
func assertSameSnapshot(t *testing.T, want, got *db.Snapshot) {
	t.Helper()
	if want.Version() != got.Version() || want.Epoch() != got.Epoch() {
		t.Fatalf("version/epoch = %d/%d, want %d/%d", got.Version(), got.Epoch(), want.Version(), want.Epoch())
	}
	if want.DatabaseName() != got.DatabaseName() {
		t.Fatalf("name = %q, want %q", got.DatabaseName(), want.DatabaseName())
	}
	wfks, gfks := want.ForeignKeys(), got.ForeignKeys()
	if len(wfks) != len(gfks) {
		t.Fatalf("fks = %d, want %d", len(gfks), len(wfks))
	}
	for i := range wfks {
		if wfks[i] != gfks[i] {
			t.Fatalf("fk %d = %+v, want %+v", i, gfks[i], wfks[i])
		}
	}
	wts, gts := want.Tables(), got.Tables()
	if len(wts) != len(gts) {
		t.Fatalf("tables = %d, want %d", len(gts), len(wts))
	}
	for ti, wt := range wts {
		gt := gts[ti]
		if wt.Name != gt.Name || wt.PrimaryKey != gt.PrimaryKey {
			t.Fatalf("table %d = %s/%s, want %s/%s", ti, gt.Name, gt.PrimaryKey, wt.Name, wt.PrimaryKey)
		}
		if wt.NumRows() != gt.NumRows() {
			t.Fatalf("table %s rows = %d, want %d", wt.Name, gt.NumRows(), wt.NumRows())
		}
		if wt.ZoneGranularity() != gt.ZoneGranularity() {
			t.Fatalf("table %s zone granularity = %d, want %d", wt.Name, gt.ZoneGranularity(), wt.ZoneGranularity())
		}
		wbs, gbs := wt.Blocks(), gt.Blocks()
		if len(wbs) != len(gbs) {
			t.Fatalf("table %s blocks = %d, want %d", wt.Name, len(gbs), len(wbs))
		}
		for i := range wbs {
			if wbs[i] != gbs[i] {
				t.Fatalf("table %s block %d = %+v, want %+v", wt.Name, i, gbs[i], wbs[i])
			}
		}
		wcs, gcs := wt.Columns(), gt.Columns()
		if len(wcs) != len(gcs) {
			t.Fatalf("table %s cols = %d, want %d", wt.Name, len(gcs), len(wcs))
		}
		for ci, wc := range wcs {
			gc := gcs[ci]
			if wc.Name != gc.Name || wc.Kind != gc.Kind || wc.Integral != gc.Integral {
				t.Fatalf("table %s col %d mismatch: %s/%v vs %s/%v", wt.Name, ci, gc.Name, gc.Kind, wc.Name, wc.Kind)
			}
			if wc.NullCount() != gc.NullCount() {
				t.Fatalf("col %s.%s nulls = %d, want %d", wt.Name, wc.Name, gc.NullCount(), wc.NullCount())
			}
			if wc.Kind == db.KindString {
				wd, gd := wc.Dictionary(), gc.Dictionary()
				if len(wd) != len(gd) {
					t.Fatalf("col %s.%s dict = %d, want %d", wt.Name, wc.Name, len(gd), len(wd))
				}
				for i := range wd {
					if wd[i] != gd[i] {
						t.Fatalf("col %s.%s dict[%d] = %q, want %q", wt.Name, wc.Name, i, gd[i], wd[i])
					}
				}
				wcodes, gcodes := wc.Codes(), gc.Codes()
				for i := range wcodes {
					if wcodes[i] != gcodes[i] {
						t.Fatalf("col %s.%s code[%d] = %d, want %d", wt.Name, wc.Name, i, gcodes[i], wcodes[i])
					}
				}
			} else {
				wf, gf := wc.Floats(), gc.Floats()
				for i := range wf {
					if math.Float64bits(wf[i]) != math.Float64bits(gf[i]) {
						t.Fatalf("col %s.%s float[%d] = %v, want %v", wt.Name, wc.Name, i, gf[i], wf[i])
					}
				}
			}
			wzs, gzs := wc.Zones(), gc.Zones()
			if len(wzs) != len(gzs) {
				t.Fatalf("col %s.%s zones = %d, want %d", wt.Name, wc.Name, len(gzs), len(wzs))
			}
			for i := range wzs {
				wz, gz := &wzs[i], &gzs[i]
				if wz.Start != gz.Start || wz.End != gz.End || wz.NullCount != gz.NullCount {
					t.Fatalf("col %s.%s zone %d layout mismatch", wt.Name, wc.Name, i)
				}
				if math.Float64bits(wz.Min) != math.Float64bits(gz.Min) || math.Float64bits(wz.Max) != math.Float64bits(gz.Max) {
					t.Fatalf("col %s.%s zone %d bounds = [%v,%v], want [%v,%v]", wt.Name, wc.Name, i, gz.Min, gz.Max, wz.Min, wz.Max)
				}
				wdom, whas := wz.Domain()
				gdom, ghas := gz.Domain()
				if whas != ghas || len(wdom) != len(gdom) {
					t.Fatalf("col %s.%s zone %d domain shape mismatch", wt.Name, wc.Name, i)
				}
				for j := range wdom {
					if wdom[j] != gdom[j] {
						t.Fatalf("col %s.%s zone %d domain word %d mismatch", wt.Name, wc.Name, i, j)
					}
				}
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := buildDB(t, 10000)
	st, pdb, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pdb != nil {
		t.Fatal("fresh store must reopen empty")
	}
	if err := d.SetPersister(st); err != nil {
		t.Fatal(err)
	}
	// Two more commits extend the store incrementally.
	appendFactRows(t, d, 10000, 5000)
	if _, err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	appendFactRows(t, d, 15000, 2500)
	if _, err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	want := d.Snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rd, st2 := openRestore(t, dir)
	defer st2.Close()
	assertSameSnapshot(t, want, rd.Snapshot())

	// The restored database keeps persisting: append, commit, reopen again.
	appendFactRows(t, rd, 17500, 1000)
	if _, err := rd.Commit(); err != nil {
		t.Fatal(err)
	}
	want2 := rd.Snapshot()
	st2.Close()

	rd2, st3 := openRestore(t, dir)
	defer st3.Close()
	assertSameSnapshot(t, want2, rd2.Snapshot())
}

func TestCompactionPersistsReseal(t *testing.T) {
	dir := t.TempDir()
	d := buildDB(t, 6000)
	st, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPersister(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		appendFactRows(t, d, 6000+i*3000, 3000)
		if _, err := d.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if d.MaxBlocks() < 5 {
		t.Fatalf("expected >= 5 sealed blocks, got %d", d.MaxBlocks())
	}
	if _, err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	want := d.Snapshot()
	if got := len(want.Table("fact").Blocks()); got != 1 {
		t.Fatalf("blocks after compact = %d, want 1", got)
	}
	stats := st.Stats()
	if stats.Resets < 2 { // initial bootstrap + compaction reseal
		t.Fatalf("resets = %d, want >= 2", stats.Resets)
	}
	st.Close()

	rd, st2 := openRestore(t, dir)
	defer st2.Close()
	assertSameSnapshot(t, want, rd.Snapshot())
}

func TestPublishIdempotent(t *testing.T) {
	dir := t.TempDir()
	d := buildDB(t, 1000)
	st, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := d.SetPersister(st); err != nil {
		t.Fatal(err)
	}
	before := st.Stats().ManifestBytes
	// Re-offering the already-persisted snapshot must not grow the store.
	if err := st.Publish(d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if after := st.Stats().ManifestBytes; after != before {
		t.Fatalf("idempotent publish grew manifest from %d to %d bytes", before, after)
	}
}

func TestDetachKeepsMappings(t *testing.T) {
	dir := t.TempDir()
	d := buildDB(t, 5000)
	st, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPersister(st); err != nil {
		t.Fatal(err)
	}
	st.Close()

	rd, st2 := openRestore(t, dir)
	snap := rd.Snapshot()
	if err := st2.Detach(); err != nil {
		t.Fatal(err)
	}
	// Snapshot readers still alias the mappings after Detach.
	sum := 0.0
	for _, v := range snap.Table("fact").Column("val").Floats() {
		if v == v {
			sum += v
		}
	}
	if sum <= 0 {
		t.Fatalf("sum over detached mapping = %v, want > 0", sum)
	}
	// But the store takes no further publications.
	appendFactRows(t, rd, 5000, 10)
	if _, err := rd.Commit(); err == nil {
		t.Fatal("commit after Detach must surface the persist error")
	}
	st2.Close()
}

func TestStoreStats(t *testing.T) {
	dir := t.TempDir()
	d := buildDB(t, 3000)
	st, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := d.SetPersister(st); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Tables != 2 || s.DataBytes <= 0 || s.ManifestBytes <= 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
	if s.Version != d.Version() {
		t.Fatalf("stats version = %d, want %d", s.Version, d.Version())
	}
	// fact: 3000 rows * (4 code bytes + 8 float bytes) plus dim and dicts.
	if s.DataBytes < 3000*12 {
		t.Fatalf("data bytes = %d, want >= %d", s.DataBytes, 3000*12)
	}
}

// TestStatsConcurrentWithPublish polls Stats — whose /proc/self/smaps walk
// runs outside the store lock, so a status poll cannot stall a refresh —
// beside a run of commits that publish through the same store.
func TestStatsConcurrentWithPublish(t *testing.T) {
	// A reopened store holds mappings for the walk to look up.
	dir, _ := commitVersions(t)
	rd, st := openRestore(t, dir)
	defer st.Close()
	rows := rd.Snapshot().Table("fact").NumRows()
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := st.Stats(); s.MappedBytes <= 0 {
				t.Errorf("stats lost the mappings: %+v", s)
				return
			}
		}
	}()
	defer func() { close(stop); <-polled }()
	for i := 0; i < 20; i++ {
		appendFactRows(t, rd, rows+100*i, 100)
		if _, err := rd.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.Version != rd.Version() {
		t.Fatalf("stats version = %d, want %d", s.Version, rd.Version())
	}
}

func TestOpenRejectsUnknownDir(t *testing.T) {
	// Opening a path whose parent is a file must fail, not panic.
	dir := t.TempDir()
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := colstore.Open(filepath.Join(file, "sub")); err == nil {
		t.Fatal("expected error opening store under a regular file")
	}
}

func TestManifestGrowsPerCommit(t *testing.T) {
	dir := t.TempDir()
	d := buildDB(t, 100)
	st, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := d.SetPersister(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		before := st.Stats()
		appendFactRows(t, d, 100+i*10, 10)
		if _, err := d.Commit(); err != nil {
			t.Fatal(err)
		}
		after := st.Stats()
		if after.Publishes != before.Publishes+1 {
			t.Fatalf("publishes = %d, want %d", after.Publishes, before.Publishes+1)
		}
		if after.ManifestBytes <= before.ManifestBytes {
			t.Fatal("commit did not append a manifest record")
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatal("manifest must end with a complete record line")
	}
}
