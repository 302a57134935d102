package colstore_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aggchecker/internal/colstore"
)

// commitVersions builds a store with three published versions and returns
// them oldest-first along with the store dir.
func commitVersions(t testing.TB) (string, []uint64) {
	t.Helper()
	dir := t.TempDir()
	d := buildDB(t, 5000)
	st, _, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPersister(st); err != nil {
		t.Fatal(err)
	}
	versions := []uint64{d.Version()}
	for i := 0; i < 2; i++ {
		appendFactRows(t, d, 5000+i*1000, 1000)
		if _, err := d.Commit(); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, d.Version())
	}
	st.Close()
	return dir, versions
}

func reopenedVersion(t *testing.T, dir string) uint64 {
	t.Helper()
	st, pdb, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if pdb == nil {
		return 0
	}
	return pdb.Version
}

func TestRecoveryTornManifestTail(t *testing.T) {
	dir, versions := commitVersions(t)
	mpath := filepath.Join(dir, "MANIFEST")
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: drop its trailing newline and a few bytes, as
	// a crash mid-append would.
	cut := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	torn := raw[:cut+(len(raw)-cut)/2]
	if err := os.WriteFile(mpath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reopenedVersion(t, dir); got != versions[len(versions)-2] {
		t.Fatalf("reopened version = %d, want %d (previous durable)", got, versions[len(versions)-2])
	}
	// Recovery truncated the torn tail: the next open sees a clean stream
	// and lands on the same version.
	if got := reopenedVersion(t, dir); got != versions[len(versions)-2] {
		t.Fatalf("second reopen version = %d, want %d", got, versions[len(versions)-2])
	}
}

func TestRecoveryGarbageManifestTail(t *testing.T) {
	dir, versions := commitVersions(t)
	mpath := filepath.Join(dir, "MANIFEST")
	f, err := os.OpenFile(mpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{not json\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := reopenedVersion(t, dir); got != versions[len(versions)-1] {
		t.Fatalf("reopened version = %d, want %d", got, versions[len(versions)-1])
	}
}

func TestRecoveryTornDataFile(t *testing.T) {
	dir, versions := commitVersions(t)
	// Clip the fact table's float column (t1_c1.f64) below what the final
	// record requires: the fold must stop at the last record the file still
	// covers. (Normally impossible — data is fsynced before the manifest —
	// but recovery must still degrade safely, not serve garbage.)
	fpath := filepath.Join(dir, "t1_c1.f64")
	fi, err := os.Stat(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(fpath, fi.Size()-512*8); err != nil {
		t.Fatal(err)
	}
	got := reopenedVersion(t, dir)
	if got >= versions[len(versions)-1] {
		t.Fatalf("reopened version = %d, want < %d", got, versions[len(versions)-1])
	}
	if got != versions[len(versions)-2] {
		t.Fatalf("reopened version = %d, want %d", got, versions[len(versions)-2])
	}
}

func TestRecoveryEmptyManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, pdb, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if pdb != nil {
		t.Fatal("empty manifest must reopen as an empty store")
	}
}

func TestRecoveryFirstRecordTorn(t *testing.T) {
	dir, _ := commitVersions(t)
	mpath := filepath.Join(dir, "MANIFEST")
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear inside the very first record: nothing durable survives, so the
	// store reopens empty and a fresh bootstrap overwrites it.
	if err := os.WriteFile(mpath, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	st, pdb, err := colstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if pdb != nil {
		t.Fatal("store with no complete record must reopen empty")
	}
}

// TestOpenRejectsCorruptCounts corrupts the entry, byte and NULL counts a
// reset record states for a string column. Open must reject the record —
// the store reopens empty, as after a torn first record — rather than panic
// sizing the dictionary from a negative or absurd entry count.
func TestOpenRejectsCorruptCounts(t *testing.T) {
	for _, tc := range []struct {
		field string
		value float64
	}{
		{"dict", -1},
		{"dict", 1e14},
		{"dictb", -1},
		{"nulls", -1},
	} {
		t.Run(fmt.Sprintf("%s=%g", tc.field, tc.value), func(t *testing.T) {
			dir := t.TempDir()
			d := buildDB(t, 100)
			st, _, err := colstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.SetPersister(st); err != nil {
				t.Fatal(err)
			}
			st.Close()

			mpath := filepath.Join(dir, "MANIFEST")
			raw, err := os.ReadFile(mpath)
			if err != nil {
				t.Fatal(err)
			}
			var rec map[string]any
			if err := json.Unmarshal(bytes.TrimSpace(raw), &rec); err != nil {
				t.Fatalf("want one reset record: %v", err)
			}
			// tables[1] is fact; its column 0 is the string column cat.
			col := rec["tables"].([]any)[1].(map[string]any)["cols"].([]any)[0].(map[string]any)
			col[tc.field] = tc.value
			out, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(mpath, append(out, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}

			st, pdb, err := colstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if pdb != nil {
				t.Fatalf("corrupt record restored at version %d", pdb.Version)
			}
		})
	}
}
