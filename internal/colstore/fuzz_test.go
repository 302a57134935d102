package colstore_test

import (
	"os"
	"path/filepath"
	"testing"

	"aggchecker/internal/colstore"
	"aggchecker/internal/db"
)

// FuzzOpenManifest feeds arbitrary MANIFEST bytes to Open over the column
// files of a real three-version store. The manifest is read at every
// daemon start, so whatever it says — torn, garbled, or well-formed with
// absurd counts — Open must reject or fold it, and a state it accepts must
// restore without a panic. Open clips column files to the lengths it
// accepts, so every input runs on a fresh copy of the files.
func FuzzOpenManifest(f *testing.F) {
	src, _ := commitVersions(f)
	manifest, err := os.ReadFile(filepath.Join(src, "MANIFEST"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest)
	entries, err := os.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if e.Name() == "MANIFEST" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		files[e.Name()] = b
	}

	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		st, pdb, err := colstore.Open(dir)
		if err != nil {
			return
		}
		defer st.Close()
		if pdb == nil {
			return
		}
		if d, err := db.RestoreDatabase(pdb); err == nil {
			d.Snapshot()
		}
	})
}
