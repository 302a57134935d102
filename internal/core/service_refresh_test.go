package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
	"aggchecker/internal/document"
)

// writeCSV writes (or overwrites) a CSV fixture and returns its path.
func writeCSV(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestServiceStatusAndRefreshUnknown(t *testing.T) {
	svc := NewService()
	if _, err := svc.Status("ghost"); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("Status err = %v, want ErrUnknownDatabase", err)
	}
	if _, err := svc.Refresh(context.Background(), "ghost"); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("Refresh err = %v, want ErrUnknownDatabase", err)
	}
}

func TestServiceRefreshCSVSource(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "fines.csv", "player,amount\nAlice,100\nBob,200\n")
	svc := NewService(WithDefaultConfig(quickCfg()))
	if err := svc.RegisterSource("fines", db.NewCSVSource("fines", path)); err != nil {
		t.Fatal(err)
	}

	// Not resident yet: status says so and refresh is a cheap no-op (the
	// source opens fresh data on demand anyway).
	st, err := svc.Status("fines")
	if err != nil || st.Resident {
		t.Fatalf("pre-load status = %+v (%v), want not resident", st, err)
	}
	if st, err = svc.Refresh(context.Background(), "fines"); err != nil || st.Resident {
		t.Fatalf("pre-load refresh = %+v (%v), want not resident", st, err)
	}

	ctx := context.Background()
	ck, err := svc.Checker(ctx, "fines")
	if err != nil {
		t.Fatal(err)
	}
	st, err = svc.Status("fines")
	if err != nil || !st.Resident || st.Rows["fines"] != 2 || st.Version != 1 {
		t.Fatalf("resident status = %+v (%v)", st, err)
	}

	// Grow the file; refresh must append exactly the new rows, bump the
	// version, and rebuild the catalog so the new literal matches.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("Zed,300\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st, err = svc.Refresh(ctx, "fines")
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != 1 || st.Rows["fines"] != 3 || st.Version != 2 {
		t.Fatalf("refresh status = %+v", st)
	}

	// The swapped checker shares DB and engine with the old one, so cached
	// cubes delta-advance instead of rebuilding.
	ck2, err := svc.Checker(ctx, "fines")
	if err != nil {
		t.Fatal(err)
	}
	if ck2 == ck {
		t.Error("refresh with appends should swap in a rebuilt-catalog checker")
	}
	if ck2.DB != ck.DB || ck2.Engine != ck.Engine {
		t.Error("refreshed checker must keep the database head and engine")
	}

	// A verification against the refreshed database sees the appended row.
	doc := document.ParseText("There are 3 players.")
	rep, err := svc.Check(ctx, "fines", doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Claims()) == 0 {
		t.Fatal("no claims detected")
	}

	// A rewrite the append-only contract cannot express fails the refresh
	// AND evicts the checker, so the next request re-opens the file as it
	// now is instead of serving pre-rewrite data forever.
	writeCSV(t, dir, "fines.csv", "player,amount\nOnly,1\n")
	if _, err := svc.Refresh(ctx, "fines"); err == nil {
		t.Fatal("refresh over rewritten file should fail")
	}
	if res := svc.Resident(); len(res) != 0 {
		t.Fatalf("Resident() after failed refresh = %v, want empty (fall back to re-open)", res)
	}
	st, err = svc.Status("fines")
	if err != nil || st.Resident {
		t.Fatalf("status after failed refresh = %+v (%v)", st, err)
	}
	if _, err := svc.Checker(ctx, "fines"); err != nil {
		t.Fatal(err)
	}
	if st, err = svc.Status("fines"); err != nil || st.Rows["fines"] != 1 {
		t.Fatalf("re-opened status = %+v (%v), want the rewritten 1-row file", st, err)
	}
}

func TestServiceRefreshSingleflight(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "t.csv", "v\n1\n2\n")
	svc := NewService(WithDefaultConfig(quickCfg()))
	if err := svc.RegisterSource("t", db.NewCSVSource("t", path)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Checker(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	writeCSV(t, dir, "t.csv", "v\n1\n2\n3\n4\n")

	const callers = 8
	var wg sync.WaitGroup
	stats := make([]Status, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = svc.Refresh(ctx, "t")
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		// Every caller lands on a consistent post-refresh state; the file
		// grew by 2 rows exactly once.
		if stats[i].Rows["t"] != 4 {
			t.Fatalf("caller %d rows = %+v", i, stats[i])
		}
	}
	st, err := svc.Status("t")
	if err != nil || st.Version != 2 {
		t.Fatalf("post-refresh status = %+v (%v): concurrent refreshes must coalesce", st, err)
	}
}

func TestServiceRefreshOpaqueSourceEvicts(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	svc := NewService(WithDefaultConfig(quickCfg()))
	if err := svc.RegisterSource("nfl", db.SourceFunc(func(context.Context) (*db.Database, error) { return tc.DB, nil })); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Checker(ctx, "nfl"); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Refresh(ctx, "nfl")
	if err != nil {
		t.Fatal(err)
	}
	if st.Resident {
		t.Errorf("opaque refresh status = %+v, want evicted", st)
	}
	if res := svc.Resident(); len(res) != 0 {
		t.Errorf("Resident() after opaque refresh = %v, want empty", res)
	}
	// Still registered: next use rebuilds lazily.
	if _, err := svc.Checker(ctx, "nfl"); err != nil {
		t.Fatal(err)
	}
}
