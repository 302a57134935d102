package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aggchecker/internal/db"
	"aggchecker/internal/document"
)

// deadSource always fails: a service that still answers after its source
// died proves the checker was restored from the block store alone.
type deadSource struct{}

func (deadSource) Open(context.Context) (*db.Database, error) {
	return nil, errors.New("source is gone")
}

const persistCSV = "player,team,amount\n" +
	"Alice,reds,100\nBob,reds,200\nCara,blues,300\nDrew,blues,400\n" +
	"Evan,reds,500\nFay,blues,600\nGus,reds,700\nHope,blues,800\n"

// reportsIdentical asserts two reports agree claim by claim, bit for bit:
// same verdicts, same posterior mass, same ranked translations with
// identical probabilities and evaluated results.
func reportsIdentical(t *testing.T, want, got *Report) {
	t.Helper()
	if len(want.Claims()) != len(got.Claims()) {
		t.Fatalf("claims = %d, want %d", len(got.Claims()), len(want.Claims()))
	}
	for i := range want.Claims() {
		w, g := want.Claims()[i], got.Claims()[i]
		if w.Erroneous != g.Erroneous {
			t.Errorf("claim %d: verdict %v, want %v", i, g.Erroneous, w.Erroneous)
		}
		if math.Float64bits(w.PCorrect) != math.Float64bits(g.PCorrect) {
			t.Errorf("claim %d: PCorrect %v, want %v (bit-for-bit)", i, g.PCorrect, w.PCorrect)
		}
		if len(w.Ranked) != len(g.Ranked) {
			t.Errorf("claim %d: ranked %d, want %d", i, len(g.Ranked), len(w.Ranked))
			continue
		}
		for j := range w.Ranked {
			wq, gq := w.Ranked[j], g.Ranked[j]
			if wq.Query.Key() != gq.Query.Key() {
				t.Errorf("claim %d rank %d: query %s, want %s", i, j, gq.Query.Key(), wq.Query.Key())
			}
			if math.Float64bits(wq.Prob) != math.Float64bits(gq.Prob) ||
				math.Float64bits(wq.Result) != math.Float64bits(gq.Result) ||
				wq.Matches != gq.Matches {
				t.Errorf("claim %d rank %d: (prob=%v result=%v match=%v), want (%v %v %v)",
					i, j, gq.Prob, gq.Result, gq.Matches, wq.Prob, wq.Result, wq.Matches)
			}
		}
	}
}

// TestServicePersistentRestart is the crash-recovery acceptance check at
// the service layer: a database checked under a DataDir leaves a durable
// store behind, and a brand-new service whose source has died entirely
// restores the checker from that store and serves a bit-for-bit identical
// report without touching the source.
func TestServicePersistentRestart(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "fines.csv", persistCSV)
	cfg := quickCfg()
	cfg.DataDir = filepath.Join(dir, "blocks")
	doc := document.ParseText("There are 8 players. The average fine is 450 dollars.")
	ctx := context.Background()

	svc1 := NewService(WithDefaultConfig(cfg))
	if err := svc1.RegisterSource("fines", db.NewCSVSource("fines", path)); err != nil {
		t.Fatal(err)
	}
	rep1, err := svc1.Check(ctx, "fines", doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Claims()) == 0 {
		t.Fatal("no claims detected")
	}
	st1, err := svc1.Status("fines")
	if err != nil {
		t.Fatal(err)
	}
	if st1.Store == nil {
		t.Fatal("resident status has no store section under DataDir")
	}
	if st1.Store.Version != st1.Version || st1.Store.DataBytes == 0 || st1.Store.ManifestBytes == 0 {
		t.Fatalf("store status = %+v, want durable version %d with data", st1.Store, st1.Version)
	}

	// "Restart": a fresh service over the same DataDir, source dead. The
	// checker must build purely from the store.
	svc2 := NewService(WithDefaultConfig(cfg))
	if err := svc2.RegisterSource("fines", deadSource{}); err != nil {
		t.Fatal(err)
	}
	st2, err := svc2.Status("fines")
	if err != nil || st2.Resident {
		t.Fatalf("pre-restore status = %+v (%v)", st2, err)
	}
	rep2, err := svc2.Check(ctx, "fines", doc)
	if err != nil {
		t.Fatalf("check after restart (dead source): %v", err)
	}
	reportsIdentical(t, rep1, rep2)
	st2, err = svc2.Status("fines")
	if err != nil || st2.Store == nil {
		t.Fatalf("post-restore status = %+v (%v)", st2, err)
	}
	if st2.Version != st1.Version || st2.Store.Version != st1.Store.Version {
		t.Fatalf("restored version %d/%d, want %d", st2.Version, st2.Store.Version, st1.Version)
	}
	if st2.TotalRows != st1.TotalRows {
		t.Fatalf("restored rows %d, want %d", st2.TotalRows, st1.TotalRows)
	}
}

// TestServicePersistentRefreshAndCompaction drives the full persistent
// lifecycle: refreshes append durable blocks, a refresh that leaves
// CompactAfter blocks kicks off a background reseal, and a dead-source
// restart restores the compacted state.
func TestServicePersistentRefreshAndCompaction(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "fines.csv", persistCSV)
	cfg := quickCfg()
	cfg.DataDir = filepath.Join(dir, "blocks")
	cfg.CompactAfter = 3
	ctx := context.Background()

	svc := NewService(WithDefaultConfig(cfg))
	if err := svc.RegisterSource("fines", db.NewCSVSource("fines", path)); err != nil {
		t.Fatal(err)
	}
	ck, err := svc.Checker(ctx, "fines")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Store() == nil {
		t.Fatal("checker under DataDir has no store")
	}
	resealed := make(chan error, 1)
	ck.compactDone = func(err error) { resealed <- err }
	blocksNow := func() int { return len(ck.DB.Snapshot().Tables()[0].Blocks()) }

	// The load is one sealed block and each refresh appends one more: the
	// second refresh leaves CompactAfter blocks and triggers the reseal, the
	// third lands on the resealed table and stays under the threshold.
	blocks, reseals := 1, 0
	for i := 0; i < 3; i++ {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(f, "New%d,reds,%d\n", i, 50+i); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := svc.Refresh(ctx, "fines"); err != nil {
			t.Fatal(err)
		}
		if blocks++; blocks < cfg.CompactAfter {
			continue
		}
		select {
		case err := <-resealed:
			if err != nil {
				t.Fatalf("background compaction after refresh %d: %v", i+1, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("refresh %d left %d blocks but no background compaction finished", i+1, blocks)
		}
		blocks, reseals = 1, reseals+1
	}
	if reseals == 0 {
		t.Fatal("no refresh reached the compaction threshold")
	}
	if got := blocksNow(); got != blocks || got >= cfg.CompactAfter {
		t.Fatalf("blocks = %d, want %d (under the threshold of %d)", got, blocks, cfg.CompactAfter)
	}
	st, err := svc.Status("fines")
	if err != nil || st.Store == nil {
		t.Fatalf("status = %+v (%v)", st, err)
	}
	if st.Store.Resets < 2 {
		t.Errorf("store resets = %d, want ≥ 2 (bootstrap + compaction reseal)", st.Store.Resets)
	}
	if st.TotalRows != 11 {
		t.Errorf("rows = %d, want 11", st.TotalRows)
	}

	// Restart over the compacted store with a dead source.
	svc2 := NewService(WithDefaultConfig(cfg))
	if err := svc2.RegisterSource("fines", deadSource{}); err != nil {
		t.Fatal(err)
	}
	ck2, err := svc2.Checker(ctx, "fines")
	if err != nil {
		t.Fatal(err)
	}
	snap := ck2.DB.Snapshot()
	if got := snap.Tables()[0].NumRows(); got != 11 {
		t.Fatalf("restored rows = %d, want 11", got)
	}
	if got := len(snap.Tables()[0].Blocks()); got != blocks {
		t.Fatalf("restored blocks = %d, want %d (compacted layout persists)", got, blocks)
	}
}

// TestServicePersistentRefreshRejectsExtendedTail: a store restored after
// a restart has no record of what the source consumed. If the file's
// unterminated last line was extended while the service was down, the
// stored last row no longer matches the file, and the first refresh fails
// as a rewrite instead of appending after a stale row. The failed refresh
// quarantines the stale store, so the next request bootstraps from the
// file as it now is and later refreshes append again.
func TestServicePersistentRefreshRejectsExtendedTail(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "fines.csv", strings.TrimSuffix(persistCSV, "0\n"))
	cfg := quickCfg()
	cfg.DataDir = filepath.Join(dir, "blocks")
	ctx := context.Background()

	svc1 := NewService(WithDefaultConfig(cfg))
	if err := svc1.RegisterSource("fines", db.NewCSVSource("fines", path)); err != nil {
		t.Fatal(err)
	}
	ck1, err := svc1.Checker(ctx, "fines")
	if err != nil {
		t.Fatal(err)
	}
	if got := ck1.DB.Snapshot().Table("fines").Column("amount").Float(7); got != 80 {
		t.Fatalf("stored last amount = %v, want 80", got)
	}

	// While no service runs, the writer finishes the last line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString("0\nIvy,reds,900\n")
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	svc2 := NewService(WithDefaultConfig(cfg))
	if err := svc2.RegisterSource("fines", db.NewCSVSource("fines", path)); err != nil {
		t.Fatal(err)
	}
	ck2, err := svc2.Checker(ctx, "fines")
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Store() == nil || ck2.DB.Snapshot().NumRows("fines") != 8 {
		t.Fatal("second service did not restore the stored 8 rows")
	}
	_, err = svc2.Refresh(ctx, "fines")
	if err == nil || !strings.Contains(err.Error(), "rewritten") {
		t.Fatalf("refresh after the tail was extended = %v, want a rewrite error", err)
	}
	if _, err := os.Stat(filepath.Join(cfg.DataDir, "fines.bad")); err != nil {
		t.Errorf("stale store was not quarantined: %v", err)
	}

	ck3, err := svc2.Checker(ctx, "fines")
	if err != nil {
		t.Fatal(err)
	}
	snap := ck3.DB.Snapshot()
	if ck3.Store() == nil || snap.NumRows("fines") != 9 {
		t.Fatalf("rebuilt checker: has store %v, %d rows; want a fresh store with 9 rows", ck3.Store() != nil, snap.NumRows("fines"))
	}
	if got := snap.Table("fines").Column("amount").Float(7); got != 800 {
		t.Fatalf("rebuilt last amount = %v, want the completed 800", got)
	}
	if got := snap.Table("fines").Column("player").StringAt(8); got != "Ivy" {
		t.Fatalf("rebuilt row 8 player = %q, want Ivy", got)
	}
	f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString("Jon,blues,1000\n")
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc2.Refresh(ctx, "fines")
	if err != nil || st.Appended != 1 || st.Rows["fines"] != 10 {
		t.Fatalf("refresh after the rebuild = %+v (%v), want 1 appended, 10 rows", st, err)
	}
}

// TestServicePersistentCorruptStoreFallsBack proves an unreadable store
// directory cannot block a database: it is moved aside to <dir>.bad and
// the source bootstraps a fresh store.
func TestServicePersistentCorruptStoreFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "fines.csv", persistCSV)
	cfg := quickCfg()
	cfg.DataDir = filepath.Join(dir, "blocks")
	storeDir := filepath.Join(cfg.DataDir, "fines")
	// A MANIFEST that is a directory defeats any recovery parse.
	if err := os.MkdirAll(filepath.Join(storeDir, "MANIFEST"), 0o755); err != nil {
		t.Fatal(err)
	}

	svc := NewService(WithDefaultConfig(cfg))
	if err := svc.RegisterSource("fines", db.NewCSVSource("fines", path)); err != nil {
		t.Fatal(err)
	}
	ck, err := svc.Checker(context.Background(), "fines")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Store() == nil {
		t.Fatal("fallback bootstrap did not attach a store")
	}
	if _, err := os.Stat(storeDir + ".bad"); err != nil {
		t.Errorf("corrupt store was not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "MANIFEST")); err != nil {
		t.Errorf("fresh store has no manifest: %v", err)
	}
}

// TestServiceEvictionDetachesStore: evicting a persistent checker releases
// the store's file handles (Detach) so a later rebuild can reopen the same
// directory, restoring — not re-parsing — the published state.
func TestServiceEvictionDetachesStore(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "fines.csv", persistCSV)
	cfg := quickCfg()
	cfg.DataDir = filepath.Join(dir, "blocks")
	ctx := context.Background()

	svc := NewService(WithDefaultConfig(cfg), WithMaxResident(1))
	if err := svc.RegisterSource("fines", db.NewCSVSource("fines", path)); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterSource("other", db.NewCSVSource("other", writeCSV(t, dir, "other.csv", "v\n1\n"))); err != nil {
		t.Fatal(err)
	}
	ck1, err := svc.Checker(ctx, "fines")
	if err != nil {
		t.Fatal(err)
	}
	v1 := ck1.DB.Snapshot().Version()
	// Loading "other" evicts "fines" (max resident 1) and detaches its store.
	if _, err := svc.Checker(ctx, "other"); err != nil {
		t.Fatal(err)
	}
	if res := svc.Resident(); len(res) != 1 || res[0] != "other" {
		t.Fatalf("Resident() = %v, want [other]", res)
	}
	// Rebuild "fines": the store directory reopens cleanly at the same
	// version even though the evicted checker still exists.
	ck2, err := svc.Checker(ctx, "fines")
	if err != nil {
		t.Fatal(err)
	}
	if ck2 == ck1 {
		t.Fatal("expected a rebuilt checker after eviction")
	}
	if got := ck2.DB.Snapshot().Version(); got != v1 {
		t.Fatalf("reopened version = %d, want %d", got, v1)
	}
}
