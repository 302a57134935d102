package sqlexec

import (
	"context"
	"math/rand"
	"testing"
)

// TestEpochRebuildOnCompaction covers the structural-epoch path: compacting
// the database reseals every table's blocks (and may re-chunk zone maps), so
// a cached cube cannot delta-advance across it. The next request must take
// exactly one counted full rebuild attributed to the epoch change, produce a
// cube bit-for-bit identical to a from-scratch build over the compacted
// snapshot, and subsequent commits must resume delta scanning as usual.
func TestEpochRebuildOnCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	sc := randomDiffSchema(rng, 600, false, true)
	e := NewEngine(sc.d)
	dims := []DimSpec{{Col: ColumnRef{Table: "f", Column: "s1"}, Literals: []string{"p", "q"}}}
	reqs := []AggRequest{
		{Fn: Count, Col: ColumnRef{}},
		{Fn: Sum, Col: ColumnRef{Table: "f", Column: "n1"}},
		{Fn: CountDistinct, Col: ColumnRef{Table: "f", Column: "s2"}},
	}
	if _, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs); err != nil {
		t.Fatal(err)
	}

	// A few more sealed blocks so compaction actually merges something.
	for i := 0; i < 3; i++ {
		appendRandomRows(t, sc.d, rng, 40+20*i)
		if _, err := sc.d.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs); err != nil {
		t.Fatal(err)
	}

	if _, err := sc.d.Compact(); err != nil {
		t.Fatal(err)
	}

	before := e.Stats.Snapshot()
	got, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats.Snapshot()
	if n := s["full_rebuilds"] - before["full_rebuilds"]; n != 1 {
		t.Errorf("full rebuilds across compaction = %d, want 1", n)
	}
	if n := s["epoch_rebuilds"] - before["epoch_rebuilds"]; n != 1 {
		t.Errorf("epoch rebuilds across compaction = %d, want 1", n)
	}
	if n := s["delta_scans"] - before["delta_scans"]; n != 0 {
		t.Errorf("delta scans across compaction = %d, want 0 (resealed blocks cannot delta)", n)
	}
	fresh, err := NewEngine(sc.d).CubeForContext(context.Background(), []string{"f"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	requireCubesIdentical(t, oracleOf(fresh), got, "post-compaction rebuild")

	// Appends after compaction are ordinary delta advances again — no
	// further epoch rebuilds.
	appendRandomRows(t, sc.d, rng, 50)
	if _, err := sc.d.Commit(); err != nil {
		t.Fatal(err)
	}
	before = e.Stats.Snapshot()
	adv, err := e.CubeForContext(context.Background(), []string{"f"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	s = e.Stats.Snapshot()
	if n := s["delta_scans"] - before["delta_scans"]; n != 1 {
		t.Errorf("post-compaction delta scans = %d, want 1", n)
	}
	if n := s["epoch_rebuilds"] - before["epoch_rebuilds"]; n != 0 {
		t.Errorf("post-compaction epoch rebuilds = %d, want 0", n)
	}
	fresh2, err := NewEngine(sc.d).CubeForContext(context.Background(), []string{"f"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	requireCubesIdentical(t, oracleOf(fresh2), adv, "post-compaction delta advance")
}
