package shard_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aggchecker/internal/db"
	"aggchecker/internal/shard"
	"aggchecker/internal/sqlexec"
)

// This file holds the randomized sharding differential: K-shard merged cubes
// must be bit-for-bit identical to unsharded execution across random append
// schedules, NULL-heavy columns, CountDistinct, and joined scopes. Measure
// values are integral (small whole numbers), so float sums regroup exactly
// and exact bit comparison is sound; any divergence is a real merge bug, not
// summation-order noise.

var (
	diffRegions = []string{"north", "south", "east", "west"}
	diffTeams   = []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	diffTags    = []string{"a", "b", "c", "d", "e", "f"}
	diffDivs    = []string{"alpha", "beta", "gamma"}
)

// randDiffRows draws n random fact rows: region is ~30% NULL, team is a
// foreign key that is sometimes NULL and sometimes dangling (no dims row),
// score is an integral measure with ~25% NULLs, tag feeds CountDistinct.
func randDiffRows(rng *rand.Rand, n int) [][]any {
	rows := make([][]any, 0, n)
	for i := 0; i < n; i++ {
		row := make([]any, 4)
		if rng.Intn(10) >= 3 {
			row[0] = diffRegions[rng.Intn(len(diffRegions))]
		}
		switch r := rng.Intn(12); {
		case r < 9:
			row[1] = diffTeams[rng.Intn(len(diffTeams))]
		case r < 11:
			row[1] = "t9" // dangling: inner joins drop the row on both paths
		}
		if rng.Intn(4) > 0 {
			row[2] = float64(rng.Intn(21))
		}
		row[3] = diffTags[rng.Intn(len(diffTags))]
		rows = append(rows, row)
	}
	return rows
}

// newDiffDB builds the fact+dims schema (fact.team -> dims.team) with no
// rows; the test appends random batches between absorb rounds.
func newDiffDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.NewDatabase("diff")
	d.MustAddTable(db.MustNewTable("fact",
		db.NewStringColumn("region"),
		db.NewStringColumn("team"),
		db.NewFloatColumn("score"),
		db.NewStringColumn("tag")))
	dk := db.NewStringColumn("team")
	dv := db.NewStringColumn("div")
	for i, team := range diffTeams {
		dk.AppendString(team)
		dv.AppendString(diffDivs[i%len(diffDivs)])
	}
	dims := db.MustNewTable("dims", dk, dv)
	dims.PrimaryKey = "team"
	d.MustAddTable(dims)
	d.MustAddForeignKey(db.ForeignKey{FromTable: "fact", FromColumn: "team", ToTable: "dims", ToColumn: "team"})
	return d
}

// diffRequests covers the cube shapes the merge algebra has to get right:
// single-table slices over a NULL-heavy dimension with Sum/Min/Max and
// CountDistinct, and a joined scope grouped by a replicated-dimension column.
func diffRequests() []sqlexec.CubeRequest {
	region := sqlexec.ColumnRef{Table: "fact", Column: "region"}
	score := sqlexec.ColumnRef{Table: "fact", Column: "score"}
	tag := sqlexec.ColumnRef{Table: "fact", Column: "tag"}
	div := sqlexec.ColumnRef{Table: "dims", Column: "div"}
	aggs := []sqlexec.AggRequest{
		{Fn: sqlexec.Count},
		{Fn: sqlexec.Sum, Col: score},
		{Fn: sqlexec.Min, Col: score},
		{Fn: sqlexec.Max, Col: score},
		{Fn: sqlexec.CountDistinct, Col: tag},
	}
	return []sqlexec.CubeRequest{
		{
			Tables: []string{"fact"},
			Dims: []sqlexec.DimSpec{
				{Col: region, Literals: diffRegions},
				{Col: tag, Literals: diffTags[:3]},
			},
			Reqs: aggs,
		},
		{
			Tables: []string{"fact", "dims"},
			Dims: []sqlexec.DimSpec{
				{Col: div, Literals: diffDivs},
				{Col: region, Literals: diffRegions[:2]},
			},
			Reqs: aggs,
		},
	}
}

// diffProbes expands one cube request into the point queries used for the
// bit-for-bit comparison: rolled-up, every single-literal slice, and the
// full two-dimensional grid, each under every requested aggregate.
func diffProbes(req sqlexec.CubeRequest) []sqlexec.Query {
	var predSets [][]sqlexec.Predicate
	predSets = append(predSets, nil)
	for _, d := range req.Dims {
		for _, lit := range d.Literals {
			predSets = append(predSets, []sqlexec.Predicate{{Col: d.Col, Value: lit}})
		}
	}
	for _, l0 := range req.Dims[0].Literals {
		for _, l1 := range req.Dims[1].Literals {
			predSets = append(predSets, []sqlexec.Predicate{
				{Col: req.Dims[0].Col, Value: l0},
				{Col: req.Dims[1].Col, Value: l1},
			})
		}
	}
	var qs []sqlexec.Query
	for _, preds := range predSets {
		for _, ar := range req.Reqs {
			qs = append(qs, sqlexec.Query{Agg: ar.Fn, AggCol: ar.Col, Preds: preds})
		}
	}
	return qs
}

// sameBits requires bit-identical floats, treating every NaN encoding as
// equal (unanswerable Min/Max over all-NULL slices yield NaN on both paths).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// diffCoordinator builds a fresh coordinator over the sharder's current
// partition snapshots, one single-threaded in-process worker per shard,
// fronted by an engine over the source database.
func diffCoordinator(src *db.Database, s *db.Sharder) *shard.Coordinator {
	workers := make([]shard.Worker, 0, s.NumShards())
	for _, p := range s.Partitions() {
		workers = append(workers, &shard.LocalWorker{Engine: sqlexec.NewEngine(p)})
	}
	return shard.NewCoordinator(workers, sqlexec.NewEngine(src))
}

func TestRandomizedShardDifferential(t *testing.T) {
	cases := []struct {
		seed   int64
		shards int
		hashed bool // hash-placement on fact.team vs round-robin
	}{
		{seed: 1, shards: 2, hashed: true},
		{seed: 7, shards: 3, hashed: false},
		{seed: 42, shards: 5, hashed: true},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("seed=%d/k=%d/hashed=%v", tc.seed, tc.shards, tc.hashed)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			src := newDiffDB(t)
			if err := src.Append("fact", randDiffRows(rng, 400+rng.Intn(400))...); err != nil {
				t.Fatal(err)
			}
			if _, err := src.Commit(); err != nil {
				t.Fatal(err)
			}
			opts := db.ShardOptions{}
			if tc.hashed {
				opts.Keys = map[string]string{"fact": "team"}
			}
			s, err := db.NewSharder(src, tc.shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Round 0 compares the initial load; each later round appends a
			// random batch (occasionally empty, so absorb-of-nothing is
			// exercised too), commits, and absorbs before re-comparing.
			for round := 0; round < 3; round++ {
				if round > 0 {
					batch := randDiffRows(rng, rng.Intn(300))
					if len(batch) > 0 {
						if err := src.Append("fact", batch...); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := src.Commit(); err != nil {
						t.Fatal(err)
					}
					if _, err := s.Absorb(); err != nil {
						t.Fatal(err)
					}
				}
				compareDiffRound(t, round, src, s)
			}
		})
	}
}

func compareDiffRound(t *testing.T, round int, src *db.Database, s *db.Sharder) {
	t.Helper()
	ctx := context.Background()
	coord := diffCoordinator(src, s)
	ref := sqlexec.NewEngine(src)
	for ri, req := range diffRequests() {
		merged, err := coord.Cube(ctx, req)
		if err != nil {
			t.Fatalf("round %d req %d: sharded cube: %v", round, ri, err)
		}
		want, err := ref.CubeForContext(ctx, req.Tables, req.Dims, req.Reqs)
		if err != nil {
			t.Fatalf("round %d req %d: unsharded cube: %v", round, ri, err)
		}
		for _, q := range diffProbes(req) {
			wv, wok := want.Value(q)
			gv, gok := merged.Value(q)
			if wok != gok {
				t.Fatalf("round %d req %d %v: answerable sharded=%v unsharded=%v", round, ri, q, gok, wok)
			}
			if !wok {
				continue
			}
			if !sameBits(wv, gv) {
				t.Fatalf("round %d req %d %v: sharded=%v (%#x) unsharded=%v (%#x)",
					round, ri, q, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
			}
		}
	}
}
