package shard_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aggchecker/internal/db"
	"aggchecker/internal/shard"
	"aggchecker/internal/sqlexec"
)

// buildSource builds the canonical test fact table: a shard key with NULLs,
// an integer-valued measure with NULLs (so float sums regroup exactly), and
// a low-cardinality distinct column.
func buildSource(t *testing.T, rows int) *db.Database {
	t.Helper()
	cat := db.NewStringColumn("cat")
	val := db.NewFloatColumn("val")
	tag := db.NewStringColumn("tag")
	cats := []string{"red", "green", "blue"}
	for i := 0; i < rows; i++ {
		if i%7 == 3 {
			cat.AppendString("") // NULL shard key: round-robin fallback
		} else {
			cat.AppendString(cats[i%3])
		}
		if i%5 == 2 {
			val.AppendFloat(math.NaN())
		} else {
			val.AppendFloat(float64(i % 13))
		}
		tag.AppendString([]string{"x", "y", "z", "w"}[i%4])
	}
	d := db.NewDatabase("src")
	d.MustAddTable(db.MustNewTable("fact", cat, val, tag))
	return d
}

func testQueries() []sqlexec.Query {
	fcat := sqlexec.ColumnRef{Table: "fact", Column: "cat"}
	fval := sqlexec.ColumnRef{Table: "fact", Column: "val"}
	ftag := sqlexec.ColumnRef{Table: "fact", Column: "tag"}
	var qs []sqlexec.Query
	for _, lit := range []string{"red", "green", "blue"} {
		p := []sqlexec.Predicate{{Col: fcat, Value: lit}}
		qs = append(qs,
			sqlexec.Query{Agg: sqlexec.Count, Preds: p},
			sqlexec.Query{Agg: sqlexec.Sum, AggCol: fval, Preds: p},
			sqlexec.Query{Agg: sqlexec.Avg, AggCol: fval, Preds: p},
			sqlexec.Query{Agg: sqlexec.Min, AggCol: fval, Preds: p},
			sqlexec.Query{Agg: sqlexec.Max, AggCol: fval, Preds: p},
			sqlexec.Query{Agg: sqlexec.CountDistinct, AggCol: ftag, Preds: p},
			sqlexec.Query{Agg: sqlexec.Percentage, Preds: p},
			sqlexec.Query{Agg: sqlexec.ConditionalProbability, Preds: p},
		)
	}
	return append(qs,
		sqlexec.Query{Agg: sqlexec.Count},
		sqlexec.Query{Agg: sqlexec.CountDistinct, AggCol: ftag})
}

// shardedFixture carves the source into k hash partitions with in-process
// workers plus an unsharded reference engine over the same rows.
func shardedFixture(t *testing.T, rows, k int) (*shard.Coordinator, *sqlexec.Engine) {
	t.Helper()
	src := buildSource(t, rows)
	s, err := db.NewSharder(src, k, db.ShardOptions{Keys: map[string]string{"fact": "cat"}})
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]shard.Worker, 0, k)
	for _, p := range s.Partitions() {
		workers = append(workers, &shard.LocalWorker{Engine: sqlexec.NewEngine(p)})
	}
	front := sqlexec.NewEngine(src)
	return shard.NewCoordinator(workers, front), front
}

func TestCoordinatorCubeMatchesUnsharded(t *testing.T) {
	coord, front := shardedFixture(t, 3000, 4)
	ctx := context.Background()
	req := sqlexec.CubeRequest{
		Tables: []string{"fact"},
		Dims: []sqlexec.DimSpec{{
			Col:      sqlexec.ColumnRef{Table: "fact", Column: "cat"},
			Literals: []string{"red", "green", "blue"},
		}},
		Reqs: []sqlexec.AggRequest{
			{Fn: sqlexec.Count},
			{Fn: sqlexec.Sum, Col: sqlexec.ColumnRef{Table: "fact", Column: "val"}},
			{Fn: sqlexec.Min, Col: sqlexec.ColumnRef{Table: "fact", Column: "val"}},
			{Fn: sqlexec.Max, Col: sqlexec.ColumnRef{Table: "fact", Column: "val"}},
			{Fn: sqlexec.CountDistinct, Col: sqlexec.ColumnRef{Table: "fact", Column: "tag"}},
		},
	}
	merged, err := coord.Cube(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := front.CubeForContext(ctx, req.Tables, req.Dims, req.Reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range testQueries() {
		wv, wok := want.Value(q)
		gv, gok := merged.Value(q)
		if wok != gok {
			t.Fatalf("%s: coverage mismatch (unsharded %v, sharded %v)", q.Key(), wok, gok)
		}
		if wok && math.Float64bits(wv) != math.Float64bits(gv) {
			t.Errorf("%s: unsharded %v, sharded %v", q.Key(), wv, gv)
		}
	}
	snap := front.Stats.Snapshot()
	if snap["shard_fanouts"] != 1 || snap["shard_partials"] != 4 {
		t.Fatalf("fanouts=%d partials=%d, want 1 and 4", snap["shard_fanouts"], snap["shard_partials"])
	}
	if snap["shard_merge_ns"] <= 0 {
		t.Fatal("merge time not recorded")
	}
}

func TestCoordinatorEvaluateMatchesDirect(t *testing.T) {
	coord, front := shardedFixture(t, 2200, 3)
	ctx := context.Background()
	for _, q := range testQueries() {
		got, err := coord.Evaluate(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := front.EvaluateContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: unsharded %v, sharded %v", q.Key(), want, got)
		}
	}
}

func TestCoordinatorBatchMatchesEngineBatch(t *testing.T) {
	for _, naive := range []bool{false, true} {
		coord, front := shardedFixture(t, 1800, 4)
		qs := testQueries()
		qs = append(qs, qs[0]) // duplicate exercises dedup slots
		got := coord.EvaluateBatch(context.Background(), qs, sqlexec.BatchOptions{Naive: naive})
		want := front.EvaluateBatch(context.Background(), qs, sqlexec.BatchOptions{})
		for i := range qs {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("naive=%v %s: unsharded %v, sharded %v", naive, qs[i].Key(), want[i], got[i])
			}
		}
		if !naive {
			snap := coord.Stats().Snapshot()
			if snap["planned_cubes"] == 0 || snap["cube_answers"] == 0 {
				t.Fatalf("merged evaluator planned %d cubes, %d cube answers; want > 0",
					snap["planned_cubes"], snap["cube_answers"])
			}
		}
	}
}

// stubWorker lets cancellation tests control per-worker behaviour.
type stubWorker struct {
	err   error         // returned immediately when non-nil
	block chan struct{} // when non-nil, wait for ctx or this channel
}

func (w *stubWorker) Cube(ctx context.Context, _ sqlexec.CubeRequest) (*sqlexec.CubePartial, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.block != nil {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-w.block:
		}
	}
	return &sqlexec.CubePartial{Tables: []string{"fact"}}, nil
}

func (w *stubWorker) Scan(ctx context.Context, _ sqlexec.ScanRequest) (*sqlexec.ScanPartial, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.block != nil {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-w.block:
		}
	}
	return &sqlexec.ScanPartial{Main: &sqlexec.PartialAcc{}}, nil
}

// TestCoordinatorFirstErrorCancelsPeers pins the fan-out contract: one
// failing worker aborts the whole pass, the blocked peer is released by
// cancellation (no goroutine leak under -race), and the root-cause error —
// not the induced context.Canceled — comes back.
func TestCoordinatorFirstErrorCancelsPeers(t *testing.T) {
	boom := errors.New("shard 0 exploded")
	workers := []shard.Worker{
		&stubWorker{err: boom},
		&stubWorker{block: make(chan struct{})}, // released only by cancel
	}
	coord := shard.NewCoordinator(workers, sqlexec.NewEngine(db.NewDatabase("front")))
	done := make(chan error, 1)
	go func() {
		_, err := coord.Cube(context.Background(), sqlexec.CubeRequest{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the worker failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fan-out deadlocked: peer was not cancelled after first error")
	}
}

func TestCoordinatorHonorsCallerCancellation(t *testing.T) {
	workers := []shard.Worker{
		&stubWorker{block: make(chan struct{})},
		&stubWorker{block: make(chan struct{})},
	}
	coord := shard.NewCoordinator(workers, sqlexec.NewEngine(db.NewDatabase("front")))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.Evaluate(ctx, sqlexec.Query{Agg: sqlexec.Count})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fan-out did not honor caller cancellation")
	}
}

func TestRingPlacement(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := shard.NewRing(nodes)
	if got := r.Nodes(); len(got) != 3 {
		t.Fatalf("nodes = %v", got)
	}
	const shards = 64
	place := make([]string, shards)
	used := map[string]int{}
	for i := 0; i < shards; i++ {
		place[i] = r.NodeForShard(i)
		if place[i] == "" {
			t.Fatalf("shard %d unplaced", i)
		}
		used[place[i]]++
	}
	if len(used) != 3 {
		t.Fatalf("placement uses %d of 3 nodes: %v", len(used), used)
	}
	// Deterministic: a rebuilt ring places identically.
	r2 := shard.NewRing([]string{nodes[2], nodes[0], nodes[1], nodes[0]})
	for i := 0; i < shards; i++ {
		if r2.NodeForShard(i) != place[i] {
			t.Fatalf("shard %d placement not deterministic", i)
		}
	}
	// Consistency: dropping node c only re-homes shards that lived on c.
	r3 := shard.NewRing(nodes[:2])
	for i := 0; i < shards; i++ {
		if place[i] != nodes[2] && r3.NodeForShard(i) != place[i] {
			t.Fatalf("shard %d moved from surviving node %s on topology change", i, place[i])
		}
	}
	if shard.NewRing(nil).Node("x") != "" {
		t.Fatal("empty ring must return no node")
	}
}

// shardHandler serves the shard wire protocol over a LocalWorker the way
// aggcheckd does, so the Client can be tested without the full daemon.
func shardHandler(t *testing.T, w shard.Worker) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var out any
		var err error
		switch {
		case strings.HasSuffix(r.URL.Path, "/cube"):
			var req sqlexec.CubeRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			out, err = w.Cube(r.Context(), req)
		case strings.HasSuffix(r.URL.Path, "/scan"):
			var req sqlexec.ScanRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			out, err = w.Scan(r.Context(), req)
		default:
			http.NotFound(rw, r)
			return
		}
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(out)
	})
}

// TestClientTransportMatchesLocal runs the same fan-out through HTTP
// workers and checks answers bit-for-bit against the unsharded engine.
func TestClientTransportMatchesLocal(t *testing.T) {
	const rows, k = 1500, 3
	src := buildSource(t, rows)
	s, err := db.NewSharder(src, k, db.ShardOptions{Keys: map[string]string{"fact": "cat"}})
	if err != nil {
		t.Fatal(err)
	}
	var workers []shard.Worker
	for i, p := range s.Partitions() {
		srv := httptest.NewServer(shardHandler(t, &shard.LocalWorker{Engine: sqlexec.NewEngine(p)}))
		defer srv.Close()
		workers = append(workers, &shard.Client{Base: srv.URL, Database: p.Name})
		_ = i
	}
	front := sqlexec.NewEngine(src)
	coord := shard.NewCoordinator(workers, front)
	qs := testQueries()
	got := coord.EvaluateBatch(context.Background(), qs, sqlexec.BatchOptions{})
	want := front.EvaluateBatch(context.Background(), qs, sqlexec.BatchOptions{})
	for i := range qs {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: local %v, http %v", qs[i].Key(), want[i], got[i])
		}
	}
	if errBody := coord.Stats().Snapshot()["shard_fanouts"]; errBody == 0 {
		t.Fatal("no fan-outs recorded over HTTP transport")
	}
}

// TestClientReportsRemoteError pins the error surface: a failing peer maps
// to a descriptive error, not a decode panic.
func TestClientReportsRemoteError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "partition gone", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := &shard.Client{Base: srv.URL, Database: "x"}
	_, err := c.Cube(context.Background(), sqlexec.CubeRequest{})
	if err == nil || !strings.Contains(err.Error(), "partition gone") {
		t.Fatalf("err = %v, want remote message surfaced", err)
	}
}
