package core

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aggchecker/internal/corpus"
	"aggchecker/internal/sqlexec"
)

// reportFingerprint reduces a report to the claim-level values sharded
// execution must reproduce exactly: verdicts, posteriors, and every ranked
// candidate's query, probability, and evaluated result (bit patterns, so
// NaN slots compare too — the corpus data is integral, which makes float
// sums associative and the comparison exact).
type rankedPrint struct {
	key        string
	probBits   uint64
	resultBits uint64
	matches    bool
}

func fingerprint(t *testing.T, rep *Report) [][]rankedPrint {
	t.Helper()
	out := make([][]rankedPrint, 0, len(rep.Claims()))
	for _, cr := range rep.Claims() {
		var rs []rankedPrint
		for _, rq := range cr.Ranked {
			rs = append(rs, rankedPrint{
				key:        rq.Query.Key(),
				probBits:   math.Float64bits(rq.Prob),
				resultBits: math.Float64bits(rq.Result),
				matches:    rq.Matches,
			})
		}
		out = append(out, rs)
	}
	return out
}

func diffFingerprints(t *testing.T, label string, want, got [][]rankedPrint, wantRep, gotRep *Report) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: claim count %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if gotRep.Claims()[i].Erroneous != wantRep.Claims()[i].Erroneous {
			t.Errorf("%s: claim %d verdict differs", label, i)
		}
		if len(want[i]) != len(got[i]) {
			t.Errorf("%s: claim %d ranking length %d, want %d", label, i, len(got[i]), len(want[i]))
			continue
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Errorf("%s: claim %d rank %d: got %+v, want %+v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestShardedHTTPTransportMatchesUnsharded runs the sharded-vs-unsharded
// differential (TestExecutorCompositionDifferential covers the in-process
// transport) with the coordinator talking to its shards over the HTTP
// worker protocol: the partitions are registered as ordinary databases on a
// peer daemon (httptest) and placed by the consistent-hash ring.
func TestShardedHTTPTransportMatchesUnsharded(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	cfg := quickCfg()
	plain := NewChecker(tc.DB, cfg)
	want, err := plain.Check(context.Background(), tc.Doc)
	if err != nil {
		t.Fatal(err)
	}

	// Build the sharded checker twice over the same source: the first pass
	// only materializes the partitions so the peer can host them.
	scfg := cfg
	scfg.Shards = 3
	sharded := NewChecker(tc.DB, scfg)
	peer := NewService()
	for _, p := range sharded.Sharder().Partitions() {
		if err := peer.RegisterDatabase(p.Name, p); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(newShardPeerHandler(t, peer))
	defer srv.Close()

	rcfg := scfg
	rcfg.ShardEndpoints = []string{srv.URL}
	remote := NewChecker(tc.DB, rcfg)
	got, err := remote.Check(context.Background(), tc.Doc)
	if err != nil {
		t.Fatal(err)
	}
	diffFingerprints(t, "http", fingerprint(t, want), fingerprint(t, got), want, got)
	if got.Stats["shard_fanouts"] == 0 {
		t.Error("no fan-outs recorded over HTTP transport")
	}
}

// TestShardedRefreshAbsorbs pins the incremental path: appending to the
// source and refreshing routes the delta into the partitions and the next
// check sees the new rows identically to an unsharded checker.
func TestShardedRefreshAbsorbs(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	mkService := func(shards int) *Service {
		cfg := quickCfg()
		cfg.Shards = shards
		svc := NewService(WithDefaultConfig(cfg))
		if err := svc.RegisterDatabase("nfl", tc.DB); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	ctx := context.Background()

	svc := mkService(2)
	if _, err := svc.Check(ctx, "nfl", tc.Doc); err != nil {
		t.Fatal(err)
	}
	ck, err := svc.Checker(ctx, "nfl")
	if err != nil {
		t.Fatal(err)
	}
	sh := ck.Sharder()
	if sh == nil {
		t.Fatal("service default did not shard")
	}
	rowsBefore := 0
	for _, n := range sh.Rows() {
		rowsBefore += n
	}

	// Stage rows on the owner database; Refresh commits and absorbs.
	table := tc.DB.Tables()[0].Name
	cols := len(tc.DB.Tables()[0].Columns)
	row := make([]any, cols)
	row[0] = "Extra Player"
	for i := 1; i < cols; i++ {
		row[i] = nil
	}
	if err := tc.DB.Append(table, row); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Refresh(ctx, "nfl")
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != 1 {
		t.Fatalf("appended = %d, want 1", st.Appended)
	}
	if st.Shard == nil || st.Shard.Shards != 2 {
		t.Fatalf("refresh status missing shard state: %+v", st.Shard)
	}
	rowsAfter := 0
	for _, n := range st.Shard.Rows {
		rowsAfter += n
	}
	if rowsAfter != rowsBefore+1 {
		t.Fatalf("partition rows %d -> %d, want +1 (absorb did not run)", rowsBefore, rowsAfter)
	}

	// The post-refresh check over shards must equal a fresh unsharded
	// checker over the same (now larger) database.
	got, err := svc.Check(ctx, "nfl", tc.Doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewChecker(tc.DB, quickCfg()).Check(ctx, tc.Doc)
	if err != nil {
		t.Fatal(err)
	}
	diffFingerprints(t, "refresh", fingerprint(t, want), fingerprint(t, got), want, got)
}

// TestUnshardedConfigUntouched guards the default path: Shards 0/1 must
// not build shard machinery.
func TestUnshardedConfigUntouched(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	for _, k := range []int{0, 1} {
		cfg := quickCfg()
		cfg.Shards = k
		if ck := NewChecker(tc.DB, cfg); ck.Sharder() != nil {
			t.Fatalf("Shards=%d built a sharder", k)
		}
	}
	// Per-database override beats the service default.
	sharded := quickCfg()
	sharded.Shards = 4
	svc := NewService(WithDefaultConfig(sharded))
	if err := svc.RegisterDatabase("plain", tc.DB, WithDatabaseConfig(quickCfg())); err != nil {
		t.Fatal(err)
	}
	ck, err := svc.Checker(context.Background(), "plain")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Sharder() != nil {
		t.Fatal("an unsharded WithDatabaseConfig did not override the sharded default")
	}
}

// TestExecReachesEveryEngine pins that Config.Exec configures every engine
// a checker builds, since engine settings are fixed at construction: the
// front engine and each in-process partition engine.
func TestExecReachesEveryEngine(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	const budget = 12345
	cfg := quickCfg()
	cfg.Shards = 3
	cfg.Exec = []sqlexec.ExecOption{sqlexec.WithCubeCacheBudget(budget)}
	ck := NewChecker(tc.DB, cfg)
	if len(ck.partitions) != cfg.Shards {
		t.Fatalf("%d partition engines, want %d", len(ck.partitions), cfg.Shards)
	}
	for i, e := range append([]*sqlexec.Engine{ck.Engine}, ck.partitions...) {
		if got := e.CubeCacheBudget(); got != budget {
			t.Errorf("checker engine %d: budget %d, want %d", i, got, budget)
		}
		if !e.CachingEnabled() {
			t.Errorf("checker engine %d: caching off", i)
		}
	}
}

// TestShardedAuditReportsPartitionCache pins that a sharded checker's cache
// report reads the partition engines, which hold its cubes: after an audit
// on a Shards: 3 checker, AuditReport.Cache and Service.Status's Cache both
// count exactly the entries and bytes the partitions' CacheUsage reports,
// and AuditReport.CacheHitRate is the partitions' hit rate.
func TestShardedAuditReportsPartitionCache(t *testing.T) {
	sc, err := corpus.GenerateSharedCorpus("sports", 5, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Shards = 3
	svc := NewService(WithDefaultConfig(cfg))
	if err := svc.RegisterDatabase("sports", sc.DB); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Audit(context.Background(), "sports", auditDocsOf(sc))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := svc.Checker(context.Background(), "sports")
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.partitions) != 3 {
		t.Fatalf("%d partition engines, want 3", len(ck.partitions))
	}
	var entries int
	var bytes int64
	for _, e := range ck.partitions {
		n, b := e.CacheUsage()
		entries += n
		bytes += b
	}
	if front, _ := ck.Engine.CacheUsage(); front != 0 {
		t.Fatalf("front engine caches %d cubes; the partitions should hold them all", front)
	}
	if rep.Cache.Entries == 0 || rep.Cache.Entries != entries || rep.Cache.Bytes != bytes {
		t.Fatalf("audit cache = %d entries / %d bytes, partitions hold %d / %d",
			rep.Cache.Entries, rep.Cache.Bytes, entries, bytes)
	}
	if rep.Cache.Misses == 0 {
		t.Error("audit cache reports no misses although the partitions built cubes")
	}
	if rep.Cache.Hits == 0 || rep.CacheHitRate() != rep.Cache.HitRate {
		t.Errorf("audit hit rate = %.3f, partitions recorded %d hits and %d misses",
			rep.CacheHitRate(), rep.Cache.Hits, rep.Cache.Misses)
	}
	st, err := svc.Status("sports")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Entries != entries || st.Cache.Bytes != bytes {
		t.Fatalf("status cache = %d entries / %d bytes, partitions hold %d / %d",
			st.Cache.Entries, st.Cache.Bytes, entries, bytes)
	}
}

// newShardPeerHandler adapts a Service to the shard worker protocol the way
// httpapi's shard endpoints do; the in-package core test cannot import
// httpapi (cycle), so the routing is reimplemented here.
func newShardPeerHandler(t *testing.T, svc *Service) http.Handler {
	t.Helper()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/v1/shard/databases/")
		cut := strings.LastIndex(rest, "/")
		if cut < 0 {
			http.NotFound(w, r)
			return
		}
		name, kind := rest[:cut], rest[cut+1:]
		ck, err := svc.Checker(r.Context(), name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		var out any
		switch kind {
		case "cube":
			var req sqlexec.CubeRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			out, err = ck.Engine.CubePartialFor(r.Context(), req)
		case "scan":
			var req sqlexec.ScanRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			out, err = ck.Engine.ScanPartialContext(r.Context(), req.Query)
		default:
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(out); err != nil {
			t.Logf("peer encode: %v", err)
		}
	})
}
