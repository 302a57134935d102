// Command aggcheckd is the verification daemon: it hosts many named
// databases behind an HTTP API so documents can be checked (and watched
// converging, via streaming) without linking the library.
//
// Usage:
//
//	aggcheckd -demo -addr :8080
//	aggcheckd -db sales=sales.csv,stores.csv -db hr=people.csv
//
// Endpoints:
//
//	GET  /healthz
//	GET  /v1/databases
//	POST /v1/databases/{name}/check         body = document, returns JSON report
//	POST /v1/databases/{name}/check/stream  returns NDJSON of EM-iteration events
//
// Query parameters on the check endpoints: mode=cached|merged|naive,
// topk=N, workers=N, scan_workers=N, zone_maps=BOOL, timeout=DURATION.
// Scans execute on one shared morsel scheduler spanning every request
// (-scan-workers sizes it); scan_workers bounds how much of that pool a
// single request's scans may occupy. -demo registers the embedded
// reproduction corpus (the paper's NFL running example as "nfl" plus the
// generated articles), which doubles as the CI smoke target.
//
// -db databases are registered as refreshable CSV sources: POST
// /v1/databases/{name}/refresh appends rows that grew onto the backing
// files as fresh storage blocks (the engine delta-scans them into cached
// cubes), and -watch POLLINTERVAL polls the files' mtimes and triggers the
// same refresh automatically when they change.
//
// -data-dir DIR backs every hosted database with a persistent columnar
// block store under DIR/<name>: bootstrap loads, refreshes, and
// compactions are recorded durably (data fsynced before the manifest
// publishes it), and a restarted daemon restores the last published
// version straight from the store — bit-for-bit identical reports — with
// no source re-parse. -compact-after N reseals a database's blocks in the
// background once N accumulate, re-chunking zone maps adaptively.
//
// -shards K partitions every hosted database's fact tables into K shards
// (hash-placed by -shard-keys, round-robin otherwise) and answers candidate
// queries by scatter-gather over in-process shard workers; refreshes route
// appended rows into the partitions automatically. The daemon also serves
// the shard worker protocol (POST /v1/shard/databases/{name}/cube and
// /scan), so a coordinator on another machine can use this instance's
// databases as remote shards via consistent-hash placement.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
	"aggchecker/internal/httpapi"
	"aggchecker/internal/sqlexec"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	demo := flag.Bool("demo", false, "register the embedded reproduction corpus databases")
	mode := flag.String("mode", "cached", "default evaluation mode: cached, merged, or naive")
	workers := flag.Int("workers", 0, "default engine worker bound per request (0 = GOMAXPROCS)")
	scanWorkers := flag.Int("scan-workers", 0, "size of the shared scan scheduler pool spanning all requests (0 = GOMAXPROCS)")
	reqTimeout := flag.Duration("timeout", 2*time.Minute, "per-request verification timeout (0 = none)")
	maxConcurrent := flag.Int("max-concurrent", 16, "max simultaneous verification requests (0 = unlimited)")
	maxResident := flag.Int("max-resident", 8, "max resident database catalogs, LRU-evicted (0 = unlimited)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "graceful shutdown window after SIGINT/SIGTERM")
	watch := flag.Duration("watch", 0, "poll interval for -db CSV files; on mtime/size change the database is refreshed (0 = off)")
	shards := flag.Int("shards", 0, "partition each database's fact tables into K shards and evaluate by scatter-gather (0/1 = unsharded)")
	shardKeys := flag.String("shard-keys", "", "hash-placement columns for sharding: table=column[,table2=column2...] (unlisted tables are round-robin)")
	dataDir := flag.String("data-dir", "", "back each hosted database with a persistent columnar block store under DIR/<name>; on restart the last durably published version is restored without re-parsing sources")
	compactAfter := flag.Int("compact-after", 0, "reseal a persistent database's blocks in the background once it accumulates this many (0 = never compact)")
	var dbFlags multiFlag
	flag.Var(&dbFlags, "db", "register a database: name=file.csv[,file2.csv...] (repeatable)")
	flag.Parse()

	logger := log.New(os.Stderr, "aggcheckd: ", log.LstdFlags)

	evalMode, err := core.ParseEvalMode(*mode)
	if err != nil {
		logger.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mode = evalMode
	cfg.Workers = *workers
	cfg.DataDir = *dataDir
	cfg.CompactAfter = *compactAfter

	// One morsel scheduler for the whole process: every database's cube
	// passes and direct scans share this pool, so concurrent requests
	// contend fairly instead of oversubscribing private pools.
	sched := sqlexec.NewScheduler(*scanWorkers)
	defer sched.Close()

	keys, err := parseShardKeys(*shardKeys)
	if err != nil {
		logger.Fatal(err)
	}
	svc := core.NewService(
		core.WithDefaultConfig(cfg),
		core.WithMaxResident(*maxResident),
		core.WithScheduler(sched),
		core.WithShards(*shards),
		core.WithShardKeys(keys),
	)
	registered := 0
	watched := make(map[string][]string) // database name -> backing files
	for _, spec := range dbFlags {
		name, files, ok := strings.Cut(spec, "=")
		if !ok || name == "" || files == "" {
			logger.Fatalf("bad -db %q (want name=file.csv[,file2.csv...])", spec)
		}
		list := strings.Split(files, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		if err := svc.RegisterSource(name, db.NewCSVSource(name, list...)); err != nil {
			logger.Fatal(err)
		}
		watched[name] = list
		registered++
	}
	if *demo {
		n, err := registerDemo(svc)
		if err != nil {
			logger.Fatal(err)
		}
		registered += n
	}
	if registered == 0 {
		logger.Fatal("no databases registered (use -db or -demo)")
	}

	handler := httpapi.New(svc, httpapi.Options{
		RequestTimeout: *reqTimeout,
		MaxConcurrent:  *maxConcurrent,
		Log:            logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	server := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The listening line goes to stdout so scripts (make serve-smoke) can
	// discover the bound port when -addr ends in :0.
	fmt.Printf("aggcheckd: listening on %s (%d databases)\n", ln.Addr(), registered)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *watch > 0 && len(watched) > 0 {
		go watchSources(ctx, svc, logger, *watch, watched)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	select {
	case err := <-serveErr:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	logger.Printf("shutting down (grace %s)", *shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		logger.Printf("forced shutdown: %v", err)
		_ = server.Close()
		os.Exit(1)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatalf("serve: %v", err)
	}
	logger.Printf("bye")
}

// parseShardKeys parses "table=column[,table2=column2...]" into the
// shard-key mapping; empty input means round-robin everywhere.
func parseShardKeys(spec string) (map[string]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	keys := make(map[string]string)
	for _, pair := range strings.Split(spec, ",") {
		table, col, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || table == "" || col == "" {
			return nil, fmt.Errorf("bad -shard-keys entry %q (want table=column)", pair)
		}
		keys[table] = col
	}
	return keys, nil
}

// multiFlag collects repeated -db flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// watchSources polls the registered CSV files and triggers Service.Refresh
// for a database whenever any of its files changes mtime or size. Refresh
// is cheap when nothing is resident, and for resident databases it appends
// the new rows as fresh blocks the engine delta-scans on the next check.
func watchSources(ctx context.Context, svc *core.Service, logger *log.Logger, every time.Duration, watched map[string][]string) {
	type stamp struct {
		mtime time.Time
		size  int64
	}
	last := make(map[string]stamp)
	observe := func(file string) (stamp, bool) {
		fi, err := os.Stat(file)
		if err != nil {
			return stamp{}, false
		}
		return stamp{mtime: fi.ModTime(), size: fi.Size()}, true
	}
	for _, files := range watched {
		for _, f := range files {
			if st, ok := observe(f); ok {
				last[f] = st
			}
		}
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		for name, files := range watched {
			changed := false
			for _, f := range files {
				st, ok := observe(f)
				if !ok {
					continue
				}
				if prev, seen := last[f]; !seen || prev != st {
					last[f] = st
					changed = true
				}
			}
			if !changed {
				continue
			}
			st, err := svc.Refresh(ctx, name)
			switch {
			case err != nil:
				logger.Printf("watch: refresh %s: %v", name, err)
			case st.Appended > 0:
				logger.Printf("watch: refreshed %s: +%d rows, version %d", name, st.Appended, st.Version)
			default:
				logger.Printf("watch: %s changed (not resident or nothing appended)", name)
			}
		}
	}
}

// registerDemo registers every corpus case under its name, with the NFL
// running example (case 0) registered as "nfl" — one name per dataset, so
// no catalog is ever built twice for the same data. The corpus is built
// once here and each prebuilt database is registered as is.
func registerDemo(svc *core.Service) (int, error) {
	c, err := corpus.Load()
	if err != nil {
		return 0, err
	}
	n := 0
	for i, tc := range c.Cases {
		name := tc.Name
		if i == 0 {
			name = "nfl"
		}
		if err := svc.RegisterDatabase(name, tc.DB); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
