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
// Query parameters on the check endpoints: topk=N, workers=N,
// timeout=DURATION; others are ignored. The EM loop's per-claim phases,
// cube passes, direct scans and their morsels execute on one scheduler
// spanning every request; -scan-workers sizes it, and that width is the
// daemon's only parallelism setting (workers only caps one batch's passes
// in flight). -demo registers the embedded reproduction corpus (the
// paper's NFL running example as "nfl" plus the generated articles), which
// doubles as the CI smoke target.
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
	workers := flag.Int("workers", 0, "default cap on one claim batch's passes in flight on the pool (0 = pool width)")
	scanWorkers := flag.Int("scan-workers", 0, "width of the one worker pool every request's model phases, passes and scans share (0 = GOMAXPROCS)")
	reqTimeout := flag.Duration("timeout", 2*time.Minute, "per-request verification timeout (0 = none)")
	maxConcurrent := flag.Int("max-concurrent", 16, "max simultaneous verification requests (0 = unlimited)")
	maxResident := flag.Int("max-resident", 8, "max resident database catalogs, LRU-evicted (0 = unlimited)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "graceful shutdown window after SIGINT/SIGTERM")
	watch := flag.Duration("watch", 0, "poll interval for -db CSV files; on mtime/size change the database is refreshed (0 = off)")
	dataDir := flag.String("data-dir", "", "back each hosted database with a persistent columnar block store under DIR/<name>; on restart the last durably published version is restored without re-parsing sources")
	compactAfter := flag.Int("compact-after", 0, "reseal a persistent database's blocks in the background once it accumulates this many (0 = never compact)")
	var dbFlags multiFlag
	flag.Var(&dbFlags, "db", "register a database: name=file.csv[,file2.csv...] (repeatable)")
	flag.Parse()

	logger := log.New(os.Stderr, "aggcheckd: ", log.LstdFlags)

	cfg := core.DefaultConfig()
	cfg.Workers = *workers
	cfg.DataDir = *dataDir
	cfg.CompactAfter = *compactAfter

	// One scheduler for the whole process: every database's model phases,
	// batches, cube passes, direct scans and morsels share this pool, so
	// concurrent requests contend fairly instead of oversubscribing the
	// machine.
	sched := sqlexec.NewScheduler(*scanWorkers)
	defer sched.Close()

	svc := core.NewService(
		core.WithDefaultConfig(cfg),
		core.WithMaxResident(*maxResident),
		core.WithScheduler(sched),
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *watch > 0 && len(watched) > 0 {
		// The watcher stats its files before the daemon announces itself:
		// a file changed right after the listening line must differ from
		// the baseline, not become it.
		ready := make(chan struct{})
		go watchSources(ctx, svc, logger, *watch, watched, ready)
		<-ready
	}

	// The listening line goes to stdout so scripts (make serve-smoke) can
	// discover the bound port when -addr ends in :0.
	fmt.Printf("aggcheckd: listening on %s (%d databases)\n", ln.Addr(), registered)

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

// multiFlag collects repeated -db flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// watchSources polls the registered CSV files and triggers Service.Refresh
// for a database whenever any of its files changes mtime or size. Refresh
// is cheap when nothing is resident, and for resident databases it appends
// the new rows as fresh blocks the engine delta-scans on the next check.
// It closes ready once every file's baseline mtime and size are recorded.
func watchSources(ctx context.Context, svc *core.Service, logger *log.Logger, every time.Duration, watched map[string][]string, ready chan<- struct{}) {
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
	close(ready)
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
