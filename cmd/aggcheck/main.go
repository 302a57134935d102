// Command aggcheck verifies a text document against a relational data set,
// printing spell-checker-style markup for claims that disagree with the
// data.
//
// Usage:
//
//	aggcheck -data sales.csv[,stores.csv...] [-dict dictionary.txt] article.html
//	aggcheck -data sales.csv -audit articles/
//	aggcheck -demo
//
// Each CSV becomes one table (named after the file). The optional data
// dictionary maps column names to descriptions ("column: description" lines)
// and improves keyword matching. -demo runs the embedded NFL example from
// the paper. -audit checks every document in a directory as one corpus:
// documents are verified concurrently with cross-document shared-pass
// planning, so N documents about the same tables pay roughly one
// document's worth of scans.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aggchecker"
	"aggchecker/internal/corpus"
	"aggchecker/internal/sqlexec"
	"aggchecker/internal/sqlparse"
)

func main() {
	data := flag.String("data", "", "comma-separated CSV files forming the database")
	dict := flag.String("dict", "", "optional data dictionary file")
	color := flag.Bool("color", true, "ANSI color output")
	top := flag.Int("top", 3, "query translations to print per claim")
	demo := flag.Bool("demo", false, "run the embedded NFL example")
	markup := flag.Bool("markup", false, "print the article with inline verdict markup")
	scanWorkers := flag.Int("scan-workers", 0, "worker pool width for model phases, passes and scans (0 = GOMAXPROCS, 1 = single-threaded)")
	timeout := flag.Duration("timeout", 0, "abort the check after this long (0 = no limit)")
	query := flag.String("query", "", "evaluate one Simple Aggregate Query instead of checking a document")
	claimed := flag.Float64("claimed", 0, "with -query: the claimed value to verify (Definition 1 rounding)")
	audit := flag.String("audit", "", "audit a directory of documents as one corpus (with -data or -demo)")
	auditConc := flag.Int("audit-concurrency", 0, "documents checked concurrently in -audit mode (0 = default)")
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the in-flight check mid-EM instead of
	// leaving the process to be killed mid-scan.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The CLI is one-shot, so the process owns a single scheduler for its
	// lifetime; every engine the check builds shares it.
	sched := aggchecker.NewScheduler(*scanWorkers)
	defer sched.Close()
	cfg := aggchecker.DefaultConfig()
	cfg.Exec = append(cfg.Exec, aggchecker.ExecScheduler(sched))

	var checkOpts []aggchecker.CheckOption
	if *timeout > 0 {
		checkOpts = append(checkOpts, aggchecker.WithDeadline(*timeout))
	}

	if *demo {
		if *audit != "" {
			tc := corpus.MustLoad().Cases[0]
			runAudit(ctx, aggchecker.New(tc.DB, cfg), *audit, *auditConc, *top, *timeout, checkOpts)
			return
		}
		runDemo(ctx, cfg, *color, *top, *markup, *timeout, checkOpts)
		return
	}
	if *data == "" || (*query == "" && *audit == "" && flag.NArg() != 1) {
		fmt.Fprintln(os.Stderr, "usage: aggcheck -data file.csv[,file2.csv...] [-dict dict.txt] article.html")
		fmt.Fprintln(os.Stderr, "       aggcheck -data file.csv -audit articles/")
		fmt.Fprintln(os.Stderr, "       aggcheck -data file.csv -query \"SELECT Count(*) FROM t WHERE c = 'v'\" [-claimed 42]")
		os.Exit(2)
	}

	src := aggchecker.NewCSVSource("userdb", strings.Split(*data, ",")...)
	db, err := src.Open(ctx)
	if err != nil {
		fatal(err)
	}
	if n := src.PendingTailBytes(); n > 0 {
		fmt.Fprintf(os.Stderr, "aggcheck: left out %d bytes of -data that end inside an open quoted field\n", n)
	}
	if *query != "" {
		runQuery(ctx, db, sched, *query, *claimed, isFlagSet("claimed"))
		return
	}
	if *dict != "" {
		f, err := os.Open(*dict)
		if err != nil {
			fatal(err)
		}
		parsed, err := parseDict(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		db.ApplyDataDictionary(parsed)
	}
	if *audit != "" {
		runAudit(ctx, aggchecker.New(db, cfg), *audit, *auditConc, *top, *timeout, checkOpts)
		return
	}

	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	checker := aggchecker.New(db, cfg)
	var doc *aggchecker.Document
	if strings.Contains(string(raw), "<") {
		doc = aggchecker.ParseHTML(string(raw))
	} else {
		doc = aggchecker.ParseText(string(raw))
	}
	report, err := checker.Check(ctx, doc, checkOpts...)
	if err != nil {
		fatalCheck(err, *timeout)
	}
	printReport(report, *color, *top, *markup)
}

// fatalCheck explains cancellation errors in CLI terms.
func fatalCheck(err error, timeout time.Duration) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fatal(fmt.Errorf("check aborted: -timeout %s exceeded", timeout))
	case errors.Is(err, context.Canceled):
		fatal(errors.New("check aborted: interrupted"))
	default:
		fatal(err)
	}
}

// runQuery is the manual verification path (the "SQL + User" condition of
// the paper's study): parse, evaluate, and optionally compare against a
// claimed value under Definition 1 rounding.
func runQuery(ctx context.Context, database *aggchecker.Database, sched *aggchecker.Scheduler, input string, claimed float64, haveClaim bool) {
	q, err := sqlparse.Parse(input, database)
	if err != nil {
		fatal(err)
	}
	v, err := sqlexec.NewEngine(database, sqlexec.WithScheduler(sched)).EvaluateContext(ctx, q)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s = %.6g\n", q.SQL(database.Tables()[0].Name), v)
	if haveClaim {
		if aggchecker.MatchesClaim(v, claimed) {
			fmt.Printf("claimed %.6g: CORRECT (some rounding of %.6g yields it)\n", claimed, v)
		} else {
			fmt.Printf("claimed %.6g: WRONG (no admissible rounding of %.6g yields it)\n", claimed, v)
		}
	}
}

func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func runDemo(ctx context.Context, cfg aggchecker.Config, color bool, top int, markup bool, timeout time.Duration, opts []aggchecker.CheckOption) {
	tc := corpus.MustLoad().Cases[0]
	checker := aggchecker.New(tc.DB, cfg)
	report, err := checker.Check(ctx, aggchecker.ParseHTML(tc.HTML), opts...)
	if err != nil {
		fatalCheck(err, timeout)
	}
	printReport(report, color, top, markup)
}

func printReport(report *aggchecker.Report, color bool, top int, markup bool) {
	fmt.Print(report.RenderText(aggchecker.RenderOptions{Color: color, TopQueries: top}))
	if markup {
		fmt.Println("\n--- marked-up article ---")
		fmt.Print(report.Markup())
	}
}

func parseDict(f *os.File) (map[string]string, error) {
	out := map[string]string{}
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := f.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	for i, line := range strings.Split(sb.String(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, desc, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("dictionary line %d: missing ':'", i+1)
		}
		out[strings.TrimSpace(name)] = strings.TrimSpace(desc)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aggcheck:", err)
	os.Exit(1)
}
