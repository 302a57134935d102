// Package aggchecker verifies natural-language text summaries of relational
// data sets, reproducing the AggChecker system of Jo et al., "Verifying Text
// Summaries of Relational Data Sets" (SIGMOD 2019).
//
// AggChecker works like a spell checker for numbers: given a database and a
// document, it detects numeric claims, translates each claim into a
// probability distribution over SQL aggregate queries (without any
// database-specific training), evaluates tens of thousands of candidate
// queries through merged, cached cube queries, and marks up the claims
// whose most likely translation disagrees with the data.
//
// Quickstart:
//
//	db, _ := aggchecker.NewCSVSource("nfl", "nflsuspensions.csv").Open(ctx)
//	checker := aggchecker.New(db, aggchecker.DefaultConfig())
//	report, err := checker.Check(ctx, aggchecker.ParseHTML(article))
//	if err != nil { ... } // ctx cancelled or deadline exceeded
//	fmt.Print(report.RenderText(aggchecker.RenderOptions{Color: true}))
//
// The API is context-first: Check honors cancellation end to end (EM
// iterations, claim batches, cube passes), Stream emits typed per-iteration
// events so callers can watch per-claim probabilities refine, and Service
// hosts many named databases with lazily built checkers behind singleflight
// and an LRU residency bound. Per-request tuning uses functional options
// (WithWorkers, WithDeadline, WithTopK) instead of Config
// mutation; engine settings (Config.Exec) are fixed when a checker is
// built. cmd/aggcheckd serves the same surface over HTTP.
//
// A check runs on one worker pool, a Scheduler: the EM loop's per-claim
// phases, a batch's cube passes and direct scans, and the zone-aligned
// morsels large ones split into, share it with every concurrent request
// under per-request fair queuing. Its width is the only parallelism
// setting. Engines use a process-wide
// GOMAXPROCS-wide pool unless NewService(WithScheduler(NewScheduler(n)))
// or, for one engine, Config.Exec's ExecScheduler installs another;
// ExecCubeCacheBudget is the other engine-construction knob.
//
// Storage is snapshot-versioned: databases are opened from pluggable
// Sources (CSV, JSONL, in-memory builders), rows appended between checks
// are sealed into immutable blocks by Database.Commit (or
// Service.Refresh), and the engine absorbs each new version by delta-
// scanning only the appended blocks into its cached cubes — readers
// mid-check keep the consistent snapshot they started with.
//
// The exported types are aliases into the implementation packages under
// internal/, so downstream code programs against one import path.
package aggchecker

import (
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/db"
	"aggchecker/internal/document"
	"aggchecker/internal/model"
	"aggchecker/internal/sqlexec"
)

// Database is an in-memory relational database (tables + PK-FK schema).
// It is the mutable head of a snapshot-versioned store: Append stages
// rows, Commit seals them into immutable blocks and publishes the next
// Snapshot, and readers mid-check keep a consistent view.
type Database = db.Database

// Table is one relational table with typed columns.
type Table = db.Table

// ForeignKey declares a PK-FK edge between two tables.
type ForeignKey = db.ForeignKey

// Source materializes a database on demand (pluggable openers: CSV files
// or directories, JSONL files, in-memory builders).
type Source = db.Source

// Refresher is implemented by sources that can refresh an open database
// incrementally, appending new rows as fresh blocks.
type Refresher = db.Refresher

// Snapshot is an immutable, monotonically versioned view of a Database.
type Snapshot = db.Snapshot

// Block is one sealed, immutable run of rows — the granularity of
// incremental cube maintenance.
type Block = db.Block

// CSVSource loads one table per CSV file and refreshes incrementally from
// grown files.
type CSVSource = db.CSVSource

// JSONLSource loads one table per JSON-lines file with the same
// incremental refresh contract as CSVSource.
type JSONLSource = db.JSONLSource

// MemSource wraps an already-built in-memory database; Refresh commits
// rows the owner staged with Database.Append.
type MemSource = db.MemSource

// CSVOptions tunes CSV parsing: configurable NULL tokens (e.g. "NA",
// "null") and field delimiter.
type CSVOptions = db.CSVOptions

// Status reports the storage state of a Service database: residency,
// snapshot version, and row counts.
type Status = core.Status

// Document is a parsed hierarchical text document with detected claims.
type Document = document.Document

// Claim is one check-worthy numeric mention.
type Claim = document.Claim

// Checker verifies documents against one database.
type Checker = core.Checker

// Config aggregates all pipeline tunables; see DefaultConfig.
type Config = core.Config

// Report is the verification outcome for one document.
type Report = core.Report

// RenderOptions controls Report rendering.
type RenderOptions = core.RenderOptions

// ClaimResult is the per-claim verdict with its ranked query translations.
type ClaimResult = model.ClaimResult

// RankedQuery is one entry of a claim's query distribution.
type RankedQuery = model.RankedQuery

// Query is a Simple Aggregate Query (Definition 2 of the paper).
type Query = sqlexec.Query

// Predicate is a unary equality predicate of a query's WHERE clause.
type Predicate = sqlexec.Predicate

// ColumnRef names a table column.
type ColumnRef = sqlexec.ColumnRef

// Service hosts many named databases behind one verification front end;
// checkers are built lazily (singleflight) and bounded by an LRU policy.
type Service = core.Service

// ServiceOption configures NewService.
type ServiceOption = core.ServiceOption

// RegisterOption configures one Service database registration.
type RegisterOption = core.RegisterOption

// CheckOption customizes one Check or Stream call without mutating the
// checker's shared Config.
type CheckOption = core.CheckOption

// AuditDoc is one corpus document submitted to Checker.Audit or
// Service.Audit.
type AuditDoc = core.AuditDoc

// DocReport is one document's outcome within a corpus audit.
type DocReport = core.DocReport

// AuditReport aggregates a corpus audit: per-document reports in input
// order, corpus totals, and the run's shared-pass and cache economics.
type AuditReport = core.AuditReport

// AuditOption customizes one Audit call (concurrency, progress streaming,
// per-document check options).
type AuditOption = core.AuditOption

// CacheStats is the cube cache's residency and cost-aware economics
// snapshot, reported in Status and AuditReport.
type CacheStats = core.CacheStats

// Scheduler is a worker pool shared by every model phase, batch, cube
// pass, direct scan and morsel submitted through it, with round-robin
// fairness across concurrent requests. Create with NewScheduler, install
// with WithScheduler (services) or ExecScheduler (Config.Exec), and Close
// when the process is done with it.
type Scheduler = sqlexec.Scheduler

// ExecOption configures engine construction (Config.Exec): scheduler
// attachment and cube-cache budget.
type ExecOption = sqlexec.ExecOption

// Event is one element of a verification stream; concrete types are
// EventIteration, EventClaimUpdate, and EventDone.
type Event = core.Event

// EventIteration announces a completed EM iteration.
type EventIteration = core.EventIteration

// EventClaimUpdate carries one claim's refined top-k ranking and confidence
// after an EM iteration.
type EventClaimUpdate = core.EventClaimUpdate

// EventDone terminates a stream with the final Report or the run's error.
type EventDone = core.EventDone

// Aggregation functions supported by the query model.
const (
	Count                  = sqlexec.Count
	CountDistinct          = sqlexec.CountDistinct
	Sum                    = sqlexec.Sum
	Avg                    = sqlexec.Avg
	Min                    = sqlexec.Min
	Max                    = sqlexec.Max
	Percentage             = sqlexec.Percentage
	ConditionalProbability = sqlexec.ConditionalProbability
)

// ErrUnknownDatabase is returned by Service methods naming an unregistered
// database.
var ErrUnknownDatabase = core.ErrUnknownDatabase

// New creates a Checker for the database, building the fragment catalog and
// keyword indexes.
func New(d *Database, cfg Config) *Checker { return core.NewChecker(d, cfg) }

// NewService creates an empty multi-database registry.
func NewService(opts ...ServiceOption) *Service { return core.NewService(opts...) }

// WithDefaultConfig sets the Config a Service uses for databases registered
// without their own.
func WithDefaultConfig(cfg Config) ServiceOption { return core.WithDefaultConfig(cfg) }

// WithMaxResident bounds how many built checkers a Service keeps in memory
// (LRU eviction; rebuilt lazily on next use).
func WithMaxResident(n int) ServiceOption { return core.WithMaxResident(n) }

// WithDatabaseConfig overrides the service default Config for one database.
func WithDatabaseConfig(cfg Config) RegisterOption { return core.WithDatabaseConfig(cfg) }

// WithWorkers caps, for one request, how many cube passes and direct scans
// of one claim batch run at once on the scheduler.
func WithWorkers(n int) CheckOption { return core.WithWorkers(n) }

// WithDeadline bounds one request's wall-clock time.
func WithDeadline(d time.Duration) CheckOption { return core.WithDeadline(d) }

// WithTopK sets how many ranked query translations are kept per claim for
// one request.
func WithTopK(k int) CheckOption { return core.WithTopK(k) }

// WithAuditConcurrency bounds how many documents one Audit call checks
// concurrently (default 8). More in-flight documents widen the shared-pass
// planning window.
func WithAuditConcurrency(n int) AuditOption { return core.WithAuditConcurrency(n) }

// WithAuditProgress installs a per-document completion callback, invoked
// serially in completion order as the audit proceeds.
func WithAuditProgress(fn func(index int, dr DocReport)) AuditOption {
	return core.WithAuditProgress(fn)
}

// WithAuditCheckOptions forwards per-document check options to every
// member check of one Audit call.
func WithAuditCheckOptions(opts ...CheckOption) AuditOption {
	return core.WithAuditCheckOptions(opts...)
}

// NewScheduler creates a worker pool with the given width (≤ 0 uses
// GOMAXPROCS). The submitting goroutine of each job always participates,
// so workers=1 spawns no helpers and runs a check — model phases, passes
// and scans — exactly single-threaded.
func NewScheduler(workers int) *Scheduler { return sqlexec.NewScheduler(workers) }

// WithScheduler installs one scheduler on every engine a Service builds —
// one worker pool per process, not per database.
func WithScheduler(s *Scheduler) ServiceOption { return core.WithScheduler(s) }

// ExecScheduler attaches a scheduler to one engine.
func ExecScheduler(s *Scheduler) ExecOption { return sqlexec.WithScheduler(s) }

// ExecCubeCacheBudget bounds the cube cache's resident bytes: once
// exceeded, the cost-aware policy evicts cheap-to-rebuild, rarely-hit
// entries first (score = build cost x (1+hits) / bytes, ascending).
// n ≤ 0 disables the bound.
func ExecCubeCacheBudget(n int64) ExecOption { return sqlexec.WithCubeCacheBudget(n) }

// DefaultConfig returns the paper's main configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewCSVSource returns a Source over an explicit CSV file list (one table
// per file).
func NewCSVSource(name string, files ...string) *CSVSource { return db.NewCSVSource(name, files...) }

// NewCSVDirSource returns a Source over every *.csv file in a directory.
func NewCSVDirSource(name, dir string) *CSVSource { return db.NewCSVDirSource(name, dir) }

// NewJSONLSource returns a Source over JSON-lines files (one table per
// file).
func NewJSONLSource(name string, files ...string) *JSONLSource {
	return db.NewJSONLSource(name, files...)
}

// NewMemSource returns a Source over an in-memory database.
func NewMemSource(d *Database) *MemSource { return db.NewMemSource(d) }

// NewDatabase creates an empty database: the in-memory builder path. A
// service can Refresh a built Database registered through NewMemSource;
// use Append/Commit rather than direct column mutation once checking has
// started.
func NewDatabase(name string) *Database { return db.NewDatabase(name) }

// ParseHTML parses HTML-lite markup into a Document and detects claims.
func ParseHTML(src string) *Document { return document.ParseHTML(src) }

// ParseText parses plain text with markdown-lite headings into a Document.
func ParseText(src string) *Document { return document.ParseText(src) }

// MatchesClaim reports whether a query result satisfies a claimed value
// under the paper's rounding semantics (Definition 1).
func MatchesClaim(result, claimed float64) bool { return model.Matches(result, claimed) }
