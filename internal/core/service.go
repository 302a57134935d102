package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"aggchecker/internal/colstore"
	"aggchecker/internal/db"
	"aggchecker/internal/document"
	"aggchecker/internal/sqlexec"
)

// ErrUnknownDatabase is returned (wrapped, with the name) when a Service
// request names a database that was never registered.
var ErrUnknownDatabase = errors.New("unknown database")

// Service hosts many named databases behind one verification front end —
// the multi-tenant face of the package. Databases are registered cheaply
// (a db.Source, no data loaded); the per-database Checker, whose fragment
// catalog and keyword indexes are the expensive per-dataset preprocessing
// of §4.2, is built lazily on first request. Concurrent first requests for
// the same database are coalesced onto a single build (singleflight), and
// the number of resident catalogs is bounded by an LRU policy so a service
// hosting hundreds of registered databases keeps only the hot ones in
// memory. All methods are safe for concurrent use.
type Service struct {
	defaultCfg  Config
	maxResident int
	// sched, when set, is the process-wide morsel scheduler every checker
	// engine of this service shares: one pool spans all databases and all
	// concurrent requests, instead of each engine sizing private pools.
	sched *sqlexec.Scheduler

	mu      sync.Mutex
	sources map[string]*source
	// lru orders resident sources, most recently used at the front.
	lru *list.List
}

// source is one registered database.
type source struct {
	name string
	src  db.Source
	cfg  *Config // per-database override; nil uses the service default
	// shardsSet applies a per-database shard topology on top of whichever
	// config (default or per-database) is in effect.
	shardsSet bool
	shards    int
	shardKeys map[string]string

	// building is the in-flight singleflight build, nil when idle.
	building *buildCall
	// refreshing is the in-flight singleflight refresh, nil when idle.
	refreshing *refreshCall
	// checker is non-nil while resident; elem is its lru position.
	checker *Checker
	elem    *list.Element
}

// buildCall coalesces concurrent lazy builds of one checker.
type buildCall struct {
	done    chan struct{}
	checker *Checker
	err     error
}

// refreshCall coalesces concurrent refreshes of one source.
type refreshCall struct {
	done chan struct{}
	st   Status
	err  error
}

// Status reports the storage state of one registered database.
type Status struct {
	// Name is the registered database name.
	Name string `json:"name"`
	// Resident reports whether the database's checker (catalog + engine)
	// is currently in memory. Non-resident databases load fresh from their
	// Source on the next request, so they never need an explicit refresh.
	Resident bool `json:"resident"`
	// Version is the database's current snapshot version (0 when not
	// resident).
	Version uint64 `json:"version"`
	// Rows maps table name to visible row count (nil when not resident).
	Rows map[string]int `json:"rows,omitempty"`
	// TotalRows sums Rows.
	TotalRows int `json:"total_rows"`
	// Appended is the number of rows the last Refresh sealed (only set on
	// Refresh results).
	Appended int `json:"appended,omitempty"`
	// Scan reports the resident checker's scan-pipeline counters (nil when
	// not resident), so watch-mode operators can see how effectively zone
	// maps prune re-checks per database.
	Scan *ScanStats `json:"scan,omitempty"`
	// Shard reports sharded-execution state (nil when the database runs
	// unsharded or is not resident).
	Shard *ShardStatus `json:"shard,omitempty"`
	// Store reports the persistent block store backing the database (nil
	// when memory-only or not resident).
	Store *StoreStatus `json:"store,omitempty"`
	// Cache reports the cube cache's residency and cost-aware economics
	// (nil when not resident). Populated in and outside audit mode alike.
	Cache *CacheStats `json:"cache,omitempty"`
}

// StoreStatus is the persistent-storage slice of a resident checker's
// state: the durable version lineage plus byte-level accounting of what is
// on disk, mapped, and actually paged in.
type StoreStatus struct {
	// Dir is the store's root directory.
	Dir string `json:"dir"`
	// Version and Epoch are the last durably published snapshot lineage.
	Version uint64 `json:"version"`
	Epoch   uint64 `json:"epoch"`
	// Publishes and Resets count delta and wholesale manifest records
	// written by this process (a reset covers bootstrap and compaction).
	Publishes int64 `json:"publishes"`
	Resets    int64 `json:"resets"`
	// DataBytes is the durable column + dictionary payload; ManifestBytes
	// the metadata journal.
	DataBytes     int64 `json:"data_bytes"`
	ManifestBytes int64 `json:"manifest_bytes"`
	// MappedBytes is how much column data is memory-mapped;
	// ResidentBytes how much of that has actually been paged in by reads
	// (-1 when the platform cannot tell). The gap is what zone pruning
	// never touched.
	MappedBytes   int64 `json:"mapped_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
}

// ShardStatus is the sharded-execution slice of a resident checker's state:
// the partition topology plus the coordinator counters accumulated over the
// checker's lifetime.
type ShardStatus struct {
	// Shards is the partition count K.
	Shards int `json:"shards"`
	// Rows holds each partition's visible row total, in shard order.
	Rows []int `json:"rows,omitempty"`
	// Fanouts counts scatter-gather passes (cube or scan); Partials the
	// per-shard partial results collected; Stragglers the workers whose
	// response lagged far behind a fan-out's median.
	Fanouts    int64 `json:"fanouts"`
	Partials   int64 `json:"partials"`
	Stragglers int64 `json:"stragglers"`
	// MergeNanos is the cumulative time spent folding partials.
	MergeNanos int64 `json:"merge_ns"`
}

// ScanStats is the zone-map/scan-pipeline slice of the engine counters,
// accumulated over the lifetime of the resident checker's cached-mode
// engine.
type ScanStats struct {
	// BlocksScanned and BlocksPruned count scan segments processed versus
	// skipped by zone maps (cube passes, delta scans, and vectorized
	// direct scans alike); PruneRate is pruned/(pruned+scanned).
	BlocksScanned int64   `json:"blocks_scanned"`
	BlocksPruned  int64   `json:"blocks_pruned"`
	PruneRate     float64 `json:"prune_rate"`
	// DirectVectorScans counts direct queries run through the vectorized
	// pipeline; SelvecReuses the segments that filtered through a reused
	// selection-vector buffer; DeltaScans the cached cubes advanced by
	// scanning only appended blocks.
	DirectVectorScans int64 `json:"direct_vector_scans"`
	SelvecReuses      int64 `json:"selvec_reuses"`
	DeltaScans        int64 `json:"delta_scans"`
	// MorselsDispatched counts morsels this engine's scans executed on the
	// shared scheduler; StealCount the subset run by shared-pool helpers
	// rather than the submitting goroutine; QueueWaits the submissions that
	// found every helper busy and queued fairly behind other requests. All
	// zero when the service runs without a scheduler.
	MorselsDispatched int64 `json:"morsels_dispatched"`
	QueueWaits        int64 `json:"queue_waits"`
	StealCount        int64 `json:"steal_count"`
}

func statusOf(name string, ck *Checker) Status {
	st := Status{Name: name}
	if ck == nil {
		return st
	}
	snap := ck.DB.Snapshot()
	st.Resident = true
	st.Version = snap.Version()
	st.Rows = make(map[string]int, len(snap.Tables()))
	for _, t := range snap.Tables() {
		st.Rows[t.Name] = t.NumRows()
		st.TotalRows += t.NumRows()
	}
	s := ck.Engine.Stats.Snapshot()
	scan := &ScanStats{
		BlocksScanned:     s["blocks_scanned"],
		BlocksPruned:      s["blocks_pruned"],
		DirectVectorScans: s["direct_vector_scans"],
		SelvecReuses:      s["selvec_reuses"],
		DeltaScans:        s["delta_scans"],
		MorselsDispatched: s["morsels_dispatched"],
		QueueWaits:        s["queue_waits"],
		StealCount:        s["steal_count"],
	}
	if tot := scan.BlocksScanned + scan.BlocksPruned; tot > 0 {
		scan.PruneRate = float64(scan.BlocksPruned) / float64(tot)
	}
	st.Scan = scan
	st.Cache = cacheStatsOf(ck.Engine)
	if sh := ck.Sharder(); sh != nil {
		st.Shard = &ShardStatus{
			Shards:     sh.NumShards(),
			Rows:       sh.Rows(),
			Fanouts:    s["shard_fanouts"],
			Partials:   s["shard_partials"],
			Stragglers: s["shard_stragglers"],
			MergeNanos: s["shard_merge_ns"],
		}
	}
	if store := ck.Store(); store != nil {
		ss := store.Stats()
		st.Store = &StoreStatus{
			Dir:           ss.Dir,
			Version:       ss.Version,
			Epoch:         ss.Epoch,
			Publishes:     ss.Publishes,
			Resets:        ss.Resets,
			DataBytes:     ss.DataBytes,
			ManifestBytes: ss.ManifestBytes,
			MappedBytes:   ss.MappedBytes,
			ResidentBytes: ss.ResidentBytes,
		}
	}
	return st
}

// ServiceOption configures a Service at construction.
type ServiceOption func(*Service)

// WithDefaultConfig sets the Config used for databases registered without
// their own config.
func WithDefaultConfig(cfg Config) ServiceOption {
	return func(s *Service) { s.defaultCfg = cfg }
}

// WithMaxResident bounds how many built checkers (fragment catalogs plus
// engine caches) stay in memory; the least recently used is evicted and
// rebuilt lazily on its next request. n ≤ 0 means unbounded.
func WithMaxResident(n int) ServiceOption {
	return func(s *Service) { s.maxResident = n }
}

// WithScheduler installs one shared morsel scheduler for every database the
// service hosts: cube passes and large direct scans of all concurrent
// requests decompose into zone-aligned morsels dispatched fairly from the
// scheduler's pool — one pool per process, not per database. The service
// does not own the scheduler; whoever created it calls Close after the
// service is done.
func WithScheduler(sched *sqlexec.Scheduler) ServiceOption {
	return func(s *Service) { s.sched = sched }
}

// WithShards sets the default shard count for every database the service
// hosts: k > 1 partitions each database's fact tables at checker build time
// and answers candidate queries by scatter-gather over per-shard workers.
// Results are identical to unsharded execution; k ≤ 1 runs unsharded.
func WithShards(k int) ServiceOption {
	return func(s *Service) { s.defaultCfg.Shards = k }
}

// WithShardKeys sets the default shard-key mapping (fact-table name →
// hash-placement column) used when sharding is enabled. Tables without an
// entry fall back to round-robin placement.
func WithShardKeys(keys map[string]string) ServiceOption {
	return func(s *Service) { s.defaultCfg.ShardKeys = keys }
}

// NewService creates an empty registry with the paper's default Config.
func NewService(opts ...ServiceOption) *Service {
	s := &Service{
		defaultCfg: DefaultConfig(),
		sources:    make(map[string]*source),
		lru:        list.New(),
	}
	for _, o := range opts {
		if o != nil {
			o(s)
		}
	}
	return s
}

// RegisterOption configures one registered database.
type RegisterOption func(*source)

// WithDatabaseConfig overrides the service default Config for one database.
func WithDatabaseConfig(cfg Config) RegisterOption {
	return func(src *source) { src.cfg = &cfg }
}

// WithDatabaseShards overrides the shard topology for one database: k > 1
// partitions its fact tables (hash-placed by keys, round-robin without an
// entry), k ≤ 1 forces unsharded execution even under a WithShards default.
func WithDatabaseShards(k int, keys map[string]string) RegisterOption {
	return func(src *source) {
		src.shardsSet = true
		src.shards = k
		src.shardKeys = keys
	}
}

// RegisterSource adds a named database materialized from a db.Source on
// first use. Sources that also implement db.Refresher (CSV, JSONL, and
// in-memory sources do) get incremental Refresh: new rows are appended and
// committed as fresh blocks, the keyword catalog is rebuilt, and the
// engine's snapshot-versioned caches absorb the appends by delta scans.
// Registering an already-registered name fails.
func (s *Service) RegisterSource(name string, dsrc db.Source, opts ...RegisterOption) error {
	if dsrc == nil {
		return fmt.Errorf("aggchecker: register %q: nil source", name)
	}
	src := &source{name: name, src: dsrc}
	for _, o := range opts {
		if o != nil {
			o(src)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sources[name]; ok {
		return fmt.Errorf("aggchecker: database %q already registered", name)
	}
	s.sources[name] = src
	return nil
}

// RegisterDatabase adds an already-loaded in-memory database (a
// db.MemSource): Refresh commits rows the owner staged with Append.
func (s *Service) RegisterDatabase(name string, d *db.Database, opts ...RegisterOption) error {
	if d == nil {
		return fmt.Errorf("aggchecker: register %q: nil database", name)
	}
	return s.RegisterSource(name, db.NewMemSource(d), opts...)
}

// Names returns the registered database names, sorted.
func (s *Service) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sources))
	for name := range s.sources {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Resident returns the names of databases whose checkers are currently in
// memory, most recently used first.
func (s *Service) Resident() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.lru.Len())
	for e := s.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*source).name)
	}
	return out
}

// Checker returns the (lazily built) checker for a registered database.
// Concurrent calls during the first build share one build; waiting callers
// honor ctx while the winning builder's open runs under its own ctx. A
// waiter whose shared build failed with the *winner's* context error — the
// winning client hung up mid-build — retries the build under its own
// still-live context instead of inheriting a cancellation it never issued.
func (s *Service) Checker(ctx context.Context, name string) (*Checker, error) {
	for {
		ck, err, waited := s.checkerOnce(ctx, name)
		// Only a shared build's failure is retried: the next attempt
		// either finds the checker resident, becomes the builder itself
		// (whose result is final), or waits on a fresh build.
		if err != nil && waited && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return ck, err
	}
}

// checkerOnce is one resolve-or-build attempt (see Checker); waited
// reports that the result came from another goroutine's in-flight build.
func (s *Service) checkerOnce(ctx context.Context, name string) (ck *Checker, err error, waited bool) {
	if err := ctx.Err(); err != nil {
		return nil, err, false
	}
	s.mu.Lock()
	src, ok := s.sources[name]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("aggchecker: %w: %q", ErrUnknownDatabase, name), false
	}
	if src.checker != nil {
		ck := src.checker
		s.touchLocked(src)
		s.mu.Unlock()
		return ck, nil, false
	}
	if call := src.building; call != nil {
		s.mu.Unlock()
		select {
		case <-call.done:
			return call.checker, call.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), false
		}
	}
	call := &buildCall{done: make(chan struct{})}
	src.building = call
	s.mu.Unlock()

	// The expensive part — loading data and building the fragment catalog —
	// runs outside the service lock so other databases stay available.
	cfg := s.defaultCfg
	if src.cfg != nil {
		cfg = *src.cfg
	}
	if src.shardsSet {
		cfg.Shards, cfg.ShardKeys = src.shards, src.shardKeys
	}
	if s.sched != nil {
		// Append onto a copy: the shared default config's option slice
		// must not grow a backing-array write from a lazy build.
		cfg.Exec = append(append([]sqlexec.ExecOption{}, cfg.Exec...), sqlexec.WithScheduler(s.sched))
	}
	var d *db.Database
	var store *colstore.Store
	if cfg.DataDir != "" {
		d, store, err = openPersistent(ctx, src.name, src.src, cfg.DataDir)
	} else {
		d, err = src.src.Open(ctx)
	}
	if err == nil {
		ck = NewChecker(d, cfg)
		ck.store = store
	}

	s.mu.Lock()
	src.building = nil
	if err == nil {
		src.checker = ck
		s.touchLocked(src)
		s.evictLocked()
	}
	s.mu.Unlock()
	call.checker, call.err = ck, err
	close(call.done)
	return ck, err, false
}

// openPersistent materializes a database backed by a block store under
// dataDir/<name>. A reopenable store restores the last durably published
// snapshot without calling the source at all — cold restarts serve
// identical reports with zero source re-parsing. An empty (or
// unrecoverable) store bootstraps from the source and records everything;
// a corrupt store directory is moved aside to <dir>.bad rather than
// blocking the database.
func openPersistent(ctx context.Context, name string, dsrc db.Source, dataDir string) (*db.Database, *colstore.Store, error) {
	dir := filepath.Join(dataDir, name)
	st, pdb, err := colstore.Open(dir)
	if err != nil {
		if renameErr := os.Rename(dir, dir+".bad"); renameErr != nil {
			return nil, nil, fmt.Errorf("aggchecker: open store %s: %w", dir, err)
		}
		if st, pdb, err = colstore.Open(dir); err != nil {
			return nil, nil, fmt.Errorf("aggchecker: open store %s: %w", dir, err)
		}
	}
	if pdb != nil {
		d, rerr := db.RestoreDatabase(pdb)
		if rerr == nil {
			if perr := d.SetPersister(st); perr != nil {
				st.Close()
				return nil, nil, perr
			}
			return d, st, nil
		}
		// Restored metadata the database rejects: quarantine and bootstrap.
		st.Close()
		if renameErr := os.Rename(dir, dir+".bad"); renameErr != nil {
			return nil, nil, rerr
		}
		if st, _, err = colstore.Open(dir); err != nil {
			return nil, nil, fmt.Errorf("aggchecker: open store %s: %w", dir, err)
		}
	}
	d, err := dsrc.Open(ctx)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	if err := d.SetPersister(st); err != nil {
		st.Close()
		return nil, nil, err
	}
	return d, st, nil
}

// touchLocked moves a resident source to the LRU front (inserting it when
// new). Callers hold s.mu.
func (s *Service) touchLocked(src *source) {
	if src.elem != nil {
		s.lru.MoveToFront(src.elem)
		return
	}
	src.elem = s.lru.PushFront(src)
}

// evictLocked drops least-recently-used checkers beyond the residency
// bound. An evicted database stays registered and rebuilds on next use.
// Callers hold s.mu.
func (s *Service) evictLocked() {
	if s.maxResident <= 0 {
		return
	}
	for s.lru.Len() > s.maxResident {
		e := s.lru.Back()
		victim := e.Value.(*source)
		s.lru.Remove(e)
		victim.elem = nil
		if victim.checker != nil {
			victim.checker.detachStore()
		}
		victim.checker = nil
	}
}

// Status reports the storage state of a registered database without
// loading it: version and row counts when resident, Resident=false
// otherwise (a non-resident database always opens fresh, so there is
// nothing to refresh).
func (s *Service) Status(name string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.sources[name]
	if !ok {
		return Status{}, fmt.Errorf("aggchecker: %w: %q", ErrUnknownDatabase, name)
	}
	return statusOf(name, src.checker), nil
}

// Refresh brings a registered database up to date with its source.
// Concurrent refreshes of the same database are coalesced onto one run
// (singleflight). Three outcomes:
//
//   - Not resident: nothing to do — the source re-opens with current data
//     on the next request.
//   - Resident with a refreshable source (db.Refresher): new rows are
//     appended and committed, publishing snapshot version N+1 behind the
//     engine's back-compatible caches (delta-scanned on the next check),
//     and the keyword catalog is rebuilt so appended values match.
//   - Resident with an opaque source: the checker is evicted and rebuilt
//     lazily from fresh data on the next request.
func (s *Service) Refresh(ctx context.Context, name string) (Status, error) {
	s.mu.Lock()
	src, ok := s.sources[name]
	if !ok {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("aggchecker: %w: %q", ErrUnknownDatabase, name)
	}
	if call := src.refreshing; call != nil {
		s.mu.Unlock()
		select {
		case <-call.done:
			return call.st, call.err
		case <-ctx.Done():
			return Status{}, ctx.Err()
		}
	}
	call := &refreshCall{done: make(chan struct{})}
	src.refreshing = call
	ck := src.checker
	s.mu.Unlock()

	st, err := s.refresh(ctx, src, ck)

	s.mu.Lock()
	src.refreshing = nil
	s.mu.Unlock()
	call.st, call.err = st, err
	close(call.done)
	return st, err
}

// refresh performs one refresh outside the singleflight bookkeeping.
func (s *Service) refresh(ctx context.Context, src *source, ck *Checker) (Status, error) {
	if ck == nil {
		return Status{Name: src.name}, nil
	}
	r, ok := src.src.(db.Refresher)
	if !ok {
		// Opaque source: evict so the next request reloads fresh data.
		s.evictChecker(src, ck)
		return Status{Name: src.name}, nil
	}
	appended, err := r.Refresh(ctx, ck.DB)
	if err != nil && ctx.Err() == nil {
		// The source changed in a way the incremental contract cannot
		// express (a rewritten or shrunken file, a type flip): fall back
		// to a full re-open by evicting the checker, so the next request
		// loads the file as it now is instead of serving pre-rewrite data
		// forever. Cancellation is not a source problem and evicts nothing.
		s.evictChecker(src, ck)
		return Status{Name: src.name}, err
	}
	if err != nil {
		return statusOf(src.name, ck), err
	}
	if appended > 0 {
		// Sharded checkers route the freshly committed rows into their
		// partitions first (each sealing per-shard delta blocks), so the
		// next check's fan-out sees the refreshed data. An absorb failure
		// is a state conflict like a refresh failure: evict and rebuild.
		if _, err := ck.AbsorbShards(); err != nil {
			s.evictChecker(src, ck)
			return Status{Name: src.name}, err
		}
		// The engine keeps its snapshot-versioned caches (appends are
		// absorbed by delta scans); only the keyword catalog, which indexes
		// column values, needs maintenance so freshly appended literals
		// match — Extend grafts just the new dictionary and numeric entries
		// instead of rebuilding from scratch. The swapped checker shares DB
		// and Engine, so readers mid-check on the old struct stay consistent.
		cat, _ := ck.Catalog.Extend()
		fresh := &Checker{
			DB:      ck.DB,
			Catalog: cat,
			Engine:  ck.Engine,
			Config:  ck.Config,
			shards:  ck.shards,
			coord:   ck.coord,
			store:   ck.store,

			compactDone: ck.compactDone,
		}
		s.mu.Lock()
		if src.checker == ck {
			src.checker = fresh
		}
		s.mu.Unlock()
		ck = fresh
		ck.maybeCompactAsync(ck.Config.CompactAfter)
	}
	st := statusOf(src.name, ck)
	st.Appended = appended
	return st, nil
}

// evictChecker drops a resident checker (if still the given one) so the
// next request rebuilds from a fresh source open.
func (s *Service) evictChecker(src *source, ck *Checker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if src.checker != ck {
		return
	}
	ck.detachStore()
	src.checker = nil
	if src.elem != nil {
		s.lru.Remove(src.elem)
		src.elem = nil
	}
}

// Check verifies a document against a named database; see Checker.Check
// for option and cancellation semantics.
func (s *Service) Check(ctx context.Context, name string, doc *document.Document, opts ...CheckOption) (*Report, error) {
	ck, err := s.Checker(ctx, name)
	if err != nil {
		return nil, err
	}
	return ck.Check(ctx, doc, opts...)
}

// Stream verifies a document against a named database, emitting per-EM-
// iteration events; see Checker.Stream.
func (s *Service) Stream(ctx context.Context, name string, doc *document.Document, opts ...CheckOption) (<-chan Event, error) {
	ck, err := s.Checker(ctx, name)
	if err != nil {
		return nil, err
	}
	return ck.Stream(ctx, doc, opts...)
}
