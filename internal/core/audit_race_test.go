package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
	"aggchecker/internal/document"
)

// TestServiceEvictionRacesCheckAndAudit stresses the Service LRU under
// -race: with MaxResident(1), every request for a different database
// evicts the previously resident checker while Check and Audit calls are
// mid-flight on it. In-flight work must keep its checker (and its engine
// cache) alive and correct; Status must tolerate concurrent eviction. The
// sharded case puts the audit window over a coordinator, so pooled flushes
// fan out to partition engines while direct checks use the same ones.
func TestServiceEvictionRacesCheckAndAudit(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { evictionRace(t, shards) })
	}
}

func evictionRace(t *testing.T, shards int) {
	cfg := quickCfg()
	cfg.Model.EvalBudget = 150
	cfg.Model.MaxEMIters = 2

	type fixture struct {
		name string
		sc   *corpus.SharedCorpus
	}
	var fixtures []fixture
	for i, domain := range []string{"sports", "politics"} {
		sc, err := corpus.GenerateSharedCorpus(domain, int64(50+i), 2, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{domain, sc})
	}

	svc := NewService(WithDefaultConfig(cfg), WithMaxResident(1), WithShards(shards))
	for _, f := range fixtures {
		f := f
		if err := svc.RegisterSource(f.name, db.SourceFunc(func(context.Context) (*db.Database, error) { return f.sc.DB, nil })); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 3
	var wg sync.WaitGroup
	ctx := context.Background()
	for _, f := range fixtures {
		f := f
		// One auditor and one checker per database, all racing the LRU.
		wg.Add(2)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rep, err := svc.Audit(ctx, f.name, auditDocsOf(f.sc), WithAuditConcurrency(2))
				if err != nil {
					t.Errorf("audit %s: %v", f.name, err)
					return
				}
				if rep.Failed != 0 {
					t.Errorf("audit %s: %d failed docs", f.name, rep.Failed)
					return
				}
				if rep.Stats["window_batches"] == 0 || (rep.Stats["shard_fanouts"] > 0) != (shards > 1) {
					t.Errorf("audit %s: %d window batches, %d shard fan-outs", f.name,
						rep.Stats["window_batches"], rep.Stats["shard_fanouts"])
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			// Its own parse: a Document fills its token and phrase-tree caches
			// lazily, so one parsed value must not be checked concurrently.
			doc := document.ParseHTML(f.sc.Docs[0].HTML)
			for r := 0; r < rounds; r++ {
				if _, err := svc.Check(ctx, f.name, doc); err != nil {
					t.Errorf("check %s: %v", f.name, err)
					return
				}
			}
		}()
	}
	// Status reader racing evictions (it snapshots engine cache usage).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*4; r++ {
			for _, f := range fixtures {
				if _, err := svc.Status(f.name); err != nil {
					t.Errorf("status %s: %v", f.name, err)
					return
				}
			}
		}
	}()
	wg.Wait()
}
