package core

import (
	"context"
	"sync"
	"testing"

	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
)

// TestServiceEvictionRacesCheckAndAudit stresses the Service LRU under
// -race: with MaxResident(1), every request for a different database
// evicts the previously resident checker while Check and Audit calls are
// mid-flight on it. In-flight work must keep its checker (and its engine
// cache) alive and correct; Status must tolerate concurrent eviction.
// The shards=0 subtest names the one topology left, a single unpartitioned
// engine, under the name it had when a partitioned case ran beside it.
func TestServiceEvictionRacesCheckAndAudit(t *testing.T) {
	t.Run("shards=0", evictionRace)
}

func evictionRace(t *testing.T) {
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

	svc := NewService(WithDefaultConfig(cfg), WithMaxResident(1))
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
				if rep.Stats["window_batches"] == 0 {
					t.Errorf("audit %s: no window batches", f.name)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			// The same *Document the auditor checks, concurrently.
			doc := f.sc.Docs[0].Doc
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
