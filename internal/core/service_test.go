package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
)

func nflOpener(t *testing.T, builds *atomic.Int32) db.SourceFunc {
	t.Helper()
	tc := corpus.MustLoad().Cases[0]
	return func(context.Context) (*db.Database, error) {
		if builds != nil {
			builds.Add(1)
		}
		return tc.DB, nil
	}
}

func TestServiceUnknownDatabase(t *testing.T) {
	svc := NewService()
	_, err := svc.Checker(context.Background(), "ghost")
	if !errors.Is(err, ErrUnknownDatabase) {
		t.Fatalf("err = %v, want ErrUnknownDatabase", err)
	}
	tc := corpus.MustLoad().Cases[0]
	if _, err := svc.Check(context.Background(), "ghost", tc.Doc); !errors.Is(err, ErrUnknownDatabase) {
		t.Fatalf("Check err = %v, want ErrUnknownDatabase", err)
	}
}

func TestServiceDuplicateRegistration(t *testing.T) {
	svc := NewService()
	if err := svc.RegisterSource("a", nflOpener(t, nil)); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterSource("a", nflOpener(t, nil)); err == nil {
		t.Fatal("second Register succeeded, want error")
	}
}

func TestServiceLazySingleflightBuild(t *testing.T) {
	var builds atomic.Int32
	svc := NewService(WithDefaultConfig(quickCfg()))
	if err := svc.RegisterSource("nfl", nflOpener(t, &builds)); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 0 {
		t.Fatalf("Register built eagerly (%d builds)", got)
	}

	const callers = 16
	var wg sync.WaitGroup
	checkers := make([]*Checker, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ck, err := svc.Checker(context.Background(), "nfl")
			if err != nil {
				t.Error(err)
				return
			}
			checkers[i] = ck
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("concurrent first use ran %d builds, want 1 (singleflight)", got)
	}
	for i := 1; i < callers; i++ {
		if checkers[i] != checkers[0] {
			t.Fatalf("caller %d got a different checker instance", i)
		}
	}
}

func TestServiceLRUEviction(t *testing.T) {
	var builds atomic.Int32
	svc := NewService(WithDefaultConfig(quickCfg()), WithMaxResident(2))
	for _, name := range []string{"a", "b", "c"} {
		if err := svc.RegisterSource(name, nflOpener(t, &builds)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		if _, err := svc.Checker(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, err := svc.Checker(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Checker(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	res := svc.Resident()
	if len(res) != 2 || res[0] != "c" || res[1] != "a" {
		t.Fatalf("Resident() = %v, want [c a]", res)
	}
	if got := builds.Load(); got != 3 {
		t.Fatalf("builds = %d, want 3", got)
	}
	// "b" was evicted but stays registered: next use rebuilds.
	if _, err := svc.Checker(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 4 {
		t.Fatalf("builds after rebuild = %d, want 4", got)
	}
}

func TestServiceOpenErrorIsNotCached(t *testing.T) {
	fail := true
	tc := corpus.MustLoad().Cases[0]
	svc := NewService(WithDefaultConfig(quickCfg()))
	err := svc.RegisterSource("flaky", db.SourceFunc(func(context.Context) (*db.Database, error) {
		if fail {
			return nil, fmt.Errorf("source offline")
		}
		return tc.DB, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Checker(context.Background(), "flaky"); err == nil {
		t.Fatal("first use succeeded, want open error")
	}
	fail = false
	if _, err := svc.Checker(context.Background(), "flaky"); err != nil {
		t.Fatalf("retry after open error failed: %v", err)
	}
}

func TestServiceCheckEndToEnd(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	svc := NewService(WithDefaultConfig(quickCfg()))
	if err := svc.RegisterDatabase("nfl", tc.DB); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Check(context.Background(), "nfl", tc.Doc, WithTopK(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Claims()) != len(tc.Doc.Claims) {
		t.Fatalf("claims = %d, want %d", len(rep.Claims()), len(tc.Doc.Claims))
	}
	for i, cr := range rep.Claims() {
		if len(cr.Ranked) > 2 {
			t.Fatalf("claim %d: %d ranked queries, want ≤ 2", i, len(cr.Ranked))
		}
	}
	names := svc.Names()
	if len(names) != 1 || names[0] != "nfl" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestServicePerDatabaseConfig(t *testing.T) {
	tc := corpus.MustLoad().Cases[0]
	naive := quickCfg()
	naive.Mode = EvalNaive
	svc := NewService(WithDefaultConfig(quickCfg()))
	if err := svc.RegisterDatabase("nfl", tc.DB, WithDatabaseConfig(naive)); err != nil {
		t.Fatal(err)
	}
	ck, err := svc.Checker(context.Background(), "nfl")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Config.Mode != EvalNaive {
		t.Fatalf("checker mode = %v, want naive (per-database config)", ck.Config.Mode)
	}
}
