package core

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"aggchecker/internal/corpus"
)

// TestVerdictPrintsPinned hashes the verdict prints of every fourth
// paper-corpus case and of one generated shared corpus under the default
// configuration, and compares the hashes with recorded constants. The
// differential tests compare execution paths of one build with each other;
// this pin catches a change to the model or the evaluator that moves every
// path alike. A new constant means some verdict, ranking, probability bit or
// result bit changed, and the change must say why. Float bit patterns depend
// on whether the compiler fuses multiply-adds, so the constants hold on
// amd64 only.
func TestVerdictPrintsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("constants recorded on amd64")
	}
	const (
		wantPaper     = "4f899a9f412ff18b"
		wantGenerated = "35cbcf0bbda65144"
	)
	hash := func(prints []string) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(prints, "\n--\n"))))[:16]
	}

	var paper []string
	for i, tc := range corpus.MustLoad().Cases {
		if i%4 == 0 {
			paper = append(paper, verdictPrints(mustCheck(t, NewChecker(tc.DB, DefaultConfig()), tc.Doc))...)
		}
	}
	sc, err := corpus.GenerateSharedCorpus("economy", 1, 4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewChecker(sc.DB, DefaultConfig())
	var generated []string
	for _, d := range sc.Docs {
		generated = append(generated, verdictPrints(mustCheck(t, ck, d.Doc))...)
	}

	if got := hash(paper); got != wantPaper {
		t.Errorf("paper corpus (%d claims): prints hash %s, want %s", len(paper), got, wantPaper)
	}
	if got := hash(generated); got != wantGenerated {
		t.Errorf("generated corpus (%d claims): prints hash %s, want %s", len(generated), got, wantGenerated)
	}
}
