package corpus

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"aggchecker/internal/model"
	"aggchecker/internal/sqlexec"
)

func TestLoadCorpus(t *testing.T) {
	c, err := Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(c.Cases) != 53 {
		t.Fatalf("cases = %d, want 53", len(c.Cases))
	}
}

func TestCorpusStatsMatchPaper(t *testing.T) {
	c := MustLoad()
	s := c.ComputeStats()
	if s.Claims != TotalClaims {
		t.Errorf("claims = %d, want %d", s.Claims, TotalClaims)
	}
	if s.Erroneous != TotalErroneous {
		t.Errorf("erroneous = %d, want %d", s.Erroneous, TotalErroneous)
	}
	if s.ArticlesWithError != ArticlesWithErrors {
		t.Errorf("articles with errors = %d, want %d", s.ArticlesWithError, ArticlesWithErrors)
	}
	// Predicate-count split should track Figure 9c (17% / 61% / 23%);
	// allow slack for rounding across articles.
	frac := func(n int) float64 { return float64(n) / float64(s.Claims) }
	if f := frac(s.PredCounts[0]); f < 0.10 || f > 0.24 {
		t.Errorf("zero-predicate fraction = %.2f, want ≈ 0.17", f)
	}
	if f := frac(s.PredCounts[1]); f < 0.50 || f > 0.72 {
		t.Errorf("one-predicate fraction = %.2f, want ≈ 0.61", f)
	}
	if f := frac(s.PredCounts[2]); f < 0.15 || f > 0.32 {
		t.Errorf("two-predicate fraction = %.2f, want ≈ 0.23", f)
	}
}

func TestGroundTruthConsistency(t *testing.T) {
	// Every ground-truth query must evaluate to its recorded correct value,
	// and the claimed value must (mis)match per the Correct flag.
	c := MustLoad()
	for _, tc := range c.Cases {
		eng := sqlexec.NewEngine(tc.DB)
		for i, truth := range tc.Truth {
			v, err := eng.EvaluateContext(context.Background(), truth.Query)
			if err != nil {
				t.Fatalf("%s claim %d: evaluate: %v", tc.Name, i, err)
			}
			if math.Abs(v-truth.CorrectValue) > math.Abs(v)*1e-9+1e-9 {
				t.Errorf("%s claim %d: query evaluates to %v, truth records %v",
					tc.Name, i, v, truth.CorrectValue)
			}
			if got := model.Matches(v, truth.ClaimedValue); got != truth.Correct {
				t.Errorf("%s claim %d: Matches(%v, %v) = %v, Correct flag = %v",
					tc.Name, i, v, truth.ClaimedValue, got, truth.Correct)
			}
		}
	}
}

func TestClaimAlignment(t *testing.T) {
	c := MustLoad()
	for _, tc := range c.Cases {
		if len(tc.Doc.Claims) != len(tc.Truth) {
			t.Errorf("%s: %d detected claims, %d truths", tc.Name, len(tc.Doc.Claims), len(tc.Truth))
			continue
		}
		for i, claim := range tc.Doc.Claims {
			if math.Abs(claim.Claimed.Value-tc.Truth[i].ClaimedValue) > 1e-9*math.Abs(claim.Claimed.Value)+1e-9 {
				t.Errorf("%s claim %d: detected value %v, truth %v",
					tc.Name, i, claim.Claimed.Value, tc.Truth[i].ClaimedValue)
			}
		}
	}
}

func TestStudyCases(t *testing.T) {
	c := MustLoad()
	study := c.StudyCases()
	if len(study) != 6 {
		t.Fatalf("study cases = %d, want 6", len(study))
	}
	long := 0
	for _, tc := range study {
		if len(tc.Truth) > 15 {
			long++
		}
	}
	if long != 2 {
		t.Errorf("long study articles = %d, want 2", long)
	}
}

func TestCorpusDeterminism(t *testing.T) {
	// Regenerating a case with the same seed yields identical HTML.
	spec := domains[0]
	a, err := generateCase(spec, 4242, "det-a", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateCase(spec, 4242, "det-b", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.HTML != b.HTML {
		t.Error("same seed produced different articles")
	}
	c, err := generateCase(spec, 4243, "det-c", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.HTML == c.HTML {
		t.Error("different seeds produced identical articles")
	}
}

func TestCorpusDomainSpread(t *testing.T) {
	c := MustLoad()
	bySource := map[string]int{}
	for _, tc := range c.Cases {
		bySource[tc.Source]++
	}
	if len(bySource) < 5 {
		t.Errorf("sources = %v, want at least 5 distinct", bySource)
	}
}

func TestNFLCaseMatchesPaper(t *testing.T) {
	c := MustLoad()
	nfl := c.Cases[0]
	if nfl.Name != "nfl-suspensions" {
		t.Fatalf("case 0 = %s", nfl.Name)
	}
	// Claims "four" and "three" are the documented errors of Table 9.
	if nfl.Truth[2].Correct || nfl.Truth[3].Correct {
		t.Error("the lifetime-ban claims should be erroneous")
	}
	if nfl.Truth[2].CorrectValue != 5 || nfl.Truth[3].CorrectValue != 4 {
		t.Errorf("correct values = %v, %v; want 5, 4",
			nfl.Truth[2].CorrectValue, nfl.Truth[3].CorrectValue)
	}
	if !nfl.Truth[4].Correct {
		t.Error("the gambling claim should be correct")
	}
}

func TestGeneratedErrorCountsSum(t *testing.T) {
	counts := generatedErrorCounts(52)
	total, withErr := 0, 0
	for _, c := range counts {
		total += c
		if c > 0 {
			withErr++
		}
	}
	if total != 45 {
		t.Errorf("generated errors = %d, want 45", total)
	}
	if withErr != 16 {
		t.Errorf("generated articles with errors = %d, want 16", withErr)
	}
}

func TestPerturbNeverMatches(t *testing.T) {
	// Property: perturbed values never satisfy Definition 1.
	rngVals := []float64{1, 2, 3, 4, 7, 12, 48, 120, 1999, 40.8, 13.6, 98000}
	fns := []sqlexec.AggFunc{sqlexec.Count, sqlexec.Percentage, sqlexec.Avg, sqlexec.Sum}
	rng := newTestRand()
	for _, v := range rngVals {
		for _, fn := range fns {
			if fn == sqlexec.Percentage && v > 100 {
				continue
			}
			wrong, ok := perturb(rng, fn, v)
			if !ok {
				t.Fatalf("perturb(%v, %v) failed", fn, v)
			}
			if model.Matches(v, wrong) {
				t.Errorf("perturb(%v, %v) = %v still matches", fn, v, wrong)
			}
		}
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(11)) }
