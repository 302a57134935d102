package model

import (
	"context"
	"math"
	"strings"
	"testing"

	"aggchecker/internal/db"
	"aggchecker/internal/document"
	"aggchecker/internal/fragments"
	"aggchecker/internal/keywords"
	"aggchecker/internal/sqlexec"
)

// naiveEval satisfies Evaluator by evaluating each query directly.
type naiveEval struct{ e *sqlexec.Engine }

func (naiveEval) SetPool(map[string][]string) {}

func (n naiveEval) EvaluateBatch(ctx context.Context, qs []sqlexec.Query) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, err := n.e.EvaluateContext(ctx, q)
		if err != nil {
			v = math.NaN()
		}
		out[i] = v
	}
	return out
}

// Parallel runs the indexes in order on the calling goroutine.
func (naiveEval) Parallel(ctx context.Context, n int, fn func(int)) {
	for i := 0; i < n && ctx.Err() == nil; i++ {
		fn(i)
	}
}

// mustRun is Run with a background context, no observer, and fatal errors.
func mustRun(t *testing.T, cat *fragments.Catalog, doc *document.Document, scores []keywords.Scores, ev Evaluator, cfg Config) *Result {
	t.Helper()
	res, err := Run(context.Background(), cat, doc, scores, ev, cfg, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestMatchesRounding(t *testing.T) {
	cases := []struct {
		result, claimed float64
		want            bool
	}{
		{4, 4, true},
		{4.2, 4, true},   // rounds to 4 at 1 significant digit
		{14, 13, false},  // the paper's self-taught example: 13 was wrong
		{13.6, 14, true}, // and 14 is right
		{40.8, 41, true}, // the recline-seat percentage
		{63, 64, false},  // the donation-recipients example
		{63, 63, true},
		{1489234, 1.5e6, true}, // "1.5 million"
		{0, 0, true},
		{0.04, 0, false},
		{-3.6, -4, true},
		{math.NaN(), 4, false},
		{math.Inf(1), 4, false},
		{123456, 120000, true}, // 2 significant digits
		{125456, 130000, true}, // rounds up
		{125456, 125000, true}, // 3 sig digits (125456 -> 125000)
		{1999, 2000, true},
		{2106, 2000, true}, // 1 significant digit rounds 2106 to 2000
	}
	for _, c := range cases {
		if got := Matches(c.result, c.claimed); got != c.want {
			t.Errorf("Matches(%v, %v) = %v, want %v", c.result, c.claimed, got, c.want)
		}
	}
}

func TestMatchesAnySigDigits(t *testing.T) {
	// 2106 rounds to 2000 at 1 significant digit, so claim 2000 is correct.
	if !Matches(2106, 2000) {
		t.Error("2106 should match claim 2000 via 1-significant-digit rounding")
	}
	if Matches(2606, 2000) {
		t.Error("2606 rounds to 3000, should not match 2000")
	}
}

func TestRoundSig(t *testing.T) {
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		{13.6, 2, 14},
		{13.6, 3, 13.6},
		{40.8, 2, 41},
		{0.0456, 2, 0.046},
		{-13.6, 2, -14},
		{125456, 2, 130000},
	}
	for _, c := range cases {
		if got := RoundSig(c.x, c.k); math.Abs(got-c.want) > math.Abs(c.want)*1e-9 {
			t.Errorf("RoundSig(%v, %d) = %v, want %v", c.x, c.k, got, c.want)
		}
	}
}

const nflCSV = `name,team,games,category,year
Art Schlichter,IND,indef,gambling,1983
Josh Gordon,CLE,indef,substance abuse repeated offense,2014
Stanley Wilson,CIN,indef,substance abuse repeated offense,1989
Dexter Manley,WAS,indef,substance abuse repeated offense,1991
Leon Lett,DAL,4,substance abuse,1995
Ray Rice,BAL,2,personal conduct,2014
Adam Jones,CIN,4,personal conduct,2007
`

const nflHTML = `<h1>The NFL's Uneven History Of Punishing Domestic Violence</h1>
<h2>Lifetime bans and suspensions</h2>
<p>There were only four previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>`

func nflSetup(t *testing.T) (*fragments.Catalog, *document.Document, []keywords.Scores, *sqlexec.Engine) {
	t.Helper()
	tbl, err := db.LoadCSV(strings.NewReader(nflCSV), "nflsuspensions")
	if err != nil {
		t.Fatal(err)
	}
	d := db.NewDatabase("nfl")
	d.MustAddTable(tbl)
	cat := fragments.BuildCatalog(d, fragments.DefaultOptions())
	doc := document.ParseHTML(nflHTML)
	if len(doc.Claims) != 3 {
		t.Fatalf("claims = %d, want 3", len(doc.Claims))
	}
	scores := keywords.MatchAll(cat, doc, keywords.DefaultContext(), 20)
	return cat, doc, scores, sqlexec.NewEngine(d)
}

func nflGroundTruth() []sqlexec.Query {
	pred := func(col, val string) sqlexec.Predicate {
		return sqlexec.Predicate{Col: sqlexec.ColumnRef{Table: "nflsuspensions", Column: col}, Value: val}
	}
	return []sqlexec.Query{
		{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{pred("games", "indef")}},
		{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{pred("games", "indef"), pred("category", "substance abuse repeated offense")}},
		{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{pred("games", "indef"), pred("category", "gambling")}},
	}
}

func rankOf(res ClaimResult, truth sqlexec.Query) int {
	key := truth.Key()
	for i, rq := range res.Ranked {
		if rq.Query.Key() == key {
			return i
		}
	}
	return -1
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.EvalBudget = 600
	cfg.MaxEMIters = 4
	return cfg
}

func TestEMResolvesNFLExample(t *testing.T) {
	cat, doc, scores, eng := nflSetup(t)
	res := mustRun(t, cat, doc, scores, naiveEval{eng}, testConfig())
	truth := nflGroundTruth()
	for i, cr := range res.Claims {
		r := rankOf(cr, truth[i])
		if r < 0 || r >= 5 {
			best := "none"
			if cr.Best() != nil {
				best = cr.Best().Query.Key()
			}
			t.Errorf("claim %d (%v): ground truth rank = %d, want top-5; best = %s",
				i, cr.Claim.Claimed.Value, r, best)
		}
		if cr.Erroneous {
			t.Errorf("claim %d should verify as correct", i)
		}
	}
}

func TestEMDetectsErroneousClaim(t *testing.T) {
	// Flip the first claim to a wrong value ("five" lifetime bans).
	cat, _, _, eng := nflSetup(t)
	doc := document.ParseHTML(strings.Replace(nflHTML, "four", "five", 1))
	scores := keywords.MatchAll(cat, doc, keywords.DefaultContext(), 20)
	res := mustRun(t, cat, doc, scores, naiveEval{eng}, testConfig())
	if !res.Claims[0].Erroneous {
		best := res.Claims[0].Best()
		t.Errorf("claim 'five' should be marked erroneous (best=%v result=%v)",
			best.Query.Key(), best.Result)
	}
	// The other two claims remain correct.
	if res.Claims[1].Erroneous || res.Claims[2].Erroneous {
		t.Error("correct claims were marked erroneous")
	}
}

// TestHugeTopQueriesKeepsVerdicts pins the ranking against overflow: with
// TopQueries*3 wrapped negative, no base candidate was ranked, only the
// matching ones, and every claim came out correct.
func TestHugeTopQueriesKeepsVerdicts(t *testing.T) {
	cat, _, _, eng := nflSetup(t)
	doc := document.ParseHTML(strings.Replace(nflHTML, "four", "five", 1))
	scores := keywords.MatchAll(cat, doc, keywords.DefaultContext(), 20)
	run := func(topQueries int) *Result {
		cfg := testConfig()
		cfg.TopQueries = topQueries
		return mustRun(t, cat, doc, scores, naiveEval{eng}, cfg)
	}
	want, got := run(1<<20), run(math.MaxInt/3+1)
	if !want.Claims[0].Erroneous {
		t.Fatal("claim 'five' is not erroneous even at TopQueries 1<<20")
	}
	for i, w := range want.Claims {
		g := got.Claims[i]
		if g.Erroneous != w.Erroneous {
			t.Errorf("claim %d: erroneous = %t, want %t", i, g.Erroneous, w.Erroneous)
		}
		if len(g.Ranked) == 0 {
			t.Fatalf("claim %d: no ranked translations", i)
		}
		gq, wq := g.Ranked[0], w.Ranked[0]
		if gq.Query.Key() != wq.Query.Key() || gq.Prob != wq.Prob || gq.Matches != wq.Matches ||
			math.Float64bits(gq.Result) != math.Float64bits(wq.Result) {
			t.Errorf("claim %d: top translation %+v, want %+v", i, gq, wq)
		}
	}
}

func TestEMLearnsPriors(t *testing.T) {
	cat, doc, scores, eng := nflSetup(t)
	res := mustRun(t, cat, doc, scores, naiveEval{eng}, testConfig())
	// All ground-truth queries are counts restricted on games: the learned
	// priors must put the largest function mass on Count and a high
	// restriction probability on games (Table 2 of the paper). With 3
	// claims and Dirichlet alpha 0.5, the ceiling is (3+0.5)/(3+4) = 0.5.
	for i, v := range res.Priors.Fn {
		if i != int(sqlexec.Count) && v > res.Priors.Fn[int(sqlexec.Count)] {
			t.Errorf("function %d prior %v exceeds Count prior %v", i, v, res.Priors.Fn[int(sqlexec.Count)])
		}
	}
	if res.Priors.Fn[int(sqlexec.Count)] < 0.3 {
		t.Errorf("Count prior = %v, want > 0.3", res.Priors.Fn[int(sqlexec.Count)])
	}
	gi := cat.PredColumnIndex(sqlexec.ColumnRef{Table: "nflsuspensions", Column: "games"})
	ti := cat.PredColumnIndex(sqlexec.ColumnRef{Table: "nflsuspensions", Column: "team"})
	if res.Priors.Restrict[gi] <= res.Priors.Restrict[ti] {
		t.Errorf("restrict(games)=%v should exceed restrict(team)=%v",
			res.Priors.Restrict[gi], res.Priors.Restrict[ti])
	}
}

func TestEvalResultsAblationDegrades(t *testing.T) {
	cat, doc, scores, eng := nflSetup(t)
	full := mustRun(t, cat, doc, scores, naiveEval{eng}, testConfig())
	cfgNoEval := testConfig()
	cfgNoEval.UseEvalResults = false
	cfgNoEval.UsePriors = false
	bare := mustRun(t, cat, doc, scores, naiveEval{eng}, cfgNoEval)
	truth := nflGroundTruth()
	fullHits, bareHits := 0, 0
	for i := range truth {
		if r := rankOf(full.Claims[i], truth[i]); r == 0 {
			fullHits++
		}
		if r := rankOf(bare.Claims[i], truth[i]); r == 0 {
			bareHits++
		}
	}
	if fullHits < bareHits {
		t.Errorf("full model top-1 hits (%d) should be >= keyword-only hits (%d)", fullHits, bareHits)
	}
	// The paper's top-1 coverage is 58.4%; on this deliberately ambiguous
	// 3-claim example at least one claim must resolve exactly at top-1
	// (the others lose narrowly to result-equivalent translations).
	if fullHits < 1 {
		t.Errorf("full model should resolve at least 1/3 claims at top-1, got %d", fullHits)
	}
}

func TestSpaceEnumerationProperties(t *testing.T) {
	cat, doc, scores, _ := nflSetup(t)
	cfg := testConfig()
	pool := BuildPool(cat, scores, cfg)
	space := BuildSpace(cat, doc.Claims[0], scores[0], UniformPriors(cat), pool, cfg)
	cands := space.TopCandidates(300, cfg.MaxPreds)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	seen := map[string]bool{}
	prev := math.Inf(1)
	for _, c := range cands {
		if c.Prob > prev+1e-12 {
			t.Fatalf("candidates not in descending probability order: %v after %v", c.Prob, prev)
		}
		prev = c.Prob
		q := space.Query(c)
		if len(q.Preds) > cfg.MaxPreds {
			t.Fatalf("candidate has %d predicates, max %d", len(q.Preds), cfg.MaxPreds)
		}
		key := q.Key()
		if seen[key] {
			t.Fatalf("duplicate candidate %s", key)
		}
		seen[key] = true
	}
}

func TestSpaceProbabilitiesSumToOne(t *testing.T) {
	cat, doc, scores, _ := nflSetup(t)
	cfg := testConfig()
	cfg.ScopeCols = 2
	cfg.LitsPerColumn = 3
	pool := BuildPool(cat, scores, cfg)
	space := BuildSpace(cat, doc.Claims[0], scores[0], UniformPriors(cat), pool, cfg)
	// Enumerate the whole space (small limits) without the predicate cap:
	// base probabilities must sum to 1.
	all := space.TopCandidates(1000000, len(space.cols))
	var total float64
	for _, c := range all {
		total += c.Prob
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("base probability mass = %v, want 1", total)
	}
}

func TestPriorsMaximization(t *testing.T) {
	cat, _, _, _ := nflSetup(t)
	stats := newPriorStats(cat)
	q := nflGroundTruth()[0]
	for i := 0; i < 10; i++ {
		stats.addQuery(cat, q)
	}
	p := stats.maximize(0.5)
	// (10+0.5)/(10+8·0.5) = 0.75 with Dirichlet smoothing over 8 functions.
	if p.Fn[int(sqlexec.Count)] < 0.7 {
		t.Errorf("Count prior after 10 unanimous counts = %v", p.Fn[int(sqlexec.Count)])
	}
	gi := cat.PredColumnIndex(sqlexec.ColumnRef{Table: "nflsuspensions", Column: "games"})
	if p.Restrict[gi] < 0.9 {
		t.Errorf("games restriction prior = %v, want > 0.9", p.Restrict[gi])
	}
	var sum float64
	for _, v := range p.Fn {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("function priors sum to %v", sum)
	}
}

func TestUniformPriors(t *testing.T) {
	cat, _, _, _ := nflSetup(t)
	p := UniformPriors(cat)
	var sum float64
	for _, v := range p.Fn {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("uniform fn priors sum to %v", sum)
	}
	for _, r := range p.Restrict {
		if r <= 0 || r > 0.5 {
			t.Errorf("restriction prior %v outside (0, 0.5]", r)
		}
	}
	q := p.Clone()
	q.Fn[0] = 0.9
	if p.Fn[0] == 0.9 {
		t.Error("Clone did not deep-copy")
	}
	if p.MaxDelta(q) == 0 {
		t.Error("MaxDelta should detect the modified component")
	}
}

func TestPCorrectRange(t *testing.T) {
	cat, doc, scores, eng := nflSetup(t)
	res := mustRun(t, cat, doc, scores, naiveEval{eng}, testConfig())
	for i, cr := range res.Claims {
		if cr.PCorrect < 0 || cr.PCorrect > 1 {
			t.Errorf("claim %d PCorrect = %v out of range", i, cr.PCorrect)
		}
		var sum float64
		for _, rq := range cr.Ranked {
			if rq.Prob < 0 || rq.Prob > 1.0000001 {
				t.Errorf("claim %d ranked prob %v out of range", i, rq.Prob)
			}
			sum += rq.Prob
		}
		if sum > 1.0000001 {
			t.Errorf("claim %d ranked probs sum to %v > 1", i, sum)
		}
	}
}

// recordingEval forwards to an Evaluator and records every query it is sent.
type recordingEval struct {
	Evaluator
	keys []string
}

func (r *recordingEval) EvaluateBatch(ctx context.Context, qs []sqlexec.Query) []float64 {
	for _, q := range qs {
		r.keys = append(r.keys, q.Key())
	}
	return r.Evaluator.EvaluateBatch(ctx, qs)
}

// TestRunEvaluatesEachQueryOnce: over all the batches of one Run, no query
// is sent twice — not within a claim, not across claims, not across EM
// iterations — and EvaluatedQueries counts exactly what was sent.
func TestRunEvaluatesEachQueryOnce(t *testing.T) {
	cat, doc, scores, eng := nflSetup(t)
	rec := &recordingEval{Evaluator: naiveEval{eng}}
	res := mustRun(t, cat, doc, scores, rec, testConfig())
	if res.Iterations < 2 {
		t.Fatalf("%d EM iterations; the test needs at least two", res.Iterations)
	}
	seen := make(map[string]bool, len(rec.keys))
	for _, k := range rec.keys {
		if seen[k] {
			t.Fatalf("query %s evaluated twice", k)
		}
		seen[k] = true
	}
	if len(rec.keys) != res.EvaluatedQueries {
		t.Errorf("evaluator was sent %d queries, EvaluatedQueries = %d", len(rec.keys), res.EvaluatedQueries)
	}
}

// parallelCountingEval forwards to an Evaluator and counts its Parallel
// calls.
type parallelCountingEval struct {
	Evaluator
	calls int
	sizes []int
}

func (p *parallelCountingEval) Parallel(ctx context.Context, n int, fn func(int)) {
	p.calls++
	p.sizes = append(p.sizes, n)
	p.Evaluator.Parallel(ctx, n, fn)
}

// TestRunPhasesUseEvaluatorParallel: both per-claim phases of every E-step —
// each EM iteration and the final pass — run through ev.Parallel with one
// index per claim, so the evaluator's pool is the only source of
// parallelism in a Run.
func TestRunPhasesUseEvaluatorParallel(t *testing.T) {
	cat, doc, scores, eng := nflSetup(t)
	ev := &parallelCountingEval{Evaluator: naiveEval{eng}}
	res := mustRun(t, cat, doc, scores, ev, testConfig())
	if res.Iterations < 2 {
		t.Fatalf("%d EM iterations; the test needs at least two", res.Iterations)
	}
	if want := 2 * (res.Iterations + 1); ev.calls != want {
		t.Errorf("Parallel called %d times over %d iterations, want %d", ev.calls, res.Iterations, want)
	}
	for k, n := range ev.sizes {
		if n != len(doc.Claims) {
			t.Errorf("Parallel call %d over %d indexes, want %d claims", k, n, len(doc.Claims))
		}
	}
}
