package model

import (
	"context"
	"sort"

	"aggchecker/internal/document"
	"aggchecker/internal/fragments"
	"aggchecker/internal/keywords"
	"aggchecker/internal/sqlexec"
)

// RankedQuery is one entry of a claim's posterior query distribution.
type RankedQuery struct {
	Query   sqlexec.Query
	Prob    float64 // posterior probability
	Result  float64 // evaluated query result (NaN when unevaluated)
	Matches bool    // result rounds to the claimed value
}

// ClaimResult is the verification outcome for one claim.
type ClaimResult struct {
	Claim *document.Claim
	// Ranked lists the most likely query translations, best first.
	Ranked []RankedQuery
	// PCorrect is the posterior probability that the claim is correct
	// (mass of matching candidates, weighted by pT).
	PCorrect float64
	// Erroneous is the tentative verdict: the maximum-likelihood query's
	// result does not round to the claimed value.
	Erroneous bool
}

// Best returns the maximum-likelihood query, or nil for an empty ranking.
func (r *ClaimResult) Best() *RankedQuery {
	if len(r.Ranked) == 0 {
		return nil
	}
	return &r.Ranked[0]
}

// Result is the outcome of expectation maximization over one document.
type Result struct {
	Claims     []ClaimResult
	Priors     *Priors
	Iterations int
	// EvaluatedQueries counts the distinct queries of the document sent to
	// the evaluator: each is sent once per Run, whichever claims and EM
	// iterations need it.
	EvaluatedQueries int
}

// queryTable interns the queries of one Run to dense ids. Ids below
// len(results) are evaluated; the rest form the next batch. A query is
// never sent twice: its answer does not depend on the batch it rides in.
type queryTable struct {
	ids     map[string]int32
	queries []sqlexec.Query
	keys    []string
	results []float64
}

// claimState carries per-claim working data across EM iterations. queries,
// ids and matches are index-aligned with top.
type claimState struct {
	space   *Space
	top     []*Candidate
	queries []sqlexec.Query
	ids     []int32
	// matches flags the candidates whose result rounds to the claim;
	// matched indexes them.
	matches     []bool
	matched     []int
	probMatched float64
}

// IterationUpdate is the observer's view of the EM state after one
// iteration's expectation step: a full per-claim result snapshot assembled
// under the current priors and evaluation results. Snapshots are built only
// when an observer is installed; the slices are owned by the receiver.
type IterationUpdate struct {
	// Iteration is 1-based; Final marks the concluding expectation pass
	// under the converged priors (its claims equal the returned Result's).
	Iteration int
	Final     bool
	// Delta is the maximum prior movement of the maximization step that
	// followed this iteration (0 when priors are disabled or Final).
	Delta float64
	// Claims is the per-claim snapshot, index-aligned with doc.Claims.
	Claims []ClaimResult
	// EvaluatedQueries is the running count of the document's distinct
	// queries evaluated so far.
	EvaluatedQueries int
}

// Observer receives an IterationUpdate after every EM iteration. It is
// called synchronously from the EM loop, so a blocking observer provides
// natural back-pressure for streaming consumers; combined with context
// cancellation it lets a caller abandon a run mid-flight.
type Observer func(IterationUpdate)

// Run executes Algorithm 3: starting from uniform priors it alternates
// per-claim expectation steps (candidate construction, evaluation of the
// top candidates, posterior bookkeeping) with maximization of the document
// priors, then assembles final claim results.
//
// The loop honors ctx between iterations and after every claim batch
// (evaluators additionally stop mid-batch); a cancelled run returns
// (nil, ctx.Err()). obs, when non-nil, is invoked after every iteration
// with a snapshot of the current per-claim results.
func Run(ctx context.Context, cat *fragments.Catalog, doc *document.Document, scores []keywords.Scores, ev Evaluator, cfg Config, obs Observer) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pool := BuildPool(cat, scores, cfg)
	ev.SetPool(pool.Literals(cat))
	priors := UniformPriors(cat)
	states := make([]*claimState, len(doc.Claims))
	for i := range states {
		states[i] = &claimState{}
	}
	tab := &queryTable{ids: make(map[string]int32)}

	res := &Result{}
	iters := cfg.MaxEMIters
	if !cfg.UsePriors || iters < 1 {
		iters = 1
	}
	for iter := 0; iter < iters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Iterations++
		eStep(ctx, cat, doc, scores, ev, cfg, pool, priors, states, tab, res)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !cfg.UsePriors {
			notify(obs, res, doc, states, tab, cfg, 0, false)
			break
		}
		stats := newPriorStats(cat)
		for i := range states {
			accumulate(cat, states[i], cfg, stats)
		}
		next := stats.maximize(cfg.PriorAlpha)
		delta := priors.MaxDelta(next)
		priors = next
		notify(obs, res, doc, states, tab, cfg, delta, false)
		if delta < cfg.ConvergeEps {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Final expectation pass under the converged priors.
	eStep(ctx, cat, doc, scores, ev, cfg, pool, priors, states, tab, res)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.Priors = priors
	res.Claims = make([]ClaimResult, len(doc.Claims))
	for i := range states {
		res.Claims[i] = assemble(doc.Claims[i], states[i], tab, cfg)
	}
	notify(obs, res, doc, states, tab, cfg, 0, true)
	return res, nil
}

// notify assembles a per-claim snapshot and delivers it to the observer.
// Assembly only happens when an observer is installed — plain Check runs
// pay nothing for the streaming hook.
func notify(obs Observer, res *Result, doc *document.Document, states []*claimState, tab *queryTable, cfg Config, delta float64, final bool) {
	if obs == nil {
		return
	}
	claims := make([]ClaimResult, len(states))
	for i := range states {
		claims[i] = assemble(doc.Claims[i], states[i], tab, cfg)
	}
	obs(IterationUpdate{
		Iteration:        res.Iterations,
		Final:            final,
		Delta:            delta,
		Claims:           claims,
		EvaluatedQueries: res.EvaluatedQueries,
	})
}

// eStep rebuilds spaces under the current priors, evaluates the top
// candidates of every claim, and recomputes match bookkeeping. It runs in
// three phases: one task per claim (ev.Parallel, the evaluator's worker
// pool) builds the claim's candidate space and keys its top candidates;
// the keys are interned into the Run's query table in claim order and the
// queries new to it go to the evaluator as one document-level batch (§6.3:
// merged cube passes span the claims of a document); and one task per
// claim redoes the match flags. All accumulation is per-claim, so the
// outcome is deterministic. Once ctx is done the claims not yet started
// are skipped and eStep returns before its next phase, leaving the states
// half-built: Run discards them and returns ctx.Err().
func eStep(ctx context.Context, cat *fragments.Catalog, doc *document.Document, scores []keywords.Scores, ev Evaluator, cfg Config, pool *LiteralPool, priors *Priors, states []*claimState, tab *queryTable, res *Result) {
	// Phase 1: candidate construction, each top candidate keyed once.
	keys := make([][]string, len(states))
	ev.Parallel(ctx, len(states), func(i int) {
		st := states[i]
		st.space = BuildSpace(cat, doc.Claims[i], scores[i], priors, pool, cfg)
		st.top = st.space.TopCandidates(cfg.EvalBudget, cfg.MaxPreds)
		st.queries = make([]sqlexec.Query, len(st.top))
		keys[i] = make([]string, len(st.top))
		for j, c := range st.top {
			st.queries[j] = st.space.Query(c)
			keys[i][j] = st.queries[j].Key()
		}
	})

	if ctx.Err() != nil {
		return
	}

	// Phase 2: one cross-claim batch. Claims frequently share candidates
	// (same table, same salient literals), and EM iterations mostly revisit
	// them, so only the queries the table has not seen are evaluated.
	for i, st := range states {
		st.ids = make([]int32, len(st.top))
		for j, key := range keys[i] {
			id, ok := tab.ids[key]
			if !ok {
				id = int32(len(tab.keys))
				tab.ids[key] = id
				tab.keys = append(tab.keys, key)
				tab.queries = append(tab.queries, st.queries[j])
			}
			st.ids[j] = id
		}
	}
	if batch := tab.queries[len(tab.results):]; len(batch) > 0 {
		tab.results = append(tab.results, ev.EvaluateBatch(ctx, batch)...)
		res.EvaluatedQueries = len(tab.results)
	}

	if ctx.Err() != nil {
		return
	}

	// Phase 3: match bookkeeping under the fresh results.
	ev.Parallel(ctx, len(states), func(i int) {
		st := states[i]
		st.matches = make([]bool, len(st.top))
		st.matched = st.matched[:0]
		st.probMatched = 0
		for j, c := range st.top {
			st.matches[j] = Matches(tab.results[st.ids[j]], doc.Claims[i].Claimed.Value)
			if st.matches[j] {
				st.matched = append(st.matched, j)
				st.probMatched += c.Prob
			}
		}
	})
}

// zOf returns the posterior normalization constant of a claim state:
// Z = (1-pT)·(1-M) + pT·M with M the matched base mass (base mass totals 1).
func zOf(st *claimState, cfg Config) float64 {
	if !cfg.UseEvalResults {
		return 1
	}
	return (1-cfg.PT)*(1-st.probMatched) + cfg.PT*st.probMatched
}

// posteriorWeight scales a candidate's base probability by the evaluation
// factor Pr(Ec|Qc).
func posteriorWeight(prob float64, matches bool, cfg Config) float64 {
	if !cfg.UseEvalResults {
		return prob
	}
	if matches {
		return prob * cfg.PT
	}
	return prob * (1 - cfg.PT)
}

// mlIndex returns the index (into st.top) of the maximum-likelihood
// candidate under the posterior.
func mlIndex(st *claimState, cfg Config) int {
	best, bestW := -1, -1.0
	for j, c := range st.top {
		w := posteriorWeight(c.Prob, st.matches[j], cfg)
		if w > bestW {
			best, bestW = j, w
		}
	}
	return best
}

// accumulate adds a claim's contribution to the maximization statistics:
// its maximum-likelihood query, counted as one (hard EM, as in the
// paper's Algorithm 3).
func accumulate(cat *fragments.Catalog, st *claimState, cfg Config, stats *priorStats) {
	if len(st.top) == 0 {
		return
	}
	if j := mlIndex(st, cfg); j >= 0 {
		stats.addQuery(cat, st.queries[j])
	}
}

// assemble produces the final ranked query list and verdict for a claim.
func assemble(claim *document.Claim, st *claimState, tab *queryTable, cfg Config) ClaimResult {
	out := ClaimResult{Claim: claim}
	if len(st.top) == 0 {
		return out
	}
	z := zOf(st, cfg)
	type scored struct {
		j int
		w float64
	}
	seen := make(map[int32]bool)
	var pool []scored
	add := func(j int) {
		if seen[st.ids[j]] {
			return
		}
		seen[st.ids[j]] = true
		pool = append(pool, scored{j: j, w: posteriorWeight(st.top[j].Prob, st.matches[j], cfg)})
	}
	// Top base candidates plus every matching candidate (whose posterior
	// is boosted by pT and may overtake). Compare before multiplying, so a
	// huge TopQueries cannot wrap the limit negative.
	limit := len(st.top)
	if cfg.TopQueries <= limit/3 {
		limit = cfg.TopQueries * 3
	}
	for j := 0; j < limit; j++ {
		add(j)
	}
	for _, j := range st.matched {
		add(j)
	}
	sort.Slice(pool, func(a, b int) bool {
		if pool[a].w != pool[b].w {
			return pool[a].w > pool[b].w
		}
		return tab.keys[st.ids[pool[a].j]] < tab.keys[st.ids[pool[b].j]]
	})
	n := cfg.TopQueries
	if n > len(pool) {
		n = len(pool)
	}
	for _, sc := range pool[:n] {
		out.Ranked = append(out.Ranked, RankedQuery{
			Query:   st.queries[sc.j],
			Prob:    sc.w / z,
			Result:  tab.results[st.ids[sc.j]],
			Matches: st.matches[sc.j],
		})
	}
	if cfg.UseEvalResults {
		out.PCorrect = cfg.PT * st.probMatched / z
	} else if len(out.Ranked) > 0 && out.Ranked[0].Matches {
		out.PCorrect = 1
	}
	if len(out.Ranked) > 0 {
		out.Erroneous = !out.Ranked[0].Matches
	}
	return out
}
