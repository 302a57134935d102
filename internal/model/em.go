package model

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"

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
	// EvaluatedQueries counts distinct queries sent to the evaluator
	// (deduplicated across the claims of the document).
	EvaluatedQueries int
}

// claimState carries per-claim working data across EM iterations; the
// results map is the claim-level evaluation memo (cube-level caching lives
// in the engine).
type claimState struct {
	space   *Space
	top     []*Candidate
	queries []sqlexec.Query
	results map[string]float64
	// matched indexes top for candidates whose result rounds to the claim.
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
	// EvaluatedQueries is the running count of distinct queries evaluated.
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
		states[i] = &claimState{results: make(map[string]float64)}
	}

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
		eStep(ctx, cat, doc, scores, ev, cfg, pool, priors, states, res)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !cfg.UsePriors {
			notify(obs, res, doc, states, cfg, 0, false)
			break
		}
		stats := newPriorStats(cat)
		for i := range states {
			accumulate(cat, states[i], cfg, stats)
		}
		next := stats.maximize(cfg.PriorAlpha)
		delta := priors.MaxDelta(next)
		priors = next
		notify(obs, res, doc, states, cfg, delta, false)
		if delta < cfg.ConvergeEps {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Final expectation pass under the converged priors.
	eStep(ctx, cat, doc, scores, ev, cfg, pool, priors, states, res)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.Priors = priors
	res.Claims = make([]ClaimResult, len(doc.Claims))
	for i := range states {
		res.Claims[i] = assemble(doc.Claims[i], states[i], cfg)
	}
	notify(obs, res, doc, states, cfg, 0, true)
	return res, nil
}

// notify assembles a per-claim snapshot and delivers it to the observer.
// Assembly only happens when an observer is installed — plain Check runs
// pay nothing for the streaming hook.
func notify(obs Observer, res *Result, doc *document.Document, states []*claimState, cfg Config, delta float64, final bool) {
	if obs == nil {
		return
	}
	claims := make([]ClaimResult, len(states))
	for i := range states {
		claims[i] = assemble(doc.Claims[i], states[i], cfg)
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
// three phases: claim workers build candidate spaces and collect the
// queries still unevaluated; the union of those needs — deduplicated
// across claims — goes to the evaluator as one document-level batch (§6.3:
// merged cube passes span the claims of a document); and claim workers
// redo the match bookkeeping. All accumulation is per-claim, so the
// outcome is deterministic.
func eStep(ctx context.Context, cat *fragments.Catalog, doc *document.Document, scores []keywords.Scores, ev Evaluator, cfg Config, pool *LiteralPool, priors *Priors, states []*claimState, res *Result) {
	workers := runtime.GOMAXPROCS(0)

	// Phase 1: candidate construction and per-claim evaluation needs.
	needQ := make([][]sqlexec.Query, len(states))
	needKeys := make([][]string, len(states))
	runParallel(workers, len(states), func(i int) {
		st := states[i]
		st.space = BuildSpace(cat, doc.Claims[i], scores[i], priors, pool, cfg)
		st.top = st.space.TopCandidates(cfg.EvalBudget, cfg.MaxPreds)
		st.queries = make([]sqlexec.Query, len(st.top))
		for j, c := range st.top {
			q := st.space.Query(c)
			st.queries[j] = q
			key := q.Key()
			if _, ok := st.results[key]; !ok {
				needQ[i] = append(needQ[i], q)
				needKeys[i] = append(needKeys[i], key)
				st.results[key] = math.NaN() // reserve to dedupe within the claim
			}
		}
	})

	// Phase 2: one cross-claim batch. Claims frequently share candidates
	// (same table, same salient literals), so the union is deduplicated by
	// query key before evaluation and results are distributed back to every
	// claim that asked.
	var batch []sqlexec.Query
	batchIdx := make(map[string]int)
	for i := range states {
		for k, key := range needKeys[i] {
			if _, ok := batchIdx[key]; !ok {
				batchIdx[key] = len(batch)
				batch = append(batch, needQ[i][k])
			}
		}
	}
	if len(batch) > 0 {
		vals := ev.EvaluateBatch(ctx, batch)
		res.EvaluatedQueries += len(batch)
		for i := range states {
			st := states[i]
			for _, key := range needKeys[i] {
				st.results[key] = vals[batchIdx[key]]
			}
		}
	}

	// Phase 3: match bookkeeping under the fresh results.
	runParallel(workers, len(states), func(i int) {
		st := states[i]
		st.matched = st.matched[:0]
		st.probMatched = 0
		for j, c := range st.top {
			r := st.results[st.queries[j].Key()]
			if Matches(r, doc.Claims[i].Claimed.Value) {
				st.matched = append(st.matched, j)
				st.probMatched += c.Prob
			}
		}
	})
}

// runParallel executes fn(0..n-1) on a bounded worker pool. Each index is
// processed exactly once; fn must only touch per-index state.
func runParallel(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
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
func mlIndex(st *claimState, claimed float64, cfg Config) int {
	best, bestW := -1, -1.0
	for j, c := range st.top {
		r := st.results[st.queries[j].Key()]
		w := posteriorWeight(c.Prob, Matches(r, claimed), cfg)
		if w > bestW {
			best, bestW = j, w
		}
	}
	return best
}

// accumulate adds a claim's contribution to the maximization statistics:
// hard EM counts the maximum-likelihood query; soft EM adds posterior
// marginals (closed-form base marginals plus the matched-candidate
// correction).
func accumulate(cat *fragments.Catalog, st *claimState, cfg Config, stats *priorStats) {
	if len(st.top) == 0 {
		return
	}
	claimed := st.space.claim.Claimed.Value
	if !cfg.SoftEM {
		if j := mlIndex(st, claimed, cfg); j >= 0 {
			stats.addQuery(cat, st.queries[j])
		}
		return
	}
	z := zOf(st, cfg)
	if z <= 0 {
		return
	}
	lowFactor := (1 - cfg.PT) / z
	boost := (2*cfg.PT - 1) / z
	if !cfg.UseEvalResults {
		lowFactor, boost = 1, 0
	}
	fnM, colM, restrictM := st.space.baseMarginals()
	stats.claims++
	for f, m := range fnM {
		stats.fn[f] += m * lowFactor
	}
	for c, m := range colM {
		stats.col[c] += m * lowFactor
	}
	for p, m := range restrictM {
		stats.restrict[p] += m * lowFactor
	}
	if boost != 0 {
		for _, j := range st.matched {
			c := st.top[j]
			fc := st.space.fcs[c.fc]
			stats.fn[fc.fnIdx] += c.Prob * boost
			stats.col[fc.colIdx] += c.Prob * boost
			for k, ci := range c.choice {
				if st.space.cols[k].options[ci].fragID != -1 {
					stats.restrict[st.space.cols[k].predIdx] += c.Prob * boost
				}
			}
		}
	}
}

// assemble produces the final ranked query list and verdict for a claim.
func assemble(claim *document.Claim, st *claimState, cfg Config) ClaimResult {
	out := ClaimResult{Claim: claim}
	if len(st.top) == 0 {
		return out
	}
	z := zOf(st, cfg)
	type scored struct {
		j int
		w float64
	}
	seen := make(map[string]bool)
	var pool []scored
	add := func(j int) {
		key := st.queries[j].Key()
		if seen[key] {
			return
		}
		seen[key] = true
		r := st.results[key]
		w := posteriorWeight(st.top[j].Prob, Matches(r, claim.Claimed.Value), cfg)
		pool = append(pool, scored{j: j, w: w})
	}
	// Top base candidates plus every matching candidate (whose posterior
	// is boosted by pT and may overtake).
	limit := cfg.TopQueries * 3
	if limit > len(st.top) {
		limit = len(st.top)
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
		return st.queries[pool[a].j].Key() < st.queries[pool[b].j].Key()
	})
	n := cfg.TopQueries
	if n > len(pool) {
		n = len(pool)
	}
	for _, sc := range pool[:n] {
		r := st.results[st.queries[sc.j].Key()]
		out.Ranked = append(out.Ranked, RankedQuery{
			Query:   st.queries[sc.j],
			Prob:    sc.w / z,
			Result:  r,
			Matches: Matches(r, claim.Claimed.Value),
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
