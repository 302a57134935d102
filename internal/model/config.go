// Package model implements §5 of the paper: the probabilistic model that
// maps each claim to a distribution over Simple Aggregate Queries, fitted by
// expectation maximization across the whole document. Candidate queries
// combine per-category options (aggregation function, aggregation column,
// per-column predicate choice); their posterior multiplies keyword-based
// relevance (Sc), document priors (Θ) and evaluation evidence (Ec, weighted
// by the true-claim probability pT). Because the base distribution
// factorizes per category, normalization constants and marginals are
// computed in closed form and only the (small) set of evaluated, matching
// candidates needs enumeration.
package model

import (
	"context"

	"aggchecker/internal/sqlexec"
)

// Config tunes the probabilistic model. DefaultConfig matches the paper's
// main configuration; the ablation flags correspond to Table 5/10 rows and
// the budget knobs to Figure 13.
type Config struct {
	// TopKHits is the number of IR hits retrieved per fragment category
	// ("# Hits", 20 in the paper's main version).
	TopKHits int
	// MaxAggCols bounds the aggregation-column options per claim
	// ("# Aggregates" in Figure 13). The star column is always included.
	MaxAggCols int
	// MaxPreds is the maximum number of equality predicates per candidate
	// query (m = 3 in §6.3).
	MaxPreds int
	// ScopeCols is the number of predicate columns in a claim's evaluation
	// scope (PickScope).
	ScopeCols int
	// LitsPerColumn bounds the literal options per scope column.
	LitsPerColumn int
	// EvalBudget is the number of top candidates evaluated per claim and
	// EM iteration (the paper evaluates "tens of thousands" per document).
	EvalBudget int
	// TopQueries is the length of the per-claim ranked query list kept for
	// the user interface and top-k coverage metrics.
	TopQueries int

	// PT is the assumed a-priori probability of a claim being correct
	// (pT = 0.999 in the paper; Figure 12 sweeps it).
	PT float64
	// Smoothing is the additive mass given to fragments outside the
	// retrieved set, letting evaluation results and priors resurrect
	// keyword-invisible fragments (Example 5 of the paper).
	Smoothing float64
	// ScoreScale multiplies normalized relevance scores before smoothing.
	// It sets how decisively keyword evidence beats the smoothing floor —
	// Figure 2(e) of the paper shows two-predicate candidates leading the
	// keyword distribution when their fragments match claim keywords, which
	// requires strong literals to outweigh the no-predicate mass.
	ScoreScale float64
	// NoPredScore is the relevance mass of "no restriction on this column".
	NoPredScore float64

	// UseEvalResults includes the Ec factor (ablation: Table 10 row 2).
	UseEvalResults bool
	// UsePriors includes the learned Θ factor (ablation: Table 10 row 3).
	UsePriors bool
	// PaperLiteralPriors reproduces §5.3's literal prior formula, which
	// multiplies p_ri only over restricted columns; the default uses the
	// full Bernoulli product (see DESIGN.md).
	PaperLiteralPriors bool

	// MaxEMIters bounds expectation-maximization iterations.
	MaxEMIters int
	// ConvergeEps stops EM when no prior component moves more than this.
	ConvergeEps float64
	// PriorAlpha is the Dirichlet smoothing of the maximization step.
	PriorAlpha float64
}

// DefaultConfig returns the paper's main configuration.
func DefaultConfig() Config {
	return Config{
		TopKHits:       20,
		MaxAggCols:     8,
		MaxPreds:       3,
		ScopeCols:      8,
		LitsPerColumn:  8,
		EvalBudget:     2000,
		TopQueries:     20,
		PT:             0.999,
		Smoothing:      0.02,
		ScoreScale:     4.0,
		NoPredScore:    0.35,
		UseEvalResults: true,
		UsePriors:      true,
		MaxEMIters:     5,
		ConvergeEps:    1e-3,
		PriorAlpha:     0.5,
	}
}

// Evaluator supplies query results to the EM loop, and the worker pool its
// per-claim phases run on, so one pool bounds a whole check. Package evaluate
// provides the implementation (evaluate.CubeEvaluator over any strategy,
// topology and pooling); it satisfies the interface structurally so no
// import cycle arises.
type Evaluator interface {
	// SetPool receives the document-wide literal pool (column reference
	// string → literals) once, before the first batch. Evaluators that merge
	// candidates into cubes key their caches on per-column literal sets;
	// knowing every literal up front (§6.3: "all literals with non-zero
	// probability for any claim") keeps cube signatures stable across
	// claims and EM iterations.
	SetPool(pool map[string][]string)
	// EvaluateBatch returns the result of each query, positionally. NaN
	// marks queries whose result is undefined. Implementations must stop
	// early (returning NaN for unevaluated slots) once ctx is cancelled;
	// the EM loop checks ctx.Err() after every batch.
	EvaluateBatch(ctx context.Context, queries []sqlexec.Query) []float64
	// Parallel runs fn(0..n-1), possibly concurrently, and returns once
	// every call has returned. Each index runs at most once, and exactly
	// once unless ctx is done first: then the indexes not yet started are
	// skipped. fn touches only per-index state and never blocks.
	Parallel(ctx context.Context, n int, fn func(i int))
}
