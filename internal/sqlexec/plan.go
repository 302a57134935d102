package sqlexec

import (
	"context"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// This file implements the batch planning layer of §6.2–6.3: a batch of
// candidate queries — typically every unevaluated candidate of every claim
// of a document in one EM iteration — is merged into as few cube passes as
// the m ≤ maxCubeDims limit allows, and the passes are executed by a
// bounded worker pool over the shared engine. Cross-claim deduplication
// happens twice: identical queries collapse before planning, and identical
// concurrent cube requests coalesce inside the engine (singleflight).

// CubePlan is one merged cube pass covering a set of batch queries.
type CubePlan struct {
	Tables []string
	Dims   []DimSpec
	Reqs   []AggRequest
	// QueryIdx indexes the batch queries answered by this cube.
	QueryIdx []int
	// Filter, when non-nil, is an equality predicate shared by every query
	// of the pass: the kernel compacts each scan segment through the
	// predicate's selection vector before dimension coding, and the filter
	// is stripped from the queries when the cube answers them (selection
	// pushdown). Nil plans scan every row as before.
	Filter *Predicate
}

// BatchPlan is the outcome of planning a query batch: merged cube passes
// plus the queries that are cheaper (or only possible) to answer with
// dedicated scans.
type BatchPlan struct {
	Cubes []*CubePlan
	// Direct lists batch indexes answered by per-query scans: queries with
	// more predicate columns than a cube supports, and — when merging is not
	// amortized by a cache — groups too small to pay for a cube pass.
	Direct []int
}

// BatchOptions tunes EvaluateBatch.
type BatchOptions struct {
	// Pool is the document-wide literal pool (ColumnRef.String() → literals
	// of non-zero marginal probability, §6.3). Pooled literals keep cube
	// signatures stable across claims and EM iterations; batch literals are
	// always included as well.
	Pool map[string][]string
	// Workers bounds the worker pool executing cube passes and direct
	// scans; ≤ 0 uses GOMAXPROCS.
	Workers int
	// Naive skips planning and answers every query with its own scan (the
	// "Naive" row of Table 6).
	Naive bool

	// observe, when set, receives the plan RunBatch is about to execute
	// and, per batch query, the index of the deduplicated query the plan
	// refers to. Window counts shared passes from it instead of planning a
	// second time; runners between the two pass their options through.
	observe func(plan *BatchPlan, slot []int)
}

// PlanOptions tunes cube planning (PlanCubesOpt).
type PlanOptions struct {
	// Pool is the document-wide literal pool, as in BatchOptions.Pool.
	Pool map[string][]string
	// MergeSmall keeps small query groups in cube passes (set when a result
	// cache amortizes them); off, groups of ≤ 2 queries go direct.
	MergeSmall bool
	// Pushdown enables the selection-pushdown pre-pass: queries sharing an
	// equality predicate may merge into one filtered cube pass.
	Pushdown bool
}

// pushdownMinShared is the minimum number of batch queries that must share
// an equality predicate before the planner claims them into a filtered
// cube pass. Below it, the regular merged (unfiltered) cubes are at least
// as good: a filtered pass still scans every block the shared predicate's
// zones admit, so its payoff is the per-row work saved across many
// queries, not the scan itself.
const pushdownMinShared = 3

// filterEligible reports whether query q could be answered by a cube pass
// filtered on predicate f. It mirrors CubeResult.stripFilter: the query
// must carry f in a position whose ratio-aggregate denominator the
// filtered cells can reproduce.
func filterEligible(q Query, f Predicate) bool {
	if q.Agg == ConditionalProbability {
		return len(q.Preds) > 0 && q.Preds[0] == f
	}
	if q.Agg == Percentage && !q.AggCol.IsStar() {
		return false
	}
	for _, p := range q.Preds {
		if p == f {
			return true
		}
	}
	return false
}

// strippedCols returns the distinct predicate columns of q after removing
// one occurrence of f — the dimensions a cube filtered on f needs to
// answer q.
func strippedCols(q Query, f Predicate) []ColumnRef {
	stripped := false
	seen := make(map[string]bool, len(q.Preds))
	var refs []ColumnRef
	for _, p := range q.Preds {
		if !stripped && p == f {
			stripped = true
			continue
		}
		if k := p.Col.String(); !seen[k] {
			seen[k] = true
			refs = append(refs, p.Col)
		}
	}
	return refs
}

// queryDimCount is the number of distinct predicate columns of q — the
// dimensions an unfiltered cube hosting q needs.
func queryDimCount(q Query) int {
	seen := make(map[string]bool, len(q.Preds))
	for _, p := range q.Preds {
		seen[p.Col.String()] = true
	}
	return len(seen)
}

// planPushdown runs the selection-pushdown pre-pass: it counts how many
// batch queries share each (join scope, column, literal) equality
// predicate, and greedily claims the most-shared candidates into filtered
// cube passes — each pass scans once, compacting every segment through the
// shared predicate's selection vector, and answers all member queries with
// the predicate stripped. Claimed queries are marked so the regular
// planner skips them; everything left flows through unchanged, so
// pushdown can only remove work, never change an answer.
func planPushdown(plan *BatchPlan, queries []Query, defaultTable string, opt PlanOptions, claimed []bool) {
	type candKey struct {
		tables string
		col    string
		val    string
	}
	type candidate struct {
		key     candKey
		filter  Predicate
		tables  []string
		queries []int
	}
	cands := make(map[candKey]*candidate)
	for i, q := range queries {
		if opt.MergeSmall && len(opt.Pool) > 0 && queryDimCount(q) <= maxCubeDims {
			// Cost rule under caching with a literal pool (a document- or
			// corpus-scale caller, §6.3): this query's own predicate columns
			// fit an unfiltered cube, whose signature is column-set keyed and
			// so stable across batches, documents, and EM iterations — a
			// cache investment every later claim reuses. A filtered pass is
			// keyed by its literal: near-zero reuse across a corpus, one
			// fresh scan per distinct claim value. Pushdown still claims the
			// queries too wide for any unfiltered host (there the shared
			// predicate genuinely frees a dimension slot).
			continue
		}
		tables := q.Tables(defaultTable)
		scope := strings.Join(sortedCopy(tables), ",")
		seen := make(map[Predicate]bool, len(q.Preds))
		for _, p := range q.Preds {
			if seen[p] || !filterEligible(q, p) {
				continue
			}
			seen[p] = true
			// A query too wide even after stripping can never join the pass.
			if len(strippedCols(q, p)) > maxCubeDims {
				continue
			}
			k := candKey{tables: scope, col: p.Col.String(), val: p.Value}
			c, ok := cands[k]
			if !ok {
				c = &candidate{key: k, filter: p, tables: tables}
				cands[k] = c
			}
			c.queries = append(c.queries, i)
		}
	}

	// Deterministic claim order: most-shared predicates first, ties by key.
	clist := make([]*candidate, 0, len(cands))
	for _, c := range cands {
		if len(c.queries) >= pushdownMinShared {
			clist = append(clist, c)
		}
	}
	sort.Slice(clist, func(a, b int) bool {
		ca, cb := clist[a], clist[b]
		if len(ca.queries) != len(cb.queries) {
			return len(ca.queries) > len(cb.queries)
		}
		if ca.key.tables != cb.key.tables {
			return ca.key.tables < cb.key.tables
		}
		if ca.key.col != cb.key.col {
			return ca.key.col < cb.key.col
		}
		return ca.key.val < cb.key.val
	})

	for _, c := range clist {
		// Re-check membership: earlier candidates may have claimed some of
		// these queries already.
		members := c.queries[:0:0]
		for _, i := range c.queries {
			if !claimed[i] {
				members = append(members, i)
			}
		}
		if len(members) < pushdownMinShared {
			continue
		}
		// Cost rule: if every member's full predicate-column set fits one
		// unfiltered cube, the regular planner answers them all in a single
		// merged pass with a batch-stable signature — strictly better than
		// a filtered pass. Pushdown pays off only when the shared predicate
		// frees a dimension slot: the full union exceeds maxCubeDims, so
		// without it the members fragment into several cubes or directs.
		fullUnion := make(map[string]bool)
		for _, i := range members {
			for _, p := range queries[i].Preds {
				fullUnion[p.Col.String()] = true
			}
		}
		if len(fullUnion) <= maxCubeDims {
			continue
		}
		// Greedily pack members into passes whose residual-column union
		// stays within the cube dimension limit (first-fit in batch order,
		// like the unfiltered planner's host folding).
		type bin struct {
			colSet   map[string]bool
			colRefs  []ColumnRef
			queries  []int
			literals map[string]map[string]bool
		}
		var bins []*bin
		for _, i := range members {
			refs := strippedCols(queries[i], c.filter)
			var host *bin
			for _, b := range bins {
				n := len(b.colSet)
				for _, ref := range refs {
					if !b.colSet[ref.String()] {
						n++
					}
				}
				if n <= maxCubeDims {
					host = b
					break
				}
			}
			if host == nil {
				host = &bin{colSet: make(map[string]bool), literals: make(map[string]map[string]bool)}
				bins = append(bins, host)
			}
			host.queries = append(host.queries, i)
			for _, ref := range refs {
				if k := ref.String(); !host.colSet[k] {
					host.colSet[k] = true
					host.colRefs = append(host.colRefs, ref)
				}
			}
			// Residual literals only: the filter value is satisfied by the
			// pass itself and must not widen the dimensions.
			stripped := false
			for _, p := range queries[i].Preds {
				if !stripped && p == c.filter {
					stripped = true
					continue
				}
				k := p.Col.String()
				if host.literals[k] == nil {
					host.literals[k] = make(map[string]bool)
				}
				host.literals[k][p.Value] = true
			}
		}
		for _, b := range bins {
			if len(b.queries) < pushdownMinShared {
				continue // too small to beat the unfiltered planner; leave unclaimed
			}
			refs := append([]ColumnRef(nil), b.colRefs...)
			sort.Slice(refs, func(x, y int) bool { return refs[x].String() < refs[y].String() })
			dims := make([]DimSpec, 0, len(refs))
			for _, ref := range refs {
				dims = append(dims, DimSpec{
					Col:      ref,
					Literals: mergedLiterals(opt.Pool[ref.String()], b.literals[ref.String()]),
				})
			}
			reqs := make([]AggRequest, 0, len(b.queries))
			for _, i := range b.queries {
				reqs = append(reqs, AggRequest{Fn: queries[i].Agg, Col: queries[i].AggCol})
				claimed[i] = true
			}
			f := c.filter
			plan.Cubes = append(plan.Cubes, &CubePlan{
				Tables:   c.tables,
				Dims:     dims,
				Reqs:     reqs,
				QueryIdx: append([]int(nil), b.queries...),
				Filter:   &f,
			})
		}
	}
}

// PlanCubesOpt merges a query batch into cube passes. Queries are grouped
// by (join scope, predicate column set); a group whose column set is a
// subset of another group's is answered from the larger cube, and remaining
// groups over the same scope are greedily unioned into wider cubes while
// the combined dimension count stays within maxCubeDims (the paper's m ≤ 3
// merging, applied across claims). When opt.MergeSmall is false (no result
// cache to amortize a pass), groups holding ≤ 2 queries are answered with
// direct scans instead — the cost model of §6.1. When opt.Pushdown is set,
// a pre-pass first claims queries sharing an equality predicate into
// filtered cube passes (selection pushdown); the remainder is merged into
// unfiltered cubes as above.
func PlanCubesOpt(queries []Query, defaultTable string, opt PlanOptions) *BatchPlan {
	plan := &BatchPlan{}
	if len(queries) == 0 {
		return plan
	}
	pool, mergeSmall := opt.Pool, opt.MergeSmall
	claimed := make([]bool, len(queries))
	if opt.Pushdown {
		planPushdown(plan, queries, defaultTable, opt, claimed)
	}

	type groupKey struct {
		tables string
		cols   string
	}
	type group struct {
		sig      string
		tables   []string
		colRefs  []ColumnRef
		colSet   map[string]bool
		queries  []int
		literals map[string]map[string]bool
	}
	groups := make(map[groupKey]*group)
	for i, q := range queries {
		if claimed[i] {
			continue
		}
		tables := q.Tables(defaultTable)
		var colKeys []string
		colSet := make(map[string]bool, len(q.Preds))
		var colRefs []ColumnRef
		for _, p := range q.Preds {
			k := p.Col.String()
			if !colSet[k] {
				colSet[k] = true
				colKeys = append(colKeys, k)
				colRefs = append(colRefs, p.Col)
			}
		}
		if len(colSet) > maxCubeDims {
			plan.Direct = append(plan.Direct, i)
			continue
		}
		sort.Strings(colKeys)
		key := groupKey{tables: strings.Join(sortedCopy(tables), ","), cols: strings.Join(colKeys, "|")}
		g, ok := groups[key]
		if !ok {
			g = &group{
				sig:      key.tables + "#" + key.cols,
				tables:   tables,
				colRefs:  colRefs,
				colSet:   colSet,
				literals: make(map[string]map[string]bool),
			}
			groups[key] = g
		}
		g.queries = append(g.queries, i)
		for _, p := range q.Preds {
			k := p.Col.String()
			if g.literals[k] == nil {
				g.literals[k] = make(map[string]bool)
			}
			g.literals[k][p.Value] = true
		}
	}

	// Deterministic group order: widest column sets first, ties by signature.
	glist := make([]*group, 0, len(groups))
	for _, g := range groups {
		glist = append(glist, g)
	}
	sort.Slice(glist, func(a, b int) bool {
		if len(glist[a].colSet) != len(glist[b].colSet) {
			return len(glist[a].colSet) > len(glist[b].colSet)
		}
		return glist[a].sig < glist[b].sig
	})

	// Fold each group into the first host it fits: same join scope and a
	// column-set union still within the cube dimension limit. Because wide
	// groups come first, subset groups land in their superset's cube and
	// narrow disjoint groups pack into shared wider cubes.
	var hosts []*group
	for _, g := range glist {
		var host *group
		for _, h := range hosts {
			if !sameTables(g.tables, h.tables) {
				continue
			}
			if unionSize(g.colSet, h.colSet) <= maxCubeDims {
				host = h
				break
			}
		}
		if host == nil {
			hosts = append(hosts, g)
			continue
		}
		host.queries = append(host.queries, g.queries...)
		for col, lits := range g.literals {
			if host.literals[col] == nil {
				host.literals[col] = make(map[string]bool)
			}
			for l := range lits {
				host.literals[col][l] = true
			}
		}
		for _, ref := range g.colRefs {
			if !host.colSet[ref.String()] {
				host.colSet[ref.String()] = true
				host.colRefs = append(host.colRefs, ref)
			}
		}
	}

	for _, h := range hosts {
		// Cost model (§6.1): a cube pass costs a scan with 2^dims
		// accumulator updates per row. Without a cache to amortize it, a
		// host holding only a couple of queries is cheaper to answer with
		// direct scans; with caching on, the cube is an investment reused
		// by later claims and EM iterations.
		if !mergeSmall && len(h.queries) <= 2 {
			plan.Direct = append(plan.Direct, h.queries...)
			continue
		}
		refs := append([]ColumnRef(nil), h.colRefs...)
		sort.Slice(refs, func(a, b int) bool { return refs[a].String() < refs[b].String() })
		dims := make([]DimSpec, 0, len(refs))
		for _, ref := range refs {
			dims = append(dims, DimSpec{
				Col:      ref,
				Literals: mergedLiterals(pool[ref.String()], h.literals[ref.String()]),
			})
		}
		sort.Ints(h.queries)
		reqs := make([]AggRequest, 0, len(h.queries))
		for _, i := range h.queries {
			reqs = append(reqs, AggRequest{Fn: queries[i].Agg, Col: queries[i].AggCol})
		}
		plan.Cubes = append(plan.Cubes, &CubePlan{
			Tables:   h.tables,
			Dims:     dims,
			Reqs:     reqs,
			QueryIdx: h.queries,
		})
	}
	sort.Ints(plan.Direct)
	return plan
}

// mergedLiterals unions pooled and batch literals, sorted so cube
// signatures and literal indexes are deterministic.
func mergedLiterals(pool []string, batch map[string]bool) []string {
	set := make(map[string]bool, len(pool)+len(batch))
	for _, l := range pool {
		set[l] = true
	}
	for l := range batch {
		set[l] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func unionSize(a, b map[string]bool) int {
	n := len(b)
	for k := range a {
		if !b[k] {
			n++
		}
	}
	return n
}

func sameTables(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	return strings.Join(sortedCopy(a), ",") == strings.Join(sortedCopy(b), ",")
}

// Backend is where a planned batch physically runs. *Engine runs both
// operations locally; shard.Coordinator fans each out to its partitions and
// merges the partials. Everything else about a batch — deduplication,
// planning, the worker pool, answering from cells, the direct-scan fallback
// — is RunBatch, once, for every backend.
type Backend interface {
	// CubePass runs one planned cube pass.
	CubePass(ctx context.Context, p *CubePlan) (*CubeResult, error)
	// DirectScan answers one query with a dedicated scan.
	DirectScan(ctx context.Context, q Query) (float64, error)
}

// RunBatch answers every query of the batch, positionally, on backend b.
// Duplicate queries (by canonical key) are evaluated once; the remainder is
// planned under policy (Pool comes from opts) into merged cube passes that
// a bounded worker pool executes concurrently, and each query is answered
// from its cube cell. Queries a cube pass cannot answer (planner fallback,
// cube errors) are evaluated with direct scans, as is the whole batch under
// opts.Naive. NaN marks undefined results. stats receives the batch
// counters; table anchors queries that reference no column.
//
// Cancellation is checked before every cube pass and direct scan, and
// periodically inside scans: once ctx is done the remaining work is skipped
// and the corresponding slots are NaN. Callers that need to distinguish
// cancellation from undefined results must check ctx.Err() afterwards.
func RunBatch(ctx context.Context, b Backend, stats *Stats, table string, policy PlanOptions, queries []Query, opts BatchOptions) []float64 {
	out := make([]float64, len(queries))
	if len(queries) == 0 {
		return out
	}
	stats.BatchQueries.Add(int64(len(queries)))

	// Cross-claim deduplication by canonical query key.
	uniq := make([]Query, 0, len(queries))
	uniqIdx := make(map[string]int, len(queries))
	slot := make([]int, len(queries))
	for i, q := range queries {
		k := q.Key()
		j, ok := uniqIdx[k]
		if !ok {
			j = len(uniq)
			uniqIdx[k] = j
			uniq = append(uniq, q)
		}
		slot[i] = j
	}

	var plan *BatchPlan
	if opts.Naive {
		plan = &BatchPlan{Direct: make([]int, len(uniq))}
		for i := range plan.Direct {
			plan.Direct[i] = i
		}
	} else {
		policy.Pool = opts.Pool
		plan = PlanCubesOpt(uniq, table, policy)
		stats.PlannedCubes.Add(int64(len(plan.Cubes)))
	}
	if opts.observe != nil {
		opts.observe(plan, slot)
	}
	// Pre-fill with NaN so slots skipped after cancellation read as
	// undefined rather than zero; every answered slot is overwritten.
	res := make([]float64, len(uniq))
	for i := range res {
		res[i] = math.NaN()
	}

	direct := func(i int) {
		v, err := b.DirectScan(ctx, uniq[i])
		if err != nil {
			v = math.NaN()
		}
		res[i] = v
	}
	// Each task writes disjoint slots of res, so no lock is needed.
	task := func(t int) {
		if t >= len(plan.Cubes) {
			direct(plan.Direct[t-len(plan.Cubes)])
			return
		}
		p := plan.Cubes[t]
		cube, err := b.CubePass(ctx, p)
		if err != nil && ctx.Err() != nil {
			return // slots stay NaN
		}
		for _, i := range p.QueryIdx {
			if err == nil {
				if v, ok := cube.Value(uniq[i]); ok {
					stats.CubeAnswers.Add(1)
					res[i] = v
					continue
				}
			}
			direct(i)
		}
	}

	tasks := len(plan.Cubes) + len(plan.Direct)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	// Stop feeding once the request is cancelled; workers drain what was
	// already queued (each task re-checks ctx and is a no-op).
	if workers <= 1 {
		for t := 0; t < tasks && ctx.Err() == nil; t++ {
			task(t)
		}
	} else {
		ch := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range ch {
					task(t)
				}
			}()
		}
		for t := 0; t < tasks && ctx.Err() == nil; t++ {
			ch <- t
		}
		close(ch)
		wg.Wait()
	}

	for i := range out {
		out[i] = res[slot[i]]
	}
	return out
}

// EvaluateBatch runs the batch on the local engine: passes and scans read
// the context-pinned snapshot, merging is amortized by the cube cache when
// caching is on, and the planner may push shared selections down.
func (e *Engine) EvaluateBatch(ctx context.Context, queries []Query, opts BatchOptions) []float64 {
	return RunBatch(ctx, e, &e.Stats, e.DefaultTable(),
		PlanOptions{MergeSmall: e.CachingEnabled(), Pushdown: e.PushdownEnabled()}, queries, opts)
}

// CubePass implements Backend.
func (e *Engine) CubePass(ctx context.Context, p *CubePlan) (*CubeResult, error) {
	return e.cubeForContext(ctx, p.Tables, p.Dims, p.Reqs, p.Filter)
}

// DirectScan implements Backend.
func (e *Engine) DirectScan(ctx context.Context, q Query) (float64, error) {
	return e.EvaluateContext(ctx, q)
}
