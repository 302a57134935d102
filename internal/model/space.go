package model

import (
	"container/heap"
	"sort"

	"aggchecker/internal/document"
	"aggchecker/internal/fragments"
	"aggchecker/internal/keywords"
	"aggchecker/internal/sqlexec"
)

// fcOption is a valid (aggregation function, aggregation column) pair.
type fcOption struct {
	fnIdx  int // == int(sqlexec.AggFunc)
	colIdx int // index into catalog.Columns
	weight float64
}

// litOption is one choice for a scope column: a literal or "no restriction".
type litOption struct {
	fragID int // -1 for no restriction
	value  string
	weight float64
}

// scopeColumn is one predicate column within a claim's evaluation scope.
type scopeColumn struct {
	predIdx int // index into catalog.PredColumns
	ref     sqlexec.ColumnRef
	options []litOption // sorted descending by weight; exactly one none
	noneIdx int         // position of the none option
}

// Space is the candidate query space of one claim: the cross product of FC
// pairs and per-column predicate choices, with normalized per-category
// weights so the base distribution over the space sums to one.
type Space struct {
	cat   *fragments.Catalog
	claim *document.Claim
	fcs   []fcOption
	cols  []scopeColumn
}

// LiteralPool carries the document-wide literals with non-zero marginal
// probability per predicate column (§6.3): the union over claims of
// retrieved predicate fragments. It lets one claim's candidates include
// literals surfaced only by other claims — the cross-claim transfer of
// Example 5.
type LiteralPool struct {
	byColumn map[int][]poolLit // predIdx -> literals, sorted by score desc
}

type poolLit struct {
	fragID int
	value  string
	score  float64
}

// sumScores adds a score map's values in sorted-key order. Plain map
// iteration would sum floats in a run-dependent order and leak ULP-level
// nondeterminism into every normalized weight downstream — which breaks
// the bit-for-bit verdict pin and the audit-vs-isolated report
// differential.
func sumScores(m map[int]float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	total := 0.0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// BuildPool aggregates retrieved predicate fragments across all claims.
func BuildPool(cat *fragments.Catalog, allScores []keywords.Scores, cfg Config) *LiteralPool {
	acc := make(map[int]float64) // fragID -> summed normalized score
	for _, s := range allScores {
		total := sumScores(s.Preds)
		if total == 0 {
			continue
		}
		for id, v := range s.Preds {
			acc[id] += v / total
		}
	}
	pool := &LiteralPool{byColumn: make(map[int][]poolLit)}
	for id, score := range acc {
		f := cat.Fragment(id)
		j := cat.PredColumnIndex(f.Col)
		if j < 0 {
			continue
		}
		pool.byColumn[j] = append(pool.byColumn[j], poolLit{fragID: id, value: f.Value, score: score})
	}
	for j := range pool.byColumn {
		lits := pool.byColumn[j]
		sort.Slice(lits, func(a, b int) bool {
			if lits[a].score != lits[b].score {
				return lits[a].score > lits[b].score
			}
			return lits[a].fragID < lits[b].fragID
		})
		if cfg.LitsPerColumn > 0 && len(lits) > cfg.LitsPerColumn {
			lits = lits[:cfg.LitsPerColumn]
		}
		pool.byColumn[j] = lits
	}
	return pool
}

// Literals exports the pooled literals per predicate column, keyed by the
// column reference string; the cube evaluator uses this as the stable
// document-wide InOrDefault literal set (§6.3).
func (p *LiteralPool) Literals(cat *fragments.Catalog) map[string][]string {
	out := make(map[string][]string, len(p.byColumn))
	for j, lits := range p.byColumn {
		key := cat.PredColumns[j].String()
		vals := make([]string, len(lits))
		for i, l := range lits {
			vals[i] = l.value
		}
		out[key] = vals
	}
	return out
}

// ColumnScore returns the total pooled score of a predicate column.
func (p *LiteralPool) ColumnScore(predIdx int) float64 {
	var t float64
	for _, l := range p.byColumn[predIdx] {
		t += l.score
	}
	return t
}

// BuildSpace constructs the candidate space of a claim from its relevance
// scores, the current priors, and the document literal pool.
func BuildSpace(cat *fragments.Catalog, claim *document.Claim, scores keywords.Scores, priors *Priors, pool *LiteralPool, cfg Config) *Space {
	s := &Space{cat: cat, claim: claim}
	s.buildFCs(scores, priors, cfg)
	s.buildScope(scores, priors, pool, cfg)
	return s
}

// normalizeScores turns raw IR scores into a distribution over retrieved
// fragments (zero for everything else).
func normalizeScores(raw map[int]float64) map[int]float64 {
	total := sumScores(raw)
	if total == 0 {
		return map[int]float64{}
	}
	out := make(map[int]float64, len(raw))
	for k, v := range raw {
		out[k] = v / total
	}
	return out
}

func (s *Space) buildFCs(scores keywords.Scores, priors *Priors, cfg Config) {
	cat := s.cat
	fnScore := normalizeScores(scores.Funcs)
	colScore := normalizeScores(scores.Cols)

	scale := cfg.ScoreScale
	if scale <= 0 {
		scale = 1
	}

	// Function weights.
	fw := make([]float64, len(cat.Funcs))
	for i, f := range cat.Funcs {
		w := scale*fnScore[f.ID] + cfg.Smoothing
		if cfg.UsePriors {
			w *= priors.Fn[i]
		}
		fw[i] = w
	}

	// Column options: star always, plus the best MaxAggCols-1 others.
	//
	// Text columns can only serve CountDistinct, and their keyword hits are
	// usually predicate evidence in disguise ("lifetime bans" describes
	// games='indef', not "distinct games"). §4.2 of the paper admits only
	// numerical columns as aggregation columns, yet its own Table 9 needs
	// CountDistinct over a text column — we resolve the tension by gating a
	// text column's aggregation-role weight with the claim's distinct-style
	// function evidence ("different", "distinct", "separate", …): without
	// such a cue the column falls back to the smoothing floor.
	cdScore := 0.0
	for _, f := range cat.Funcs {
		if f.Fn == sqlexec.CountDistinct {
			cdScore = fnScore[f.ID]
		}
	}
	cdGate := scale * cdScore / (1 + scale*cdScore)
	type colOpt struct {
		idx int
		w   float64
	}
	var copts []colOpt
	for i, f := range cat.Columns {
		evidence := scale * colScore[f.ID]
		if f.DistinctOnly {
			evidence *= cdGate
		}
		w := evidence + cfg.Smoothing
		if cfg.UsePriors {
			w *= priors.Col[i]
		}
		copts = append(copts, colOpt{idx: i, w: w})
	}
	sort.Slice(copts, func(a, b int) bool {
		if copts[a].w != copts[b].w {
			return copts[a].w > copts[b].w
		}
		return copts[a].idx < copts[b].idx
	})
	max := cfg.MaxAggCols
	if max <= 0 {
		max = 1
	}
	kept := make([]colOpt, 0, max)
	starIn := false
	for _, co := range copts {
		if len(kept) >= max {
			break
		}
		kept = append(kept, co)
		if co.idx == 0 {
			starIn = true
		}
	}
	if !starIn {
		// Star is always a candidate (counts are the most common claims).
		for _, co := range copts {
			if co.idx == 0 {
				kept = append(kept, co)
				break
			}
		}
	}

	// Valid (fn, col) pairs.
	var total float64
	for fi := range cat.Funcs {
		fn := sqlexec.AggFunc(fi)
		for _, co := range kept {
			colFrag := cat.Columns[co.idx]
			if !validPair(fn, colFrag) {
				continue
			}
			w := fw[fi] * co.w
			s.fcs = append(s.fcs, fcOption{fnIdx: fi, colIdx: co.idx, weight: w})
			total += w
		}
	}
	for i := range s.fcs {
		s.fcs[i].weight /= total
	}
	sort.Slice(s.fcs, func(a, b int) bool {
		if s.fcs[a].weight != s.fcs[b].weight {
			return s.fcs[a].weight > s.fcs[b].weight
		}
		if s.fcs[a].fnIdx != s.fcs[b].fnIdx {
			return s.fcs[a].fnIdx < s.fcs[b].fnIdx
		}
		return s.fcs[a].colIdx < s.fcs[b].colIdx
	})
}

// validPair mirrors the query model: star-only functions pair with "*",
// numeric aggregates need numeric columns, CountDistinct accepts any
// concrete column.
func validPair(fn sqlexec.AggFunc, col *fragments.Fragment) bool {
	if fn.StarOnly() {
		return col.Col.IsStar()
	}
	if col.Col.IsStar() {
		return false
	}
	if fn == sqlexec.CountDistinct {
		return true
	}
	return !col.DistinctOnly
}

func (s *Space) buildScope(scores keywords.Scores, priors *Priors, pool *LiteralPool, cfg Config) {
	cat := s.cat
	predScore := normalizeScores(scores.Preds)

	// Group the claim's retrieved literals by predicate column.
	claimLits := make(map[int]map[int]float64) // predIdx -> fragID -> score
	for id, sc := range predScore {
		f := cat.Fragment(id)
		j := cat.PredColumnIndex(f.Col)
		if j < 0 {
			continue
		}
		if claimLits[j] == nil {
			claimLits[j] = make(map[int]float64)
		}
		claimLits[j][id] = sc
	}

	// Rank predicate columns: keyword evidence for this claim, pooled
	// document evidence, and the learned restriction prior.
	type colRank struct {
		j int
		w float64
	}
	var ranks []colRank
	for j := range cat.PredColumns {
		w := cfg.Smoothing + sumScores(claimLits[j])
		if pool != nil {
			w += 0.25 * pool.ColumnScore(j)
		}
		if cfg.UsePriors {
			w *= priors.Restrict[j]
		}
		ranks = append(ranks, colRank{j: j, w: w})
	}
	sort.Slice(ranks, func(a, b int) bool {
		if ranks[a].w != ranks[b].w {
			return ranks[a].w > ranks[b].w
		}
		return ranks[a].j < ranks[b].j
	})
	nScope := cfg.ScopeCols
	if nScope <= 0 || nScope > len(ranks) {
		nScope = len(ranks)
	}

	for _, cr := range ranks[:nScope] {
		j := cr.j
		rj := priors.Restrict[j]
		if !cfg.UsePriors {
			rj = 0.25
		}
		// Literal options: claim-retrieved first, then pool literals.
		seen := make(map[int]bool)
		var opts []litOption
		add := func(fragID int, value string, score float64) {
			if seen[fragID] {
				return
			}
			seen[fragID] = true
			// Literal weight carries the restriction prior p_rj in both the
			// paper-literal and Bernoulli formulations; they differ only in
			// whether the none option is weighted by (1 - p_rj).
			scale := cfg.ScoreScale
			if scale <= 0 {
				scale = 1
			}
			w := (scale*score + cfg.Smoothing) * rj
			opts = append(opts, litOption{fragID: fragID, value: value, weight: w})
		}
		// Claim literals sorted by score for the cap.
		type cl struct {
			id    int
			score float64
		}
		var cls []cl
		for id, sc := range claimLits[j] {
			cls = append(cls, cl{id: id, score: sc})
		}
		sort.Slice(cls, func(a, b int) bool {
			if cls[a].score != cls[b].score {
				return cls[a].score > cls[b].score
			}
			return cls[a].id < cls[b].id
		})
		for _, c := range cls {
			add(c.id, cat.Fragment(c.id).Value, c.score)
		}
		if pool != nil {
			for _, pl := range pool.byColumn[j] {
				add(pl.fragID, pl.value, 0) // pool literals enter with smoothing mass only
			}
		}
		if cfg.LitsPerColumn > 0 && len(opts) > cfg.LitsPerColumn {
			opts = opts[:cfg.LitsPerColumn]
		}
		// The none option.
		noneW := cfg.NoPredScore
		if !cfg.PaperLiteralPriors {
			noneW *= (1 - rj)
		}
		opts = append(opts, litOption{fragID: -1, weight: noneW})
		// Normalize and sort.
		var total float64
		for _, o := range opts {
			total += o.weight
		}
		for i := range opts {
			opts[i].weight /= total
		}
		sort.Slice(opts, func(a, b int) bool {
			if opts[a].weight != opts[b].weight {
				return opts[a].weight > opts[b].weight
			}
			return opts[a].fragID < opts[b].fragID
		})
		noneIdx := 0
		for i, o := range opts {
			if o.fragID == -1 {
				noneIdx = i
			}
		}
		s.cols = append(s.cols, scopeColumn{
			predIdx: j,
			ref:     cat.PredColumns[j],
			options: opts,
			noneIdx: noneIdx,
		})
	}
}

// Candidate is one fully specified candidate query within a space.
type Candidate struct {
	fc     int
	choice []uint16 // option index per scope column
	Prob   float64  // base probability (keyword × prior, normalized)
}

// predCount returns the number of restrictions in a candidate.
func (s *Space) predCount(choice []uint16) int {
	n := 0
	for i, c := range choice {
		if s.cols[i].options[c].fragID != -1 {
			n++
		}
	}
	return n
}

// Query materializes the candidate's query.
func (s *Space) Query(c *Candidate) sqlexec.Query {
	fc := s.fcs[c.fc]
	q := sqlexec.Query{
		Agg:    sqlexec.AggFunc(fc.fnIdx),
		AggCol: s.cat.Columns[fc.colIdx].Col,
	}
	for i, ci := range c.choice {
		opt := s.cols[i].options[ci]
		if opt.fragID == -1 {
			continue
		}
		q.Preds = append(q.Preds, sqlexec.Predicate{Col: s.cols[i].ref, Value: opt.value})
	}
	return q
}

// enumeration heap node
type enumNode struct {
	vec    []uint16 // [0] = fc index, [1:] = per-column option index
	weight float64
}

type enumHeap []*enumNode

func (h enumHeap) Len() int            { return len(h) }
func (h enumHeap) Less(i, j int) bool  { return h[i].weight > h[j].weight }
func (h enumHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *enumHeap) Push(x interface{}) { *h = append(*h, x.(*enumNode)) }
func (h *enumHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopCandidates enumerates the n highest base-probability candidates with
// at most cfg.MaxPreds predicates, in descending probability order. The
// product space is explored best-first: each popped vector's successors
// increment one coordinate to the next-lower-weight option.
func (s *Space) TopCandidates(n int, maxPreds int) []*Candidate {
	if len(s.fcs) == 0 {
		return nil
	}
	dims := 1 + len(s.cols)
	weightAt := func(vec []uint16) float64 {
		w := s.fcs[vec[0]].weight
		for i, c := range s.cols {
			w *= c.options[vec[1+i]].weight
		}
		return w
	}
	limitAt := func(d int) int {
		if d == 0 {
			return len(s.fcs)
		}
		return len(s.cols[d-1].options)
	}

	start := make([]uint16, dims)
	h := &enumHeap{{vec: start, weight: weightAt(start)}}
	heap.Init(h)
	visited := map[string]bool{vecKey(start): true}

	var out []*Candidate
	pops := 0
	maxPops := n*20 + 2000
	for h.Len() > 0 && len(out) < n && pops < maxPops {
		node := heap.Pop(h).(*enumNode)
		pops++
		if s.predCount(node.vec[1:]) <= maxPreds {
			out = append(out, &Candidate{
				fc:     int(node.vec[0]),
				choice: append([]uint16(nil), node.vec[1:]...),
				Prob:   node.weight,
			})
		}
		for d := 0; d < dims; d++ {
			if int(node.vec[d])+1 >= limitAt(d) {
				continue
			}
			succ := append([]uint16(nil), node.vec...)
			succ[d]++
			k := vecKey(succ)
			if visited[k] {
				continue
			}
			visited[k] = true
			heap.Push(h, &enumNode{vec: succ, weight: weightAt(succ)})
		}
	}
	return out
}

func vecKey(vec []uint16) string {
	b := make([]byte, len(vec)*2)
	for i, v := range vec {
		b[2*i] = byte(v >> 8)
		b[2*i+1] = byte(v)
	}
	return string(b)
}
