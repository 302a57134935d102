package sqlexec

import (
	"sort"
	"sync"
)

// LiteralPool accumulates, per predicate column (ColumnRef.String()), the
// literals cube dimensions should cover (§6.3). The pool only grows, so
// the literal sets the planner sees converge — over a document's claims
// and EM iterations, or over a whole corpus — and cached cubes keep their
// shape instead of recomputing. The zero value is empty and ready; it is
// safe for concurrent use.
type LiteralPool struct {
	mu   sync.Mutex
	cols map[string]map[string]bool
}

func (p *LiteralPool) addLocked(col, lit string) {
	if p.cols == nil {
		p.cols = make(map[string]map[string]bool)
	}
	set := p.cols[col]
	if set == nil {
		set = make(map[string]bool)
		p.cols[col] = set
	}
	set[lit] = true
}

// Add folds a column → literals map into the pool.
func (p *LiteralPool) Add(lits map[string][]string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for col, ls := range lits {
		for _, l := range ls {
			p.addLocked(col, l)
		}
	}
}

// For folds the batch's own literals into the pool and returns a sorted
// snapshot restricted to the predicate columns the batch touches (the only
// pool entries the planner reads).
func (p *LiteralPool) For(queries []Query) map[string][]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string][]string)
	for _, q := range queries {
		for _, pr := range q.Preds {
			col := pr.Col.String()
			out[col] = nil
			p.addLocked(col, pr.Value)
		}
	}
	for col := range out {
		lits := make([]string, 0, len(p.cols[col]))
		for l := range p.cols[col] {
			lits = append(lits, l)
		}
		sort.Strings(lits)
		out[col] = lits
	}
	return out
}
