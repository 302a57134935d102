package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/document"
	"aggchecker/internal/evaluate"
	"aggchecker/internal/keywords"
	"aggchecker/internal/model"
	"aggchecker/internal/sqlexec"
)

// Spans are recorded only here, in the benchmark's own files, around calls
// into exported functions of the program's layers (ROADMAP item 2 moves
// them inside the program). They stay in memory until the run ends.

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent is the id of the span
// that caused this one (-1 for a root); spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id. A nil recorder records nothing,
// so a round can run traced or untraced through the same code.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children (parallel
// work under one parent) are counted once, and a child is clipped to its
// parent's interval.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	children := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, c := range ivs {
			if c.hi <= reach {
				continue
			}
			covered += c.hi - max(c.lo, reach)
			reach = c.hi
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerTotals sums duration and self time per span name.
type layerTotal struct {
	count int
	total time.Duration
	self  time.Duration
}

func layerTotals(spans []span) map[string]*layerTotal {
	selfNs := selfTimes(spans)
	out := make(map[string]*layerTotal)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(selfNs[i])
	}
	return out
}

// capturedBatch is one claim batch the EM loop handed to the evaluator,
// kept so the planner and cube passes can be replayed in isolation.
type capturedBatch struct {
	queries []sqlexec.Query
	pool    map[string][]string
}

// timingRunner is the CubeEvaluator's exported Runner seam used as a
// measuring point: it spans every batch, keeps the batch for replay, and
// forwards to the engine exactly as a nil Runner would.
type timingRunner struct {
	rec    *recorder
	engine *sqlexec.Engine
	parent int
	op     int

	mu      sync.Mutex
	batches []capturedBatch
}

func (t *timingRunner) EvaluateBatch(ctx context.Context, queries []sqlexec.Query, opts sqlexec.BatchOptions) []float64 {
	id := t.rec.begin("evaluate.batch", t.parent, t.op)
	out := t.engine.EvaluateBatch(ctx, queries, opts)
	t.rec.end(id)
	t.mu.Lock()
	t.batches = append(t.batches, capturedBatch{queries: queries, pool: opts.Pool})
	t.mu.Unlock()
	return out
}

// tracedDoc is what one traced re-composition of Check produced.
type tracedDoc struct {
	doc     *document.Document
	scores  []keywords.Scores
	result  *model.Result
	batches []capturedBatch
}

// tracedCheck re-composes Checker.Check from the exported functions of its
// layers — ParseHTML, keywords.MatchAll, model.Run over a CubeEvaluator on
// the checker's cached engine — with a span around each. It must produce
// the same verdicts as Checker.Check; the caller compares fingerprints.
func tracedCheck(ctx context.Context, rec *recorder, ck *core.Checker, html string, op int) (*tracedDoc, error) {
	cfg := ck.Config
	root := rec.begin("core.check", -1, op)
	defer rec.end(root)

	id := rec.begin("document.parse", root, op)
	doc := document.ParseHTML(html)
	rec.end(id)

	id = rec.begin("keywords.match", root, op)
	scores := keywords.MatchAll(ck.Catalog, doc, cfg.Context, cfg.Model.TopKHits)
	rec.end(id)

	run := rec.begin("model.run", root, op)
	defer rec.end(run)
	tr := &timingRunner{rec: rec, engine: ck.Engine, parent: run, op: op}
	ev := evaluate.NewCubeEvaluator(ck.Engine)
	ev.Workers = cfg.Workers
	ev.Runner = tr
	ctx = sqlexec.WithSnapshot(ctx, ck.Engine.DB.Snapshot())
	res, err := model.Run(ctx, ck.Catalog, doc, scores, ev, cfg.Model, nil)
	if err != nil {
		return nil, err
	}
	return &tracedDoc{doc: doc, scores: scores, result: res, batches: tr.batches}, nil
}

// replayTotals accumulates what replaying captured work in isolation cost.
type replayTotals struct {
	docs int

	planNs int64

	passNs   int64
	passRows int64

	answerNs int64
	answers  int

	spaceNs    int64 // one expectation step's candidate construction, summed over docs × e-steps
	candidates int
	claims     int
}

// replay splits evaluator and model time for one traced document: the
// captured batches go through the planner, each planned cube runs as a
// real pass on an engine that never caches, and every query is answered
// from its cube; the claims go through BuildSpace/TopCandidates under the
// converged priors. Nothing here touches the checker's own cache.
func (t *replayTotals) replay(ctx context.Context, ck *core.Checker, cold *sqlexec.Engine, td *tracedDoc) {
	t.docs++
	for _, b := range td.batches {
		start := time.Now()
		plan := sqlexec.PlanCubesOpt(b.queries, ck.Engine.DefaultTable(), sqlexec.PlanOptions{
			Pool:       b.pool,
			MergeSmall: ck.Engine.CachingEnabled(),
			Pushdown:   ck.Engine.PushdownEnabled(),
		})
		t.planNs += time.Since(start).Nanoseconds()
		for _, p := range plan.Cubes {
			rowsBefore := cold.Stats.RowsScanned.Load()
			start = time.Now()
			cube, err := cold.FilteredCubeForContext(ctx, p.Tables, p.Dims, p.Reqs, p.Filter)
			t.passNs += time.Since(start).Nanoseconds()
			t.passRows += cold.Stats.RowsScanned.Load() - rowsBefore
			if err != nil {
				continue
			}
			start = time.Now()
			for _, qi := range p.QueryIdx {
				// A cube that cannot answer a query sends it to a direct
				// scan in the real path; the replay only prices the lookups.
				if _, err := cold.AnswerFromCube(cube, b.queries[qi]); err == nil {
					t.answers++
				}
			}
			t.answerNs += time.Since(start).Nanoseconds()
		}
	}

	cfg := ck.Config.Model
	start := time.Now()
	pool := model.BuildPool(ck.Catalog, td.scores, cfg)
	for i, claim := range td.doc.Claims {
		sp := model.BuildSpace(ck.Catalog, claim, td.scores[i], td.result.Priors, pool, cfg)
		t.candidates += len(sp.TopCandidates(cfg.EvalBudget, cfg.MaxPreds))
	}
	// Run builds the spaces once per EM iteration plus the final pass.
	t.spaceNs += time.Since(start).Nanoseconds() * int64(td.result.Iterations+1)
	t.claims += len(td.doc.Claims)
}
