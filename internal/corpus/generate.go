package corpus

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"aggchecker/internal/db"
	"aggchecker/internal/document"
	"aggchecker/internal/model"
	"aggchecker/internal/sqlexec"
)

// ClaimTruth is the hand-checked (here: generator-known) translation of one
// claim: the matching query, the correct query result, and whether the
// claimed value is correct under Definition 1.
type ClaimTruth struct {
	Query        sqlexec.Query
	Correct      bool
	CorrectValue float64
	ClaimedValue float64
	ClaimedText  string
}

// TestCase is one article plus its data set and ground truth; Truth[i]
// corresponds to Doc.Claims[i].
type TestCase struct {
	Name   string
	Source string
	DB     *db.Database
	HTML   string
	Doc    *document.Document
	Truth  []ClaimTruth
	// Study marks the six user-study articles (§7.2).
	Study bool
}

// planned is one claim before rendering.
type planned struct {
	query     sqlexec.Query
	fn        sqlexec.AggFunc
	section   int // -1 = intro
	preds     []plannedPred
	aggCol    string // "" for star
	unit      string
	correct   float64
	claimed   float64
	text      string
	erroneous bool
	// contextOnly: the section predicate is omitted from the sentence and
	// recoverable only through the headline (medium difficulty).
	contextOnly bool
	sentence    string
}

type plannedPred struct {
	col     string
	value   string
	phrase  string // rendered phrase; "" when omitted (context mode)
	oblique bool
}

// generateCase builds one synthetic article for the domain with exactly
// nClaims claims, nErrors of which are erroneous.
func generateCase(spec domainSpec, seed int64, name string, nClaims, nErrors int) (*TestCase, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		tc, err := tryGenerate(spec, seed+int64(attempt)*7919, name, nClaims, nErrors)
		if err == nil {
			return tc, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("corpus: case %s: %w", name, lastErr)
}

func tryGenerate(spec domainSpec, seed int64, name string, nClaims, nErrors int) (*TestCase, error) {
	rng := rand.New(rand.NewSource(seed))
	database, table := buildDataset(spec, rng)
	engine := sqlexec.NewEngine(database)
	return generateDoc(spec, rng, database, table, engine, name, nClaims, nErrors)
}

// generateDoc builds one article over an existing dataset. Split from
// tryGenerate so corpus-audit fixtures can generate many documents against
// ONE shared database (GenerateSharedCorpus) — the shape cross-document
// shared-pass planning exploits.
func generateDoc(spec domainSpec, rng *rand.Rand, database *db.Database, table *db.Table, engine *sqlexec.Engine, name string, nClaims, nErrors int) (*TestCase, error) {
	// Document theme: one categorical theme column whose literals become
	// sections, a function mix, and a preferred numeric column.
	themeCol := spec.themeCols[rng.Intn(len(spec.themeCols))]
	sections := sectionLiterals(table, themeCol, 2+rng.Intn(2))
	if len(sections) < 2 {
		return nil, fmt.Errorf("theme column %s has too few literals", themeCol)
	}
	themeNum := pickNumericCol(spec, rng)

	plans, err := planClaims(spec, rng, engine, table, themeCol, themeNum, sections, nClaims)
	if err != nil {
		return nil, err
	}
	markErroneous(rng, plans, nErrors)
	for _, p := range plans {
		if err := presentClaim(rng, p); err != nil {
			return nil, err
		}
	}
	html, ordered := assembleHTML(spec, rng, themeCol, sections, plans)
	plans = ordered
	doc := document.ParseHTML(html)

	// Alignment: detected claims must match the generated truth 1:1.
	if len(doc.Claims) != len(plans) {
		return nil, fmt.Errorf("claim alignment: detected %d, generated %d", len(doc.Claims), len(plans))
	}
	truth := make([]ClaimTruth, len(plans))
	for i, p := range plans {
		if math.Abs(doc.Claims[i].Claimed.Value-p.claimed) > math.Abs(p.claimed)*1e-9+1e-9 {
			return nil, fmt.Errorf("claim %d alignment: detected %v, generated %v (%q)",
				i, doc.Claims[i].Claimed.Value, p.claimed, doc.Claims[i].Sentence.Text)
		}
		truth[i] = ClaimTruth{
			Query:        p.query,
			Correct:      !p.erroneous,
			CorrectValue: p.correct,
			ClaimedValue: p.claimed,
			ClaimedText:  p.text,
		}
	}
	return &TestCase{
		Name:   name,
		Source: spec.source,
		DB:     database,
		HTML:   html,
		Doc:    doc,
		Truth:  truth,
	}, nil
}

// buildDataset materializes the domain's table with 250–1200 rows.
func buildDataset(spec domainSpec, rng *rand.Rand) (*db.Database, *db.Table) {
	return buildDatasetN(spec, rng, 250+rng.Intn(950))
}

// buildDatasetN builds the domain dataset at an explicit row count —
// benchmark corpora scale the data volume so cube passes cost what they
// do on real tables, while test corpora keep the small randomized default.
func buildDatasetN(spec domainSpec, rng *rand.Rand, rows int) (*db.Database, *db.Table) {
	var cols []*db.Column
	for _, cc := range spec.catCols {
		values := cc.values
		if values == nil {
			values = generateNames(rng, 30+rng.Intn(30))
		}
		col := db.NewStringColumn(cc.name)
		weights := zipfWeights(len(values))
		for r := 0; r < rows; r++ {
			col.AppendString(values[sampleIndex(rng, weights)])
		}
		cols = append(cols, col)
	}
	for _, nc := range spec.numCols {
		col := db.NewFloatColumn(nc.name)
		for r := 0; r < rows; r++ {
			col.AppendFloat(float64(nc.min + rng.Intn(nc.max-nc.min+1)))
		}
		cols = append(cols, col)
	}
	table := db.MustNewTable(spec.tableName, cols...)
	database := db.NewDatabase(spec.name)
	database.MustAddTable(table)
	return database, table
}

func generateNames(rng *rand.Rand, n int) []string {
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i)+1.2, 1.1)
	}
	return w
}

func sampleIndex(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// sectionLiterals picks the n most frequent literals of the theme column.
func sectionLiterals(table *db.Table, themeCol string, n int) []string {
	col := table.Column(themeCol)
	counts := make(map[string]int)
	for i := 0; i < col.Len(); i++ {
		if !col.IsNull(i) {
			counts[col.StringAt(i)]++
		}
	}
	lits := col.Dictionary()
	sorted := append([]string(nil), lits...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if counts[sorted[j]] > counts[sorted[i]] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

func pickNumericCol(spec domainSpec, rng *rand.Rand) numColumn {
	var cands []numColumn
	for _, nc := range spec.numCols {
		if !nc.yearLike {
			cands = append(cands, nc)
		}
	}
	return cands[rng.Intn(len(cands))]
}

func catColSpec(spec domainSpec, name string) *catColumn {
	for i := range spec.catCols {
		if spec.catCols[i].name == name {
			return &spec.catCols[i]
		}
	}
	return nil
}

// fn mixes per predicate count, mirroring Figure 9's distributions.
var zeroPredFns = []weightedFn{
	{sqlexec.Count, 0.35}, {sqlexec.Avg, 0.2}, {sqlexec.Sum, 0.15},
	{sqlexec.Max, 0.12}, {sqlexec.Min, 0.08}, {sqlexec.CountDistinct, 0.1},
}
var onePredFns = []weightedFn{
	{sqlexec.Count, 0.55}, {sqlexec.Percentage, 0.2}, {sqlexec.Avg, 0.1},
	{sqlexec.Sum, 0.05}, {sqlexec.Max, 0.05}, {sqlexec.CountDistinct, 0.05},
}
var twoPredFns = []weightedFn{
	{sqlexec.Count, 0.6}, {sqlexec.Percentage, 0.2},
	{sqlexec.ConditionalProbability, 0.08}, {sqlexec.Avg, 0.12},
}

type weightedFn struct {
	fn sqlexec.AggFunc
	w  float64
}

func sampleFn(rng *rand.Rand, mix []weightedFn) sqlexec.AggFunc {
	var total float64
	for _, m := range mix {
		total += m.w
	}
	x := rng.Float64() * total
	for _, m := range mix {
		x -= m.w
		if x <= 0 {
			return m.fn
		}
	}
	return mix[len(mix)-1].fn
}

// planClaims builds the claim plans: predicate-count split 17/61/23
// (Figure 9c), theme concentration (Figure 9b), and a difficulty mix of
// explicit, context-only and oblique predicate renderings.
func planClaims(spec domainSpec, rng *rand.Rand, engine *sqlexec.Engine, table *db.Table, themeCol string, themeNum numColumn, sections []string, nClaims int) ([]*planned, error) {
	nZero := int(math.Round(0.17 * float64(nClaims)))
	nTwo := int(math.Round(0.23 * float64(nClaims)))
	nOne := nClaims - nZero - nTwo
	if nOne < 0 {
		nOne, nTwo = 0, nClaims-nZero
	}

	var plans []*planned
	tref := func(col string) sqlexec.ColumnRef {
		return sqlexec.ColumnRef{Table: spec.tableName, Column: col}
	}

	finish := func(p *planned) error {
		var err error
		for tries := 0; tries < 25; tries++ {
			p.correct, err = engine.EvaluateContext(context.TODO(), p.query)
			if err != nil {
				return err
			}
			if acceptableResult(p.fn, p.correct) {
				return nil
			}
			// Resample the last predicate literal and retry.
			if len(p.query.Preds) == 0 {
				return fmt.Errorf("degenerate zero-predicate result %v for %s", p.correct, p.query.Key())
			}
			last := &p.query.Preds[len(p.query.Preds)-1]
			lit, ok := sampleLiteral(rng, table, last.Col.Column)
			if !ok {
				return fmt.Errorf("no literals for column %s", last.Col.Column)
			}
			last.Value = lit
			p.preds[len(p.preds)-1].value = lit
		}
		return fmt.Errorf("no acceptable result for %s", p.query.Key())
	}

	// Zero-predicate claims (intro).
	for i := 0; i < nZero; i++ {
		fn := sampleFn(rng, zeroPredFns)
		p := &planned{fn: fn, section: -1}
		p.query = sqlexec.Query{Agg: fn}
		applyAggCol(spec, rng, p, themeNum, tref)
		if err := finish(p); err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}

	// One-predicate claims: mostly on the theme column (section literals),
	// some off-theme (intro), matching the paper's ~90% top-3 coverage.
	for i := 0; i < nOne; i++ {
		fn := sampleFn(rng, onePredFns)
		p := &planned{fn: fn}
		if rng.Float64() < 0.8 {
			sec := rng.Intn(len(sections))
			p.section = sec
			addPred(spec, rng, p, themeCol, sections[sec], tref, true)
		} else {
			p.section = -1
			col := spec.secondCols[rng.Intn(len(spec.secondCols))]
			lit, ok := sampleLiteral(rng, table, col)
			if !ok {
				return nil, fmt.Errorf("no literals for %s", col)
			}
			addPred(spec, rng, p, col, lit, tref, false)
		}
		applyAggCol(spec, rng, p, themeNum, tref)
		if err := finish(p); err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}

	// Two-predicate claims: theme section literal plus a secondary.
	for i := 0; i < nTwo; i++ {
		fn := sampleFn(rng, twoPredFns)
		p := &planned{fn: fn}
		sec := rng.Intn(len(sections))
		p.section = sec
		addPred(spec, rng, p, themeCol, sections[sec], tref, true)
		// Secondary predicate on a different column.
		var col string
		for tries := 0; tries < 10; tries++ {
			col = spec.secondCols[rng.Intn(len(spec.secondCols))]
			if col != themeCol {
				break
			}
		}
		if col == themeCol {
			col = spec.catCols[0].name
		}
		lit, ok := sampleLiteral(rng, table, col)
		if !ok {
			return nil, fmt.Errorf("no literals for %s", col)
		}
		addPred(spec, rng, p, col, lit, tref, false)
		applyAggCol(spec, rng, p, themeNum, tref)
		if err := finish(p); err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// addPred attaches a predicate with its rendering mode. Theme predicates
// may be context-only (omitted from the sentence; the headline carries
// them); all predicates may be oblique when the domain provides phrases.
func addPred(spec domainSpec, rng *rand.Rand, p *planned, col, lit string, tref func(string) sqlexec.ColumnRef, isTheme bool) {
	cc := catColSpec(spec, col)
	pp := plannedPred{col: col, value: lit}
	mode := rng.Float64()
	switch {
	case isTheme && p.fn != sqlexec.ConditionalProbability && mode < 0.4:
		p.contextOnly = true // phrase stays empty
	case cc != nil && len(cc.oblique[lit]) > 0 && mode < 0.55:
		pp.phrase = cc.oblique[lit][rng.Intn(len(cc.oblique[lit]))]
		pp.oblique = true
	case cc != nil:
		pp.phrase = fmt.Sprintf(cc.phrase, lit)
	default:
		pp.phrase = "in " + lit
	}
	p.preds = append(p.preds, pp)
	p.query.Preds = append(p.query.Preds, sqlexec.Predicate{Col: tref(col), Value: lit})
}

// applyAggCol sets the aggregation column for numeric functions and
// CountDistinct.
func applyAggCol(spec domainSpec, rng *rand.Rand, p *planned, themeNum numColumn, tref func(string) sqlexec.ColumnRef) {
	switch p.fn {
	case sqlexec.Sum, sqlexec.Avg, sqlexec.Min, sqlexec.Max:
		nc := themeNum
		if rng.Float64() < 0.15 {
			nc = pickNumericCol(spec, rng)
		}
		p.aggCol = nc.name
		p.unit = nc.unit
		p.query.AggCol = tref(nc.name)
	case sqlexec.CountDistinct:
		// Count distinct over a categorical column not used in predicates.
		used := map[string]bool{}
		for _, pr := range p.preds {
			used[pr.col] = true
		}
		var cands []string
		for _, cc := range spec.catCols {
			if !used[cc.name] {
				cands = append(cands, cc.name)
			}
		}
		col := cands[rng.Intn(len(cands))]
		p.aggCol = col
		p.query.AggCol = tref(col)
	}
}

// sampleLiteral draws a literal present in the column (frequency-weighted
// by drawing a random row).
func sampleLiteral(rng *rand.Rand, table *db.Table, col string) (string, bool) {
	c := table.Column(col)
	if c == nil || c.Len() == 0 {
		return "", false
	}
	for tries := 0; tries < 20; tries++ {
		i := rng.Intn(c.Len())
		if !c.IsNull(i) {
			return c.StringAt(i), true
		}
	}
	return "", false
}

// acceptableResult filters degenerate query results that would make
// implausible claims.
func acceptableResult(fn sqlexec.AggFunc, v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	switch fn {
	case sqlexec.Count, sqlexec.CountDistinct:
		return v >= 1
	case sqlexec.Percentage, sqlexec.ConditionalProbability:
		return v >= 0.5 && v <= 100
	default:
		return v > 0
	}
}

// markErroneous flips nErrors claims to wrong values.
func markErroneous(rng *rand.Rand, plans []*planned, nErrors int) {
	if nErrors > len(plans) {
		nErrors = len(plans)
	}
	perm := rng.Perm(len(plans))
	for i := 0; i < nErrors; i++ {
		plans[perm[i]].erroneous = true
	}
}

// presentClaim renders the claimed value (text and numeric form), applying
// the error perturbation for erroneous claims and verifying Definition 1
// either way.
func presentClaim(rng *rand.Rand, p *planned) error {
	claimed := roundedPresentation(rng, p.fn, p.correct)
	if p.erroneous {
		var ok bool
		claimed, ok = perturb(rng, p.fn, p.correct)
		if !ok {
			return fmt.Errorf("could not perturb %v", p.correct)
		}
	} else if !model.Matches(p.correct, claimed) {
		return fmt.Errorf("presentation %v does not match correct value %v", claimed, p.correct)
	}
	p.claimed = claimed
	p.text = formatClaimText(rng, p.fn, claimed)
	if strings.Contains(p.text, "million") {
		p.unit = ""
	}
	return nil
}

// roundedPresentation chooses the value as the author would state it.
func roundedPresentation(rng *rand.Rand, fn sqlexec.AggFunc, v float64) float64 {
	switch fn {
	case sqlexec.Count, sqlexec.CountDistinct, sqlexec.Min, sqlexec.Max:
		return v
	case sqlexec.Percentage, sqlexec.ConditionalProbability:
		return model.RoundSig(v, 2)
	default:
		k := 2 + rng.Intn(2)
		return model.RoundSig(v, k)
	}
}

// perturb produces a wrong claimed value that no admissible rounding of the
// correct value reaches.
func perturb(rng *rand.Rand, fn sqlexec.AggFunc, correct float64) (float64, bool) {
	var candidates []float64
	switch fn {
	case sqlexec.Count, sqlexec.CountDistinct, sqlexec.Min, sqlexec.Max:
		for _, d := range []float64{1, -1, 2, -2, 3, 4} {
			candidates = append(candidates, correct+d)
		}
	case sqlexec.Percentage, sqlexec.ConditionalProbability:
		base := model.RoundSig(correct, 2)
		for _, d := range []float64{3, -3, 5, -5, 7, 2, -2} {
			candidates = append(candidates, base+d)
		}
	default:
		for _, f := range []float64{1.25, 0.8, 1.5, 0.65} {
			candidates = append(candidates, model.RoundSig(correct*f, 2))
		}
	}
	// Deterministic shuffle for variety.
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	for _, c := range candidates {
		if c > 0 && !model.Matches(correct, c) {
			if fn == sqlexec.Percentage || fn == sqlexec.ConditionalProbability {
				if c > 100 {
					continue
				}
			}
			return c, true
		}
	}
	return 0, false
}

// formatClaimText renders the claimed value, guarding against year-like
// presentations that the claim detector would skip.
func formatClaimText(rng *rand.Rand, fn sqlexec.AggFunc, claimed float64) string {
	text := formatValue(rng, fn, claimed)
	if looksYearLike(text) {
		// Insert a thousands separator: "1,998" parses to the same value
		// but is no longer mistaken for a calendar year.
		text = text[:1] + "," + text[1:]
	}
	return text
}

func looksYearLike(text string) bool {
	if len(text) != 4 {
		return false
	}
	v, err := strconv.Atoi(text)
	if err != nil {
		return false
	}
	return v >= 1800 && v <= 2100
}
