package baselines

import (
	"context"
	"math"
	"strings"

	"aggchecker/internal/db"
	"aggchecker/internal/document"
	"aggchecker/internal/model"
	"aggchecker/internal/nlp"
	"aggchecker/internal/sqlexec"
)

// QuestionGenerator turns a claim sentence into verification questions, in
// the spirit of the Heilman & Smith tool ClaimBuster-KB uses: it extracts
// the claimed value and rewrites the sentence around interrogative
// scaffolds. Long multi-claim sentences produce noisy questions — the
// bottleneck the paper reports.
type QuestionGenerator struct{}

// Questions generates question strings for a claim. The Heilman & Smith
// generator produces a wh-question only when its parse identifies the
// claimed number as the determiner of a countable noun phrase in a simple,
// single-clause sentence; over-generated questions are discarded by its
// statistical ranker. We emulate those gates: a "How many …?" rewrite is
// emitted only for single-number, comma-free sentences of moderate length
// where a content noun directly follows the number. The raw sentence is
// always included, as the paper does when querying NaLIR.
func (QuestionGenerator) Questions(c *document.Claim) []string {
	sent := c.Sentence
	qs := []string{sent.Text}

	if strings.Contains(sent.Text, ",") {
		return qs // multi-clause: the generator's parse fails
	}
	numbers := 0
	for _, tok := range sent.Tokens {
		if tok.Kind == nlp.Number {
			numbers++
		}
		if _, isWord := nlp.NumberWordValue(tok.Lower); tok.Kind == nlp.Word && isWord {
			numbers++
		}
	}
	if numbers != 1 || len(sent.Tokens) > 14 {
		return qs // multi-claim or overlong sentences over-generate garbage
	}
	// The number must determine a following content noun ("7 stores …").
	next := c.TokenIndex + c.TokenSpan
	if next >= len(sent.Tokens) {
		return qs
	}
	head := sent.Tokens[next]
	if head.Kind != nlp.Word || head.IsStop() {
		return qs
	}
	var after []string
	for _, tok := range sent.Tokens[next:] {
		if tok.Kind != nlp.Punct {
			after = append(after, tok.Text)
		}
	}
	return append(qs, "How many "+strings.Join(after, " ")+"?")
}

// NaLIR is a syntax-driven natural-language-to-SQL translator in the style
// of Li & Jagadish: it maps parse-tree nodes to query elements by direct
// lexical matching against the schema. It has no document context, no
// synonym expansion beyond exact stems, no probabilistic reasoning, and no
// evaluation feedback — the properties whose absence the paper measures.
// Claims whose sentences do not resemble their query tree (implicit
// aggregation functions, paraphrased predicates, multi-claim sentences)
// fail to translate, mirroring the reported 42% translation ratio.
type NaLIR struct {
	DB     *db.Database
	Engine *sqlexec.Engine
}

// NewNaLIR builds the translator over a database.
func NewNaLIR(d *db.Database) *NaLIR {
	return &NaLIR{DB: d, Engine: sqlexec.NewEngine(d)}
}

// fnKeywords maps explicit command tokens to aggregation functions. NaLIR
// requires an explicit token; implicit counts fail (the paper: 30% of
// claims never state the function).
var fnKeywords = map[string]sqlexec.AggFunc{
	"many":       sqlexec.Count,
	"number":     sqlexec.Count,
	"count":      sqlexec.Count,
	"total":      sqlexec.Sum,
	"sum":        sqlexec.Sum,
	"average":    sqlexec.Avg,
	"mean":       sqlexec.Avg,
	"highest":    sqlexec.Max,
	"largest":    sqlexec.Max,
	"maximum":    sqlexec.Max,
	"lowest":     sqlexec.Min,
	"minimum":    sqlexec.Min,
	"percent":    sqlexec.Percentage,
	"percentage": sqlexec.Percentage,
	"distinct":   sqlexec.CountDistinct,
	"different":  sqlexec.CountDistinct,
}

// Translate attempts to map one question to a query. ok is false when no
// complete mapping exists (failed parse in the paper's terms).
func (n *NaLIR) Translate(question string) (sqlexec.Query, bool) {
	toks := nlp.Tokenize(question)
	words := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.Kind == nlp.Word && !t.IsStop() {
			words = append(words, t.Lower)
		}
	}
	// Command token: the first explicit function keyword.
	var fn sqlexec.AggFunc
	found := false
	for _, w := range words {
		if f, ok := fnKeywords[w]; ok {
			fn, found = f, true
			break
		}
	}
	if !found {
		return sqlexec.Query{}, false
	}
	// Long or clause-rich questions defeat the parse-tree mapping: the
	// paper reports high edit distance between claim parse trees and query
	// trees, and NaLIR targets "relatively concise questions". Multi-clause
	// inputs (commas) and inputs with several numbers (multi-claim
	// sentences, 29% of the corpus) fail outright.
	if len(words) > 10 {
		return sqlexec.Query{}, false
	}
	if strings.Contains(question, ",") {
		return sqlexec.Query{}, false
	}
	numbers := 0
	for _, t := range toks {
		if t.Kind == nlp.Number {
			numbers++
		}
	}
	if numbers > 1 {
		return sqlexec.Query{}, false
	}

	q := sqlexec.Query{Agg: fn}

	// Value nodes: exact full-literal matches of word n-grams against
	// column dictionaries (NaLIR matches data values lexically).
	type litMatch struct {
		col sqlexec.ColumnRef
		val string
	}
	var lits []litMatch
	text := strings.Join(words, " ")
	for _, tbl := range n.DB.Tables() {
		for _, col := range tbl.StringColumns() {
			for _, v := range col.Dictionary() {
				lv := strings.ToLower(v)
				if lv != "" && strings.Contains(text, lv) {
					lits = append(lits, litMatch{
						col: sqlexec.ColumnRef{Table: tbl.Name, Column: col.Name},
						val: v,
					})
				}
			}
		}
	}
	seenCol := map[string]bool{}
	for _, lm := range lits {
		key := lm.col.String()
		if seenCol[key] {
			// Ambiguous: two values of the same column in one question —
			// NaLIR cannot decide, parse fails.
			return sqlexec.Query{}, false
		}
		seenCol[key] = true
		q.Preds = append(q.Preds, sqlexec.Predicate{Col: lm.col, Value: lm.val})
	}
	if len(q.Preds) > 3 {
		return sqlexec.Query{}, false
	}

	// Aggregation column: a column whose decomposed name appears verbatim.
	if fn.NeedsNumericColumn() || fn == sqlexec.CountDistinct {
		var agg sqlexec.ColumnRef
		okCol := false
		for _, tbl := range n.DB.Tables() {
			for _, col := range tbl.Columns {
				name := strings.ToLower(strings.ReplaceAll(col.Name, "_", " "))
				if name != "" && strings.Contains(text, name) {
					if fn.NeedsNumericColumn() && col.Kind != db.KindFloat {
						continue
					}
					agg = sqlexec.ColumnRef{Table: tbl.Name, Column: col.Name}
					okCol = true
				}
			}
		}
		if !okCol {
			return sqlexec.Query{}, false
		}
		q.AggCol = agg
	}
	return q, true
}

// KBVerdict is the ClaimBuster-KB + NaLIR outcome for one claim.
type KBVerdict struct {
	Flagged    bool
	Translated bool // at least one question produced SQL
	Answered   bool // at least one query returned a numeric value
}

// CheckKB runs question generation and NaLIR translation for a claim and
// compares any numeric answers to the claimed value (the paper's protocol:
// "see if there is a match on at least one of the queries").
func (n *NaLIR) CheckKB(c *document.Claim) KBVerdict {
	var verdict KBVerdict
	for _, question := range (QuestionGenerator{}).Questions(c) {
		q, ok := n.Translate(question)
		if !ok {
			continue
		}
		verdict.Translated = true
		// A bare aggregate with no predicate is almost never the claim's
		// query; NaLIR cannot verify against it (it has no notion of the
		// document context that would supply the restriction).
		if len(q.Preds) == 0 {
			continue
		}
		v, err := n.Engine.EvaluateContext(context.TODO(), q)
		if err != nil || math.IsNaN(v) {
			continue
		}
		verdict.Answered = true
		if model.Matches(v, c.Claimed.Value) {
			return KBVerdict{Flagged: false, Translated: true, Answered: true}
		}
	}
	// No query matched: flag when at least one numeric answer disagreed;
	// unanswerable claims pass (the dominant case — the paper reports only
	// 13.6% of translated queries return a single numeric value).
	verdict.Flagged = verdict.Answered
	return verdict
}
