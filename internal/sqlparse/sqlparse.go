// Package sqlparse parses the SQL dialect of Simple Aggregate Queries
// (Definition 2 of the paper):
//
//	SELECT Fct(Agg) FROM T1 [E-JOIN T2 ...] [WHERE C1 = 'V1' [AND C2 = 'V2' ...]]
//
// It exists for three consumers: the aggcheck CLI's manual verification
// mode (the "SQL + User" condition of the user study), reading ground-truth
// files written by corpusgen back into queries, and tests that want to
// state queries compactly. The dialect is deliberately exactly the paper's
// query model — no expressions, no OR, no inequalities.
package sqlparse

import (
	"fmt"
	"slices"
	"strings"

	"aggchecker/internal/db"
	"aggchecker/internal/sqlexec"
)

// Parse parses a Simple Aggregate Query. Every FROM table must exist in the
// database. Unqualified column names resolve to the one FROM table that has
// them; a qualified name must name a FROM table and one of its columns.
// Ambiguous or unknown names are errors.
func Parse(input string, d *db.Database) (sqlexec.Query, error) {
	var q sqlexec.Query
	toks, err := lex(input)
	if err != nil {
		return q, err
	}
	p := &parser{toks: toks, db: d}

	if err := p.expectKeyword("select"); err != nil {
		return q, err
	}
	fn, err := p.parseFunction()
	if err != nil {
		return q, err
	}
	q.Agg = fn
	if err := p.expect("("); err != nil {
		return q, err
	}
	col, distinct, err := p.parseAggColumn()
	if err != nil {
		return q, err
	}
	q.AggCol = col
	if distinct && q.Agg == sqlexec.Count {
		q.Agg = sqlexec.CountDistinct // COUNT(DISTINCT c) sugar
	}
	if q.Agg == sqlexec.CountDistinct && col.IsStar() {
		return q, fmt.Errorf("sqlparse: CountDistinct needs a column, not *")
	}
	if err := p.expect(")"); err != nil {
		return q, err
	}

	if err := p.expectKeyword("from"); err != nil {
		return q, err
	}
	if err := p.parseTables(); err != nil {
		return q, err
	}

	if p.peekKeyword("where") {
		p.next()
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return q, err
			}
			q.Preds = append(q.Preds, pred)
			if !p.peekKeyword("and") {
				break
			}
			p.next()
		}
	}
	if !p.done() {
		return q, fmt.Errorf("sqlparse: unexpected trailing input %q", p.peek())
	}
	// Check every column reference against the FROM tables.
	if !q.AggCol.IsStar() {
		if q.AggCol, err = p.resolve(q.AggCol); err != nil {
			return q, err
		}
	}
	for i := range q.Preds {
		if q.Preds[i].Col, err = p.resolve(q.Preds[i].Col); err != nil {
			return q, err
		}
	}
	return q, nil
}

// --- lexer ---

type token struct {
	text string
	str  bool // quoted string literal
}

func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '=':
			toks = append(toks, token{text: string(c)})
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for j < len(input) {
				if input[j] == '\'' {
					if j+1 < len(input) && input[j+1] == '\'' { // escaped ''
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(input[j])
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("sqlparse: unterminated string literal")
			}
			toks = append(toks, token{text: sb.String(), str: true})
			i = j + 1
		default:
			j := i
			for j < len(input) && !strings.ContainsRune(" \t\n\r(),*='", rune(input[j])) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("sqlparse: unexpected character %q", c)
			}
			toks = append(toks, token{text: input[i:j]})
			i = j
		}
	}
	return toks, nil
}

// --- parser ---

type parser struct {
	toks   []token
	pos    int
	db     *db.Database
	tables []string
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.done() {
		return ""
	}
	return p.toks[p.pos].text
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *parser) peekKeyword(kw string) bool {
	return !p.done() && !p.toks[p.pos].str && strings.EqualFold(p.toks[p.pos].text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.peekKeyword(kw) {
		return fmt.Errorf("sqlparse: expected %s, found %q", strings.ToUpper(kw), p.peek())
	}
	p.next()
	return nil
}

func (p *parser) expect(sym string) error {
	if p.done() || p.toks[p.pos].text != sym {
		return fmt.Errorf("sqlparse: expected %q, found %q", sym, p.peek())
	}
	p.next()
	return nil
}

// functionNames maps accepted spellings to functions.
var functionNames = map[string]sqlexec.AggFunc{
	"count":                  sqlexec.Count,
	"countdistinct":          sqlexec.CountDistinct,
	"count_distinct":         sqlexec.CountDistinct,
	"sum":                    sqlexec.Sum,
	"avg":                    sqlexec.Avg,
	"average":                sqlexec.Avg,
	"min":                    sqlexec.Min,
	"max":                    sqlexec.Max,
	"percentage":             sqlexec.Percentage,
	"conditionalprobability": sqlexec.ConditionalProbability,
}

func (p *parser) parseFunction() (sqlexec.AggFunc, error) {
	if p.done() {
		return 0, fmt.Errorf("sqlparse: expected aggregation function")
	}
	name := strings.ToLower(p.next().text)
	fn, ok := functionNames[name]
	if !ok {
		return 0, fmt.Errorf("sqlparse: unknown aggregation function %q", name)
	}
	return fn, nil
}

func (p *parser) parseAggColumn() (sqlexec.ColumnRef, bool, error) {
	if p.peek() == "*" {
		p.next()
		return sqlexec.ColumnRef{}, false, nil
	}
	// COUNT(DISTINCT col) sugar.
	distinct := false
	if p.peekKeyword("distinct") {
		p.next()
		distinct = true
	}
	ref, err := p.parseColumnRef()
	return ref, distinct, err
}

func (p *parser) parseColumnRef() (sqlexec.ColumnRef, error) {
	if p.done() {
		return sqlexec.ColumnRef{}, fmt.Errorf("sqlparse: expected column name")
	}
	name := p.next().text
	// An unqualified name is resolved after FROM is known.
	tbl, col, qualified := strings.Cut(name, ".")
	if !qualified {
		tbl, col = "", name
	}
	if col == "" || (qualified && tbl == "") {
		return sqlexec.ColumnRef{}, fmt.Errorf("sqlparse: malformed column name %q", name)
	}
	return sqlexec.ColumnRef{Table: tbl, Column: col}, nil
}

func (p *parser) parseTables() error {
	for {
		if p.done() {
			return fmt.Errorf("sqlparse: expected table name")
		}
		name := p.next().text
		if p.db.Table(name) == nil {
			return fmt.Errorf("sqlparse: unknown table %q", name)
		}
		p.tables = append(p.tables, name)
		// "E-JOIN t2" or "JOIN t2" continues the list.
		if p.peekKeyword("e-join") || p.peekKeyword("join") {
			p.next()
			continue
		}
		return nil
	}
}

func (p *parser) parsePredicate() (sqlexec.Predicate, error) {
	col, err := p.parseColumnRef()
	if err != nil {
		return sqlexec.Predicate{}, err
	}
	if err := p.expect("="); err != nil {
		return sqlexec.Predicate{}, err
	}
	if p.done() {
		return sqlexec.Predicate{}, fmt.Errorf("sqlparse: expected literal after =")
	}
	val := p.next()
	return sqlexec.Predicate{Col: col, Value: val.text}, nil
}

// resolve checks a column reference against the FROM tables: a qualified
// one must name a FROM table and one of its columns, an unqualified one
// must name a column of exactly one FROM table, which qualifies it.
func (p *parser) resolve(ref sqlexec.ColumnRef) (sqlexec.ColumnRef, error) {
	if ref.Table != "" {
		if !slices.Contains(p.tables, ref.Table) {
			return ref, fmt.Errorf("sqlparse: table %q of column %s is not in FROM tables %v", ref.Table, ref, p.tables)
		}
		if p.db.Table(ref.Table).Column(ref.Column) == nil {
			return ref, fmt.Errorf("sqlparse: unknown column %s", ref)
		}
		return ref, nil
	}
	var found []sqlexec.ColumnRef
	for _, tname := range p.tables {
		if p.db.Table(tname).Column(ref.Column) != nil {
			found = append(found, sqlexec.ColumnRef{Table: tname, Column: ref.Column})
		}
	}
	switch len(found) {
	case 0:
		return ref, fmt.Errorf("sqlparse: column %q not found in FROM tables %v", ref.Column, p.tables)
	case 1:
		return found[0], nil
	default:
		return ref, fmt.Errorf("sqlparse: column %q is ambiguous across %v", ref.Column, p.tables)
	}
}
