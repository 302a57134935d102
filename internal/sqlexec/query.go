// Package sqlexec implements evaluation of Simple Aggregate Queries
// (Definition 2 of the paper) over the in-memory engine of package db. It
// provides direct single-query evaluation (the naive baseline of Table 6), a
// CUBE operator with InOrDefault literal coding that merges many query
// candidates into one scan (§6.2), and a result cache shared across claims
// and expectation-maximization iterations (§6.3).
package sqlexec

import (
	"fmt"
	"sort"
	"strings"
)

// AggFunc enumerates the aggregation functions the paper supports (§2).
type AggFunc int

const (
	Count AggFunc = iota
	CountDistinct
	Sum
	Avg
	Min
	Max
	Percentage
	ConditionalProbability
	numAggFuncs
)

// AggFuncs lists every supported aggregation function.
func AggFuncs() []AggFunc {
	out := make([]AggFunc, numAggFuncs)
	for i := range out {
		out[i] = AggFunc(i)
	}
	return out
}

func (f AggFunc) String() string {
	switch f {
	case Count:
		return "Count"
	case CountDistinct:
		return "CountDistinct"
	case Sum:
		return "Sum"
	case Avg:
		return "Average"
	case Min:
		return "Min"
	case Max:
		return "Max"
	case Percentage:
		return "Percentage"
	case ConditionalProbability:
		return "ConditionalProbability"
	}
	return fmt.Sprintf("AggFunc(%d)", int(f))
}

// NeedsNumericColumn reports whether the function aggregates numeric values.
func (f AggFunc) NeedsNumericColumn() bool {
	switch f {
	case Sum, Avg, Min, Max:
		return true
	}
	return false
}

// StarOnly reports whether the function is only formed over the all-column *
// in our candidate model (counts and ratios of rows).
func (f AggFunc) StarOnly() bool {
	switch f {
	case Count, Percentage, ConditionalProbability:
		return true
	}
	return false
}

// ColumnRef names a column within a table.
type ColumnRef struct {
	Table  string
	Column string
}

// IsStar reports whether the reference is the all-column "*".
func (c ColumnRef) IsStar() bool { return c.Column == "" || c.Column == "*" }

func (c ColumnRef) String() string {
	if c.IsStar() {
		return "*"
	}
	return c.Table + "." + c.Column
}

// Predicate is a unary equality predicate column = value. Value is the
// literal in canonical string form (for numeric columns, the formatting of
// db.Column.StringAt).
type Predicate struct {
	Col   ColumnRef
	Value string
}

func (p Predicate) String() string {
	return fmt.Sprintf("%s = '%s'", p.Col, p.Value)
}

// Query is a Simple Aggregate Query: one aggregation function applied to an
// aggregation column, over an equi-join of the referenced tables, restricted
// by a conjunction of unary equality predicates. For
// ConditionalProbability, Preds[0] is the conditioning predicate (paper
// footnote 1); for all other functions predicate order is irrelevant.
type Query struct {
	Agg    AggFunc
	AggCol ColumnRef // zero value / "*" for the all-column
	Preds  []Predicate
}

// sortedPreds returns predicates in canonical order.
func (q Query) sortedPreds() []Predicate {
	out := make([]Predicate, len(q.Preds))
	copy(out, q.Preds)
	if q.Agg == ConditionalProbability && len(out) > 1 {
		// Keep the condition first, canonicalize the event part.
		rest := out[1:]
		sort.Slice(rest, func(i, j int) bool { return predLess(rest[i], rest[j]) })
		return out
	}
	sort.Slice(out, func(i, j int) bool { return predLess(out[i], out[j]) })
	return out
}

func predLess(a, b Predicate) bool {
	if a.Col.Table != b.Col.Table {
		return a.Col.Table < b.Col.Table
	}
	if a.Col.Column != b.Col.Column {
		return a.Col.Column < b.Col.Column
	}
	return a.Value < b.Value
}

// Key returns a canonical identity string: two queries with equal keys are
// the same query. Used as a map key throughout the probabilistic model.
func (q Query) Key() string {
	var sb strings.Builder
	sb.WriteString(q.Agg.String())
	sb.WriteByte('(')
	sb.WriteString(q.AggCol.String())
	sb.WriteByte(')')
	for _, p := range q.sortedPreds() {
		sb.WriteByte('|')
		sb.WriteString(p.Col.String())
		sb.WriteByte('=')
		sb.WriteString(p.Value)
	}
	return sb.String()
}

// Tables returns the set of tables referenced by the query (aggregation
// column first if present, then predicate tables), deduplicated in
// first-reference order. The caller supplies a default table used when the
// aggregation column is "*" and there are no predicates.
func (q Query) Tables(defaultTable string) []string {
	var out []string
	seen := map[string]bool{}
	add := func(t string) {
		if t != "" && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	if !q.AggCol.IsStar() {
		add(q.AggCol.Table)
	}
	for _, p := range q.Preds {
		add(p.Col.Table)
	}
	if len(out) == 0 {
		add(defaultTable)
	}
	return out
}

// SQL renders the query as SQL text that sqlparse.Parse reads back to an
// equal query over a single table: quotes in literals are doubled.
func (q Query) SQL(defaultTable string) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(q.Agg.String())
	sb.WriteByte('(')
	if q.AggCol.IsStar() {
		sb.WriteByte('*')
	} else {
		sb.WriteString(q.AggCol.Column)
	}
	sb.WriteString(") FROM ")
	sb.WriteString(strings.Join(q.Tables(defaultTable), " E-JOIN "))
	if len(q.Preds) > 0 {
		sb.WriteString(" WHERE ")
		for i, p := range q.sortedPreds() {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(p.Col.Column)
			sb.WriteString(" = '")
			sb.WriteString(strings.ReplaceAll(p.Value, "'", "''"))
			sb.WriteString("'")
		}
	}
	return sb.String()
}

// Describe renders a natural-language description of the query, mirroring
// the hover text of the AggChecker UI (Figure 3b).
func (q Query) Describe() string {
	var sb strings.Builder
	switch q.Agg {
	case Count:
		sb.WriteString("the number of rows")
	case CountDistinct:
		fmt.Fprintf(&sb, "the number of distinct values of %s", q.AggCol.Column)
	case Sum:
		fmt.Fprintf(&sb, "the sum of %s", q.AggCol.Column)
	case Avg:
		fmt.Fprintf(&sb, "the average %s", q.AggCol.Column)
	case Min:
		fmt.Fprintf(&sb, "the minimum %s", q.AggCol.Column)
	case Max:
		fmt.Fprintf(&sb, "the maximum %s", q.AggCol.Column)
	case Percentage:
		sb.WriteString("the percentage of rows")
	case ConditionalProbability:
		sb.WriteString("the conditional probability")
	}
	if len(q.Preds) > 0 {
		if q.Agg == ConditionalProbability && len(q.Preds) > 1 {
			fmt.Fprintf(&sb, " of %s", predPhrase(q.Preds[1:]))
			fmt.Fprintf(&sb, " given %s = %s", q.Preds[0].Col.Column, q.Preds[0].Value)
		} else {
			fmt.Fprintf(&sb, " where %s", predPhrase(q.Preds))
		}
	}
	return sb.String()
}

func predPhrase(preds []Predicate) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = fmt.Sprintf("%s is %s", p.Col.Column, p.Value)
	}
	return strings.Join(parts, " and ")
}
