package sqlparse

import (
	"context"
	"strings"
	"testing"

	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
	"aggchecker/internal/sqlexec"
)

func testDB(t testing.TB) *db.Database {
	t.Helper()
	tbl, err := db.LoadCSV(strings.NewReader(
		"games,category,year,fine\nindef,gambling,1983,100\n4,substance abuse,1995,50\n"),
		"nflsuspensions")
	if err != nil {
		t.Fatal(err)
	}
	d := db.NewDatabase("nfl")
	d.MustAddTable(tbl)
	return d
}

func TestParseCountStar(t *testing.T) {
	d := testDB(t)
	q, err := Parse("SELECT Count(*) FROM nflsuspensions WHERE games = 'indef'", d)
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != sqlexec.Count || !q.AggCol.IsStar() {
		t.Errorf("query = %+v", q)
	}
	if len(q.Preds) != 1 || q.Preds[0].Value != "indef" || q.Preds[0].Col.Table != "nflsuspensions" {
		t.Errorf("preds = %+v", q.Preds)
	}
}

func TestParseMultiPredicate(t *testing.T) {
	d := testDB(t)
	q, err := Parse(
		"SELECT Count(*) FROM nflsuspensions WHERE games = 'indef' AND category = 'substance abuse'", d)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %+v", q.Preds)
	}
	if q.Preds[1].Value != "substance abuse" {
		t.Errorf("multi-word literal lost: %q", q.Preds[1].Value)
	}
}

func TestParseAggFunctions(t *testing.T) {
	d := testDB(t)
	cases := map[string]sqlexec.AggFunc{
		"SELECT Sum(fine) FROM nflsuspensions":                           sqlexec.Sum,
		"SELECT AVG(fine) FROM nflsuspensions":                           sqlexec.Avg,
		"select min(year) from nflsuspensions":                           sqlexec.Min,
		"SELECT Max(year) FROM nflsuspensions":                           sqlexec.Max,
		"SELECT CountDistinct(category) FROM nflsuspensions":             sqlexec.CountDistinct,
		"SELECT Count(DISTINCT category) FROM nflsuspensions":            sqlexec.CountDistinct,
		"SELECT Percentage(*) FROM nflsuspensions WHERE games = 'indef'": sqlexec.Percentage,
	}
	for input, want := range cases {
		q, err := Parse(input, d)
		if err != nil {
			t.Errorf("Parse(%q): %v", input, err)
			continue
		}
		if want == sqlexec.CountDistinct && q.Agg == sqlexec.Count {
			// COUNT(DISTINCT c) must become CountDistinct.
			t.Errorf("Parse(%q): got plain Count", input)
			continue
		}
		if q.Agg != want && !(want == sqlexec.CountDistinct && q.Agg == sqlexec.CountDistinct) {
			t.Errorf("Parse(%q) agg = %v, want %v", input, q.Agg, want)
		}
	}
}

func TestParseCountDistinctSugar(t *testing.T) {
	d := testDB(t)
	q, err := Parse("SELECT Count(DISTINCT category) FROM nflsuspensions", d)
	if err != nil {
		t.Fatal(err)
	}
	// Count(DISTINCT c) parses as Count with the distinct flag folded into
	// the column position; semantically we map it to CountDistinct.
	if q.AggCol.Column != "category" {
		t.Errorf("agg col = %v", q.AggCol)
	}
}

func TestParseQualifiedColumns(t *testing.T) {
	d := testDB(t)
	q, err := Parse("SELECT Count(*) FROM nflsuspensions WHERE nflsuspensions.games = 'indef'", d)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Col.Table != "nflsuspensions" {
		t.Errorf("qualified column lost table: %+v", q.Preds[0])
	}
}

func TestParseEscapedQuote(t *testing.T) {
	tbl, _ := db.LoadCSV(strings.NewReader("education\ni'm self-taught\n"), "survey")
	d := db.NewDatabase("s")
	d.MustAddTable(tbl)
	q, err := Parse("SELECT Percentage(*) FROM survey WHERE education = 'i''m self-taught'", d)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Value != "i'm self-taught" {
		t.Errorf("escaped literal = %q", q.Preds[0].Value)
	}
	// Query.SQL escapes the quote again, so its text parses back.
	sql := q.SQL("survey")
	back, err := Parse(sql, d)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	if back.Key() != q.Key() {
		t.Errorf("round trip %q != %q", back.Key(), q.Key())
	}
}

func TestParseErrors(t *testing.T) {
	d := testDB(t)
	bad := []string{
		"",
		"SELECT",
		"SELECT Frobnicate(*) FROM nflsuspensions",
		"SELECT Count(*) WHERE games = 'indef'",
		"SELECT Count(*) FROM nflsuspensions WHERE games = ",
		"SELECT Count(*) FROM nflsuspensions WHERE nope = 'x'",
		"SELECT Count(*) FROM nosuchtable WHERE games = 'indef'",
		"SELECT Count(*) FROM nflsuspensions WHERE games = 'unterminated",
		"SELECT Count(*) FROM nflsuspensions trailing junk",
		// Tables and qualified columns are checked against the database
		// and the FROM list, not left for the engine to guess.
		"SELECT Count(*) FROM nosuch",
		"SELECT Count(*) FROM nosuch WHERE nflsuspensions.games = 'indef'",
		"SELECT Count(*) FROM nflsuspensions E-JOIN nosuch",
		"SELECT Count(*) FROM nflsuspensions WHERE other.games = 'indef'",
		"SELECT Count(*) FROM nflsuspensions WHERE nflsuspensions.nope = 'x'",
		"SELECT Sum(nflsuspensions.nope) FROM nflsuspensions",
		"SELECT Sum(other.fine) FROM nflsuspensions",
		"SELECT Sum(nflsuspensions.) FROM nflsuspensions",
		"SELECT Sum('') FROM nflsuspensions",
		"SELECT Count(*) FROM nflsuspensions WHERE .games = 'indef'",
		// Distinct over * has no answer: a row has no value to be
		// distinct by.
		"SELECT CountDistinct(*) FROM nflsuspensions",
		"SELECT count_distinct(*) FROM nflsuspensions WHERE games = 'indef'",
	}
	for _, input := range bad {
		if _, err := Parse(input, d); err == nil {
			t.Errorf("Parse(%q) should fail", input)
		}
	}
}

// joinedDB is a two-table catalog whose tables share the column "name".
func joinedDB(t testing.TB) *db.Database {
	t.Helper()
	players, err := db.LoadCSV(strings.NewReader(
		"name,team,fine\nBurfict,Bengals,100\nGordon,Browns,50\n"), "players")
	if err != nil {
		t.Fatal(err)
	}
	teams, err := db.LoadCSV(strings.NewReader("name,city\nBengals,Cincinnati\nBrowns,Cleveland\n"), "teams")
	if err != nil {
		t.Fatal(err)
	}
	d := db.NewDatabase("league")
	d.MustAddTable(players)
	d.MustAddTable(teams)
	return d
}

// TestSQLRoundTripsJoinedQuery: the SQL of a query over two tables that
// share a column name qualifies its columns, so it parses back to the same
// query; a single-table query's SQL keeps bare column names.
func TestSQLRoundTripsJoinedQuery(t *testing.T) {
	d := joinedDB(t)
	q, err := Parse("SELECT Sum(fine) FROM players E-JOIN teams WHERE teams.name = 'Bengals' AND players.name = 'Burfict'", d)
	if err != nil {
		t.Fatal(err)
	}
	sql := q.SQL("players")
	back, err := Parse(sql, d)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	if back.Key() != q.Key() {
		t.Errorf("round trip %q != %q", back.Key(), q.Key())
	}

	single := sqlexec.Query{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{{Col: sqlexec.ColumnRef{Table: "teams", Column: "name"}, Value: "Bengals"}}}
	if got, want := single.SQL("players"), "SELECT Count(*) FROM teams WHERE name = 'Bengals'"; got != want {
		t.Errorf("single-table SQL = %q, want %q", got, want)
	}
}

func TestParseRoundTripsCorpusGroundTruth(t *testing.T) {
	// Every ground-truth query rendered by Query.SQL must parse back to an
	// equal query — the contract between corpusgen output and this parser.
	c := corpus.MustLoad()
	for _, tc := range c.Cases[:10] {
		defaultTable := tc.DB.Tables()[0].Name
		for i, truth := range tc.Truth {
			sql := truth.Query.SQL(defaultTable)
			got, err := Parse(sql, tc.DB)
			if err != nil {
				t.Fatalf("%s claim %d: Parse(%q): %v", tc.Name, i, sql, err)
			}
			if got.Key() != truth.Query.Key() {
				t.Errorf("%s claim %d: round trip %q != %q", tc.Name, i, got.Key(), truth.Query.Key())
			}
		}
	}
}

func TestParsedQueryEvaluates(t *testing.T) {
	d := testDB(t)
	q, err := Parse("SELECT Count(*) FROM nflsuspensions WHERE games = 'indef'", d)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sqlexec.NewEngine(d).EvaluateContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("evaluated to %v, want 1", v)
	}
}

// FuzzParseSQL feeds arbitrary text to Parse over two catalogs, the test
// table and a join of two tables sharing a column name: Parse never
// panics, a query it accepts renders (Query.SQL) to text that parses back
// to the same query, and over the test table the engine's direct scan
// answers it without an error (the joined catalog's tables share no join
// key, so the engine refuses their join). Seeds live under
// testdata/fuzz/FuzzParseSQL; `make fuzz-smoke` runs the fuzzer.
func FuzzParseSQL(f *testing.F) {
	catalogs := []struct {
		d            *db.Database
		defaultTable string
		answers      bool
	}{{testDB(f), "nflsuspensions", true}, {joinedDB(f), "players", false}}
	f.Fuzz(func(t *testing.T, input string) {
		for _, c := range catalogs {
			q, err := Parse(input, c.d)
			if err != nil {
				continue
			}
			if c.answers {
				if _, err := sqlexec.NewEngine(c.d).EvaluateContext(context.Background(), q); err != nil {
					t.Fatalf("Parse(%q) = %s, which the engine refuses: %v", input, q.Key(), err)
				}
			}
			sql := q.SQL(c.defaultTable)
			back, err := Parse(sql, c.d)
			if err != nil {
				t.Fatalf("Parse(%q) = %s, but its SQL %q does not parse: %v", input, q.Key(), sql, err)
			}
			if back.Key() != q.Key() {
				t.Fatalf("Parse(%q) = %s, but its SQL %q parses to %s", input, q.Key(), sql, back.Key())
			}
		}
	})
}
