package core

import (
	"context"
	"strings"
	"testing"

	"aggchecker/internal/db"
	"aggchecker/internal/document"
	"aggchecker/internal/sqlexec"
)

// multiTableDB builds a two-table schema joined by a PK-FK edge, in the
// spirit of the paper's Wikipedia test cases ("the three Wikipedia articles
// reference a total of six tables"): players referencing their teams.
func multiTableDB(t *testing.T) *db.Database {
	t.Helper()
	players, err := db.LoadCSV(strings.NewReader(`player,team_id,goals,salary
Jordan Whitfield,1,12,90000
Casey Okafor,1,7,80000
Morgan Delgado,1,3,60000
Avery Petrov,2,15,120000
Riley Nakamura,2,9,95000
Quinn Haugen,2,1,40000
Hayden Brandt,3,22,150000
Parker Marchetti,3,4,55000
Rowan Kowalski,3,6,70000
Skyler Abernathy,3,2,45000
`), "players")
	if err != nil {
		t.Fatal(err)
	}
	teams, err := db.LoadCSV(strings.NewReader(`team_id,team_name,division
1,rockets,east
2,comets,west
3,pioneers,east
`), "teams")
	if err != nil {
		t.Fatal(err)
	}
	teams.PrimaryKey = "team_id"
	d := db.NewDatabase("league")
	d.MustAddTable(players)
	d.MustAddTable(teams)
	d.MustAddForeignKey(db.ForeignKey{
		FromTable: "players", FromColumn: "team_id",
		ToTable: "teams", ToColumn: "team_id",
	})
	return d
}

// The article's claims anchor the fact table through aggregation columns
// (goals, salary) while restricting the dimension table (teams.division):
// exactly the query shape that requires the PK-FK join. The counting claim
// restricts teams alone — under the paper's FROM-inference rule (§4.4: the
// FROM clause contains the tables of the referenced columns) it counts
// team rows.
const multiTableArticle = `<h1>A Season of Goals Across the League</h1>
<p>The league fields 10 players in all.</p>
<h2>East division teams</h2>
<p>There were 2 teams in the east division.
Their combined goals reached 56.</p>
<h2>West division players</h2>
<p>The highest goals figure in the west division was 15.</p>`

// TestMultiTableGroundTruthSemantics pins the paper's FROM-inference rule:
// a query's join scope is the set of tables its columns reference, so a
// predicate-only query on the dimension table counts dimension rows, while
// an aggregate over the fact table joins through the foreign key.
func TestMultiTableGroundTruthSemantics(t *testing.T) {
	d := multiTableDB(t)
	eng := sqlexec.NewEngine(d)
	division := sqlexec.ColumnRef{Table: "teams", Column: "division"}
	goals := sqlexec.ColumnRef{Table: "players", Column: "goals"}

	cases := []struct {
		q    sqlexec.Query
		want float64
	}{
		// Count(*) with a teams-only predicate counts team rows (2 east teams).
		{sqlexec.Query{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{{Col: division, Value: "east"}}}, 2},
		// An aggregate over players restricted on teams joins: 7 east players'
		// goals sum to 56, the west maximum is 15.
		{sqlexec.Query{Agg: sqlexec.Sum, AggCol: goals, Preds: []sqlexec.Predicate{{Col: division, Value: "east"}}}, 56},
		{sqlexec.Query{Agg: sqlexec.Max, AggCol: goals, Preds: []sqlexec.Predicate{{Col: division, Value: "west"}}}, 15},
		// Count over a players column restricted on teams also joins.
		{sqlexec.Query{Agg: sqlexec.CountDistinct, AggCol: sqlexec.ColumnRef{Table: "players", Column: "player"},
			Preds: []sqlexec.Predicate{{Col: division, Value: "east"}}}, 7},
	}
	for i, c := range cases {
		v, err := eng.EvaluateContext(context.Background(), c.q)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if v != c.want {
			t.Errorf("case %d (%s): got %v, want %v", i, c.q.Key(), v, c.want)
		}
	}
}

// TestMultiTableEndToEnd verifies the whole pipeline over a joined schema.
func TestMultiTableEndToEnd(t *testing.T) {
	d := multiTableDB(t)
	checker := NewChecker(d, quickCfg())
	report := mustCheck(t, checker, document.ParseHTML(multiTableArticle))
	claims := report.Claims()
	if len(claims) != 4 {
		t.Fatalf("claims = %d, want 4", len(claims))
	}
	division := sqlexec.ColumnRef{Table: "teams", Column: "division"}
	goals := sqlexec.ColumnRef{Table: "players", Column: "goals"}
	truth := []sqlexec.Query{
		{Agg: sqlexec.Count}, // 10 players (default table anchors the scope)
		{Agg: sqlexec.Count, Preds: []sqlexec.Predicate{{Col: division, Value: "east"}}},              // 2 teams
		{Agg: sqlexec.Sum, AggCol: goals, Preds: []sqlexec.Predicate{{Col: division, Value: "east"}}}, // 56
		{Agg: sqlexec.Max, AggCol: goals, Preds: []sqlexec.Predicate{{Col: division, Value: "west"}}}, // 15
	}
	for i, cr := range claims {
		if cr.Erroneous {
			best := cr.Best()
			t.Errorf("claim %d (%q) flagged erroneous; best=%s -> %v",
				i, cr.Claim.Text(), best.Query.Key(), best.Result)
		}
		// The join-dependent claims (2 and 3) must surface the joined
		// ground truth among the likely candidates.
		if i >= 2 {
			if r := RankOf(cr, truth[i]); r < 0 || r >= 10 {
				t.Errorf("claim %d (%q): joined ground truth rank = %d, want top-10",
					i, cr.Claim.Text(), r)
			}
		}
	}
}

// TestMultiTableCubeMatchesDirect verifies cube evaluation over a join view
// against direct evaluation. The compared queries anchor the fact table via
// their aggregation column, so their inferred join scope equals the cube's
// scope — the invariant the cube evaluator's batch grouping maintains.
func TestMultiTableCubeMatchesDirect(t *testing.T) {
	d := multiTableDB(t)
	e := sqlexec.NewEngine(d)
	division := sqlexec.ColumnRef{Table: "teams", Column: "division"}
	teamName := sqlexec.ColumnRef{Table: "teams", Column: "team_name"}
	goals := sqlexec.ColumnRef{Table: "players", Column: "goals"}
	dims := []sqlexec.DimSpec{
		{Col: division, Literals: []string{"east", "west"}},
		{Col: teamName, Literals: []string{"rockets", "comets"}},
	}
	reqs := []sqlexec.AggRequest{
		{Fn: sqlexec.Sum, Col: goals},
		{Fn: sqlexec.Max, Col: goals},
		{Fn: sqlexec.Avg, Col: goals},
	}
	cube, err := e.CubeForContext(context.Background(), []string{"players", "teams"}, dims, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, preds := range [][]sqlexec.Predicate{
		nil,
		{{Col: division, Value: "east"}},
		{{Col: division, Value: "west"}},
		{{Col: division, Value: "east"}, {Col: teamName, Value: "rockets"}},
	} {
		for _, q := range []sqlexec.Query{
			{Agg: sqlexec.Sum, AggCol: goals, Preds: preds},
			{Agg: sqlexec.Max, AggCol: goals, Preds: preds},
			{Agg: sqlexec.Avg, AggCol: goals, Preds: preds},
		} {
			cv, ok := cube.Value(q)
			if !ok {
				t.Fatalf("cube cannot answer %s", q.Key())
			}
			dv, err := e.EvaluateContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !(cv == dv || (cv != cv && dv != dv)) { // NaN-tolerant compare
				t.Errorf("%s: cube=%v direct=%v", q.Key(), cv, dv)
			}
		}
	}
}
