// Package benchdata builds the benchmark database and cube-pass case
// matrix of BenchmarkCubeKernel (internal/sqlexec) and of the colstore
// cold-open benchmark and page-residency test. It imports sqlexec, so its
// consumers are external test packages.
package benchdata

import (
	"math"
	"math/rand"
	"strconv"

	"aggchecker/internal/db"
	"aggchecker/internal/sqlexec"
)

// scanBands is the number of clustered bands the fact table's z column
// splits into: z literals occur in ~1/scanBands of the zone maps, so
// equality predicates on z measure zone pruning.
const scanBands = 12

// BuildDB constructs the benchmark database: a fact table with string
// dimension columns (a: 4 values, b: 3, c: 6), small-domain numeric
// dimension columns (d1: 6 values, d2: 4, d3: 5), numeric measures x and y
// with ~5% NULLs, clustered columns z (one string band per rows/scanBands
// run) and t (monotone numeric, a synthetic event time) that give zone
// maps something to prune, and a foreign key into an 8-row dims table
// whose string column g drives the joined cases. Deterministic (fixed
// seed).
func BuildDB(rows int) *db.Database {
	rng := rand.New(rand.NewSource(17))
	a := db.NewStringColumn("a")
	b := db.NewStringColumn("b")
	c := db.NewStringColumn("c")
	d1 := db.NewFloatColumn("d1")
	d2 := db.NewFloatColumn("d2")
	d3 := db.NewFloatColumn("d3")
	x := db.NewFloatColumn("x")
	y := db.NewFloatColumn("y")
	z := db.NewStringColumn("z")
	tc := db.NewFloatColumn("t")
	k := db.NewStringColumn("k")
	avals := []string{"p", "q", "r", "s"}
	bvals := []string{"u", "v", "w"}
	cvals := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	kvals := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	band := rows / scanBands
	if band == 0 {
		band = 1
	}
	for i := 0; i < rows; i++ {
		if rng.Intn(20) == 0 {
			a.AppendString("")
		} else {
			a.AppendString(avals[rng.Intn(len(avals))])
		}
		b.AppendString(bvals[rng.Intn(len(bvals))])
		c.AppendString(cvals[rng.Intn(len(cvals))])
		d1.AppendFloat(float64(rng.Intn(6)))
		d2.AppendFloat(float64(rng.Intn(4)))
		d3.AppendFloat(float64(rng.Intn(5)))
		if rng.Intn(20) == 0 {
			x.AppendFloat(math.NaN())
		} else {
			x.AppendFloat(float64(rng.Intn(1000)))
		}
		y.AppendFloat(rng.Float64() * 100)
		z.AppendString("z" + strconv.Itoa(i/band))
		tc.AppendFloat(float64(i))
		k.AppendString(kvals[rng.Intn(len(kvals))])
	}
	fact := db.MustNewTable("fact", a, b, c, d1, d2, d3, x, y, z, tc, k)
	d := db.NewDatabase("bench")
	d.MustAddTable(fact)
	dk := db.NewStringColumn("k")
	g := db.NewStringColumn("g")
	for i, kv := range kvals {
		dk.AppendString(kv)
		g.AppendString([]string{"red", "green", "blue", "gold"}[i%4])
	}
	dim := db.MustNewTable("dims", dk, g)
	dim.PrimaryKey = "k"
	d.MustAddTable(dim)
	d.MustAddForeignKey(db.ForeignKey{FromTable: "fact", FromColumn: "k", ToTable: "dims", ToColumn: "k"})
	return d
}

// Case is one cube-pass benchmark configuration.
type Case struct {
	Name   string
	Tables []string
	Dims   []sqlexec.DimSpec
	Reqs   []sqlexec.AggRequest
}

// Cases returns the vectorized-vs-scalar comparison matrix: dimension
// count, dimension type, view shape, and distinct counting.
func Cases() []Case {
	fc := func(c string) sqlexec.ColumnRef { return sqlexec.ColumnRef{Table: "fact", Column: c} }
	gc := sqlexec.ColumnRef{Table: "dims", Column: "g"}
	sumX := sqlexec.AggRequest{Fn: sqlexec.Sum, Col: fc("x")}
	avgY := sqlexec.AggRequest{Fn: sqlexec.Avg, Col: fc("y")}
	single := []string{"fact"}
	joined := []string{"fact", "dims"}
	return []Case{
		{
			Name:   "1dim-string-single",
			Tables: single,
			Dims:   []sqlexec.DimSpec{{Col: fc("a"), Literals: []string{"p", "q", "r"}}},
			Reqs:   []sqlexec.AggRequest{sumX},
		},
		{
			Name:   "3dim-string-single",
			Tables: single,
			Dims: []sqlexec.DimSpec{
				{Col: fc("a"), Literals: []string{"p", "q", "r"}},
				{Col: fc("b"), Literals: []string{"u", "v"}},
				{Col: fc("c"), Literals: []string{"c0", "c1", "c2", "c3"}},
			},
			Reqs: []sqlexec.AggRequest{sumX, avgY},
		},
		{
			Name:   "3dim-numeric-single",
			Tables: single,
			Dims: []sqlexec.DimSpec{
				{Col: fc("d1"), Literals: []string{"0", "1", "2"}},
				{Col: fc("d2"), Literals: []string{"0", "1"}},
				{Col: fc("d3"), Literals: []string{"2", "3", "4"}},
			},
			Reqs: []sqlexec.AggRequest{sumX, avgY},
		},
		{
			Name:   "3dim-joined",
			Tables: joined,
			Dims: []sqlexec.DimSpec{
				{Col: fc("a"), Literals: []string{"p", "q", "r"}},
				{Col: fc("b"), Literals: []string{"u", "v"}},
				{Col: gc, Literals: []string{"red", "green", "blue"}},
			},
			Reqs: []sqlexec.AggRequest{sumX, avgY},
		},
		{
			Name:   "3dim-joined-distinct",
			Tables: joined,
			Dims: []sqlexec.DimSpec{
				{Col: fc("a"), Literals: []string{"p", "q", "r"}},
				{Col: fc("b"), Literals: []string{"u", "v"}},
				{Col: gc, Literals: []string{"red", "green", "blue"}},
			},
			Reqs: []sqlexec.AggRequest{
				sumX,
				{Fn: sqlexec.CountDistinct, Col: fc("c")},
				{Fn: sqlexec.CountDistinct, Col: fc("x")},
			},
		},
	}
}
