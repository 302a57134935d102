package aggchecker_test

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aggchecker"
	"aggchecker/internal/db"
)

const salesCSV = `region,product,units
east,widget,5
east,gadget,3
west,widget,2
west,gadget,4
north,widget,6
`

const article = `<h1>Quarterly sales</h1>
<p>Our database records 5 sales rows in the east region... no wait, 2.
We sold widgets in 3 regions.</p>`

func exampleDatabase() *aggchecker.Database {
	tbl, err := db.LoadCSV(strings.NewReader(salesCSV), "sales")
	if err != nil {
		panic(err)
	}
	d := aggchecker.NewDatabase("shop")
	d.MustAddTable(tbl)
	return d
}

// The context-first API: parse, check, render. Cancellation and deadlines
// propagate through the EM loop down to the cube scans.
func ExampleChecker_Check() {
	checker := aggchecker.New(exampleDatabase(), aggchecker.DefaultConfig())
	doc := aggchecker.ParseHTML(article)

	report, err := checker.Check(context.Background(), doc,
		aggchecker.WithTopK(3),
		aggchecker.WithDeadline(time.Minute),
	)
	if err != nil {
		fmt.Println("check aborted:", err)
		return
	}
	fmt.Printf("claims=%d iterations>=1=%v\n", len(report.Claims()), report.Result.Iterations >= 1)
	// Output: claims=3 iterations>=1=true
}

// Stream delivers typed events after every EM iteration; consuming the
// channel to exhaustion always ends with EventDone.
func ExampleChecker_Stream() {
	checker := aggchecker.New(exampleDatabase(), aggchecker.DefaultConfig())
	doc := aggchecker.ParseHTML(article)

	events, err := checker.Stream(context.Background(), doc, aggchecker.WithTopK(2))
	if err != nil {
		fmt.Println("stream failed:", err)
		return
	}
	iterations := 0
	for ev := range events {
		switch e := ev.(type) {
		case aggchecker.EventIteration:
			iterations++
		case aggchecker.EventDone:
			fmt.Printf("done: err=%v iterations>=1=%v\n", e.Err, iterations >= 1)
		}
	}
	// Output: done: err=<nil> iterations>=1=true
}

// Service hosts many named databases; checkers are built lazily on first
// use and bounded by an LRU policy.
func ExampleService() {
	svc := aggchecker.NewService(aggchecker.WithMaxResident(8))
	if err := svc.RegisterDatabase("shop", exampleDatabase()); err != nil {
		panic(err)
	}

	report, err := svc.Check(context.Background(), "shop", aggchecker.ParseHTML(article))
	if err != nil {
		panic(err)
	}
	fmt.Printf("databases=%v claims=%d\n", svc.Names(), len(report.Claims()))

	_, err = svc.Check(context.Background(), "missing", aggchecker.ParseHTML(article))
	fmt.Println("unknown database:", err != nil)
	// Output:
	// databases=[shop] claims=3
	// unknown database: true
}

// Per-request options replace ad-hoc Config mutation: the same Checker can
// serve requests with different settings concurrently.
func ExampleWithTopK() {
	checker := aggchecker.New(exampleDatabase(), aggchecker.DefaultConfig())
	doc := aggchecker.ParseHTML(article)

	for _, k := range []int{1, 3} {
		report, err := checker.Check(context.Background(), doc, aggchecker.WithTopK(k))
		if err != nil {
			panic(err)
		}
		fmt.Printf("topk=%d: claims=%d translations=%d\n", k, len(report.Claims()), len(report.Claims()[0].Ranked))
	}
	// Output:
	// topk=1: claims=3 translations=1
	// topk=3: claims=3 translations=3
}
