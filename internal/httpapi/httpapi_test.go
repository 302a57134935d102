package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
)

// newTestServer serves the embedded NFL case as database "nfl".
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *corpus.TestCase) {
	t.Helper()
	tc := corpus.MustLoad().Cases[0]
	svc := core.NewService()
	if err := svc.RegisterSource("nfl", db.SourceFunc(func(context.Context) (*db.Database, error) { return tc.DB, nil })); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(svc, opts))
	t.Cleanup(ts.Close)
	return ts, tc
}

func postDoc(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "text/html", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCheckEndpoint(t *testing.T) {
	ts, tc := newTestServer(t, Options{})
	resp := postDoc(t, ts.URL+"/v1/databases/nfl/check", tc.HTML)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rep wireReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Claims) != len(tc.Doc.Claims) {
		t.Fatalf("claims = %d, want %d", len(rep.Claims), len(tc.Doc.Claims))
	}
	if rep.Iterations == 0 || rep.EvaluatedQueries == 0 {
		t.Errorf("iterations = %d evaluated = %d", rep.Iterations, rep.EvaluatedQueries)
	}
	for _, c := range rep.Claims {
		if len(c.Queries) == 0 {
			t.Errorf("claim %d: no ranked queries", c.Index)
		}
		if c.Sentence == "" {
			t.Errorf("claim %d: empty sentence", c.Index)
		}
	}
	if rep.Stats["batch_queries"] == 0 {
		t.Error("per-request stats missing batch_queries")
	}
}

// TestCheckTopKParam pins the topk parameter: topk=2 caps every ranking at
// two translations, and a topk whose triple overflows int keeps the
// verdicts and top translations of a request without topk. An unknown
// parameter (mode) is ignored.
func TestCheckTopKParam(t *testing.T) {
	ts, tc := newTestServer(t, Options{})
	// One claim made wrong, so a lost verdict shows.
	doc := strings.Replace(tc.HTML, "28 different teams", "35 different teams", 1)
	check := func(query string) wireReport {
		t.Helper()
		resp := postDoc(t, ts.URL+"/v1/databases/nfl/check"+query, doc)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", query, resp.StatusCode)
		}
		var rep wireReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, c := range check("?topk=2&mode=naive").Claims {
		if len(c.Queries) > 2 {
			t.Fatalf("claim %d: topk=2 but %d queries", c.Index, len(c.Queries))
		}
	}
	want := check("")
	if want.Erroneous == 0 {
		t.Fatal("no claim flagged without topk")
	}
	got := check("?topk=3074457345618258603")
	for i, w := range want.Claims {
		g := got.Claims[i]
		if g.Erroneous != w.Erroneous || len(g.Queries) == 0 || g.Queries[0].SQL != w.Queries[0].SQL {
			t.Errorf("claim %d under a huge topk: erroneous %t, %d queries; want erroneous %t, top %s",
				i, g.Erroneous, len(g.Queries), w.Erroneous, w.Queries[0].SQL)
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	// MaxConcurrent engages the semaphore so the timeout cases also cover
	// the acquire path (an expired ctx must deterministically yield 504,
	// not a racy 503).
	ts, tc := newTestServer(t, Options{MaxConcurrent: 2})
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/databases/nope/check", tc.HTML, http.StatusNotFound},
		{"/v1/databases/nfl/check?timeout=bogus", tc.HTML, http.StatusBadRequest},
		{"/v1/databases/nfl/check", "   ", http.StatusBadRequest},
		{"/v1/databases/nfl/check?timeout=1ns", tc.HTML, http.StatusGatewayTimeout},
	}
	for _, c := range cases {
		resp := postDoc(t, ts.URL+c.path, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST %s: status = %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
}

func TestListAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/databases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Databases []string `json:"databases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Databases) != 1 || list.Databases[0] != "nfl" {
		t.Fatalf("databases = %v", list.Databases)
	}
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", h.StatusCode)
	}
}

func TestStreamEndpoint(t *testing.T) {
	ts, tc := newTestServer(t, Options{})
	resp := postDoc(t, ts.URL+"/v1/databases/nfl/check/stream", tc.HTML)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	var events []wireEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	iterations, updates := 0, 0
	for _, ev := range events {
		switch ev.Event {
		case "iteration":
			iterations++
		case "claim_update":
			updates++
			if ev.Claim == nil {
				t.Fatal("claim_update without claim payload")
			}
		}
	}
	if iterations == 0 {
		t.Fatal("no iteration events")
	}
	// Every iteration carries one update per claim.
	if want := iterations * len(tc.Doc.Claims); updates != want {
		t.Fatalf("claim updates = %d, want %d (%d iterations × %d claims)", updates, want, iterations, len(tc.Doc.Claims))
	}
	last := events[len(events)-1]
	if last.Event != "done" || last.Error != "" || last.Report == nil {
		t.Fatalf("last event = %+v, want done with report", last)
	}
	if len(last.Report.Claims) != len(tc.Doc.Claims) {
		t.Fatalf("final report claims = %d", len(last.Report.Claims))
	}
}

func TestStreamTimeoutEndsWithError(t *testing.T) {
	ts, tc := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	resp := postDoc(t, ts.URL+"/v1/databases/nfl/check/stream", tc.HTML)
	defer resp.Body.Close()
	// The deadline may trip before or after headers are committed; both
	// surfaces must be clean: an HTTP error, or a done event with an error.
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	var last wireEvent
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad line: %v", err)
		}
	}
	if last.Event != "done" || last.Error == "" {
		t.Fatalf("expected done-with-error, got %+v", last)
	}
}
