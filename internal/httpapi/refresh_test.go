package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggchecker/internal/core"
	"aggchecker/internal/db"
)

// newCSVTestServer serves one CSV-backed database "fines" whose file the
// test can grow between requests.
func newCSVTestServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "fines.csv")
	if err := os.WriteFile(path, []byte("player,amount\nAlice,100\nBob,200\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := core.NewService()
	if err := svc.RegisterSource("fines", db.NewCSVSource("fines", path)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(svc, Options{}))
	t.Cleanup(ts.Close)
	return ts, path
}

func getStatus(t *testing.T, url string) (int, core.Status) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st core.Status
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func TestStatusAndRefreshEndpoints(t *testing.T) {
	ts, path := newCSVTestServer(t)

	if code, _ := getStatus(t, ts.URL+"/v1/databases/ghost/status"); code != http.StatusNotFound {
		t.Errorf("unknown status code = %d, want 404", code)
	}

	code, st := getStatus(t, ts.URL+"/v1/databases/fines/status")
	if code != http.StatusOK || st.Resident {
		t.Fatalf("pre-load status = %d %+v", code, st)
	}

	// Force the catalog resident with one check, then status reports the
	// snapshot version and row counts.
	resp := postDoc(t, ts.URL+"/v1/databases/fines/check", "There are 2 players.")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status = %d", resp.StatusCode)
	}
	code, st = getStatus(t, ts.URL+"/v1/databases/fines/status")
	if code != http.StatusOK || !st.Resident || st.Version != 1 || st.Rows["fines"] != 2 {
		t.Fatalf("resident status = %d %+v", code, st)
	}
	// A resident database surfaces its scan-pipeline counters, so watch
	// operators can read pruning effectiveness off the status endpoint.
	if st.Scan == nil {
		t.Fatal("resident status carries no scan stats")
	}
	if st.Scan.BlocksScanned == 0 {
		t.Errorf("scan stats after a check = %+v, want blocks scanned", st.Scan)
	}
	if st.Scan.PruneRate < 0 || st.Scan.PruneRate > 1 {
		t.Errorf("prune rate = %v, want within [0,1]", st.Scan.PruneRate)
	}

	// Grow the backing file and refresh over HTTP: the response reports the
	// appended rows and new version.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("Zed,300\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	resp = postDoc(t, ts.URL+"/v1/databases/fines/refresh", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh status code = %d", resp.StatusCode)
	}
	var rst core.Status
	if err := json.NewDecoder(resp.Body).Decode(&rst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rst.Appended != 1 || rst.Version != 2 || rst.Rows["fines"] != 3 {
		t.Fatalf("refresh response = %+v", rst)
	}

	// Unknown database refresh is 404; a shrunken file is a 409 conflict.
	resp = postDoc(t, ts.URL+"/v1/databases/ghost/refresh", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown refresh code = %d, want 404", resp.StatusCode)
	}
	if err := os.WriteFile(path, []byte("player,amount\nAlice,100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp = postDoc(t, ts.URL+"/v1/databases/fines/refresh", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("shrunken refresh code = %d, want 409", resp.StatusCode)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBody.Error, "append-only") {
		t.Errorf("conflict error = %q", errBody.Error)
	}
}

// A CSV line still without its newline waits, and the status endpoint
// says how many bytes wait rather than letting the row wait silently.
func TestStatusReportsPendingTailBytes(t *testing.T) {
	ts, path := newCSVTestServer(t)
	resp := postDoc(t, ts.URL+"/v1/databases/fines/check", "There are 2 players.")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status = %d", resp.StatusCode)
	}
	grow := func(s string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
	}
	refresh := func() {
		t.Helper()
		resp := postDoc(t, ts.URL+"/v1/databases/fines/refresh", "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("refresh status code = %d", resp.StatusCode)
		}
	}

	grow("Zed,3")
	refresh()
	resp, err := http.Get(ts.URL + "/v1/databases/fines/status")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if raw["pending_tail_bytes"] != float64(5) {
		t.Fatalf("status = %v, want pending_tail_bytes 5", raw)
	}

	grow("00\n")
	refresh()
	if _, st := getStatus(t, ts.URL+"/v1/databases/fines/status"); st.PendingTailBytes != 0 || st.Rows["fines"] != 3 {
		t.Fatalf("status after the newline = %+v, want 3 rows, nothing pending", st)
	}
}
