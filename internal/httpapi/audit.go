package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"aggchecker/internal/core"
)

// wireAuditRequest is the bulk-audit request body: the corpus as a JSON
// document list. Each document is parsed like a check body (HTML-lite when
// it contains markup, markdown-lite plain text otherwise).
type wireAuditRequest struct {
	Documents []wireAuditDoc `json:"documents"`
}

type wireAuditDoc struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// wireAuditDocEvent is one NDJSON progress line: a document finished
// checking (emitted in completion order, not input order).
type wireAuditDocEvent struct {
	Event  string      `json:"event"` // "doc"
	Index  int         `json:"index"`
	Name   string      `json:"name"`
	Report *wireReport `json:"report,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// wireAuditSummary is the final NDJSON line: corpus totals plus the run's
// shared-pass and cube-cache economics.
type wireAuditSummary struct {
	Event        string           `json:"event"` // "done"
	Documents    int              `json:"documents"`
	Checked      int              `json:"checked"`
	Failed       int              `json:"failed"`
	Claims       int              `json:"claims"`
	Erroneous    int              `json:"erroneous"`
	TotalMillis  float64          `json:"total_ms"`
	SharedPasses int64            `json:"shared_passes"`
	CacheHitRate float64          `json:"cache_hit_rate"`
	Stats        map[string]int64 `json:"stats"`
	Cache        *core.CacheStats `json:"cache,omitempty"`
	Error        string           `json:"error,omitempty"`
}

// maxAuditConcurrencyParam bounds the concurrency query parameter — a
// request may tune how many documents are in flight but not spawn
// unbounded goroutines server-side.
const maxAuditConcurrencyParam = 64

// handleAudit streams a corpus of documents through one checker with
// cross-document shared-pass planning (POST /v1/databases/{name}/audit).
// The body is a JSON document list; the response is NDJSON: one "doc" line
// per finished document (completion order) and a final "done" summary with
// shared-pass counts and cache economics. The whole audit occupies one
// verification slot. Check query parameters (topk, workers, timeout)
// apply to every member document; concurrency (1..64) bounds documents in
// flight.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")

	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.opts.MaxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "corpus exceeds %d bytes", s.opts.MaxBodyBytes)
		return
	}
	var req wireAuditRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad audit request: %v", err)
		return
	}
	if len(req.Documents) == 0 {
		httpError(w, http.StatusBadRequest, "no documents")
		return
	}
	docs := make([]core.AuditDoc, len(req.Documents))
	for i, d := range req.Documents {
		if strings.TrimSpace(d.Text) == "" {
			httpError(w, http.StatusBadRequest, "document %d is empty", i)
			return
		}
		nm := d.Name
		if nm == "" {
			nm = fmt.Sprintf("doc-%d", i)
		}
		docs[i] = core.AuditDoc{Name: nm, Doc: parseDoc(d.Text)}
	}

	checkOpts, timeout, ok := s.parseCheckParams(w, r)
	if !ok {
		return
	}
	var auditOpts []core.AuditOption
	if len(checkOpts) > 0 {
		auditOpts = append(auditOpts, core.WithAuditCheckOptions(checkOpts...))
	}
	if v := r.URL.Query().Get("concurrency"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxAuditConcurrencyParam {
			httpError(w, http.StatusBadRequest, "bad concurrency %q (want 1..%d)", v, maxAuditConcurrencyParam)
			return
		}
		auditOpts = append(auditOpts, core.WithAuditConcurrency(n))
	}

	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	if err := s.acquire(ctx); err != nil {
		s.writeCheckError(w, name, err)
		return
	}
	defer s.release()

	// Resolve the checker up front so unknown databases fail with a proper
	// status code instead of mid-stream.
	ck, err := s.svc.Checker(ctx, name)
	if err != nil {
		s.writeCheckError(w, name, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	defTable := defaultTableOf(ck)

	// Progress callbacks are serialized by Audit, so encoding here is safe.
	// A write failure means the client went away: cancel the audit and let
	// it drain.
	auditOpts = append(auditOpts, core.WithAuditProgress(func(i int, dr core.DocReport) {
		ev := wireAuditDocEvent{Event: "doc", Index: i, Name: dr.Name}
		if dr.Err != nil {
			ev.Error = dr.Err.Error()
		} else {
			ev.Report = toWireReport(name, dr.Report, defTable)
		}
		if err := enc.Encode(ev); err != nil {
			cancel()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}))

	rep, auditErr := ck.Audit(ctx, docs, auditOpts...)
	sum := wireAuditSummary{
		Event:        "done",
		Documents:    len(rep.Docs),
		Checked:      rep.Checked,
		Failed:       rep.Failed,
		Claims:       rep.Claims,
		Erroneous:    rep.Erroneous,
		TotalMillis:  float64(rep.TotalTime.Microseconds()) / 1e3,
		SharedPasses: rep.SharedPasses(),
		CacheHitRate: rep.CacheHitRate(),
		Stats:        rep.Stats,
		Cache:        rep.Cache,
	}
	if auditErr != nil {
		sum.Error = auditErr.Error()
	}
	_ = enc.Encode(sum)
	if flusher != nil {
		flusher.Flush()
	}
}
