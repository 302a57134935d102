package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/document"
)

// Options tunes the HTTP front end.
type Options struct {
	// RequestTimeout bounds one verification request end to end (0 = no
	// limit). Streaming requests get the same ceiling.
	RequestTimeout time.Duration
	// MaxConcurrent bounds simultaneously running verifications across all
	// databases (0 = unlimited). Excess requests wait in the queue until a
	// slot frees or their context expires — surfacing as 504 when the
	// request deadline fires, or as a client-side cancellation.
	MaxConcurrent int
	// MaxBodyBytes bounds the document payload (default 4 MiB).
	MaxBodyBytes int64
	// Log receives request-level errors; nil discards them.
	Log *log.Logger
}

// Server routes verification requests to a core.Service.
//
//	GET  /healthz                          -> 200 ok
//	GET  /v1/databases                     -> {"databases":[...]}
//	GET  /v1/databases/{name}/status       -> snapshot version + row counts
//	POST /v1/databases/{name}/refresh      -> refresh from source, report status
//	POST /v1/databases/{name}/check        -> JSON report
//	POST /v1/databases/{name}/check/stream -> NDJSON event stream
//	POST /v1/databases/{name}/audit        -> bulk corpus audit, NDJSON progress
//
// The request body is the document itself: HTML-lite when it looks like
// markup, markdown-lite plain text otherwise. Per-request knobs arrive as
// query parameters: topk, workers (passes of one claim batch in flight on
// the shared scheduler), and timeout (Go duration, capped by
// Options.RequestTimeout); any other parameter is ignored. Engine settings
// — how wide the scheduler is, caching, zone-map pruning, the cube cache —
// are fixed when the service builds a database's checker: deployment
// settings, not request parameters.
type Server struct {
	svc  *core.Service
	opts Options
	sem  chan struct{}
	mux  *http.ServeMux
}

// New builds the handler stack over svc.
func New(svc *core.Service, opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 4 << 20
	}
	s := &Server{svc: svc, opts: opts, mux: http.NewServeMux()}
	if opts.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, opts.MaxConcurrent)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /v1/databases", s.handleList)
	s.mux.HandleFunc("GET /v1/databases/{name}/status", s.handleStatus)
	s.mux.HandleFunc("POST /v1/databases/{name}/refresh", s.handleRefresh)
	s.mux.HandleFunc("POST /v1/databases/{name}/check", s.handleCheck)
	s.mux.HandleFunc("POST /v1/databases/{name}/check/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/databases/{name}/audit", s.handleAudit)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log.Printf(format, args...)
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"databases": s.svc.Names()})
}

// handleStatus reports a database's storage state: snapshot version and
// per-table row counts when its catalog is resident.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.svc.Status(r.PathValue("name"))
	if err != nil {
		s.writeCheckError(w, r.PathValue("name"), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleRefresh brings a database up to date with its source (appending
// new rows as fresh blocks for refreshable sources, evicting the catalog
// otherwise) and reports the resulting status, including how many rows the
// refresh appended.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, err := s.svc.Refresh(r.Context(), name)
	if err != nil {
		if errors.Is(err, core.ErrUnknownDatabase) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.writeCheckError(w, name, err)
			return
		}
		// Refresh failures (e.g. a source file that shrank) are a client-
		// visible state conflict, not an internal error.
		s.logf("httpapi: refresh %q: %v", name, err)
		httpError(w, http.StatusConflict, "refresh failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// acquire claims a verification slot, honoring ctx while queued. An
// already-expired ctx always fails (the select would otherwise pick
// randomly between a free slot and the closed Done channel), and a slot
// acquired just as the ctx expires is handed back, so timeout responses
// are deterministic.
func (s *Server) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.sem == nil {
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		if err := ctx.Err(); err != nil {
			s.release()
			return err
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
}

// requestSetup parses the shared parts of both check endpoints: the
// document body, per-request options, and the effective context. The
// returned cancel must always be called.
func (s *Server) requestSetup(w http.ResponseWriter, r *http.Request) (ctx context.Context, cancel context.CancelFunc, name string, doc *document.Document, opts []core.CheckOption, ok bool) {
	ctx, cancel = r.Context(), func() {}
	name = r.PathValue("name")

	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return ctx, cancel, name, nil, nil, false
	}
	if int64(len(body)) > s.opts.MaxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "document exceeds %d bytes", s.opts.MaxBodyBytes)
		return ctx, cancel, name, nil, nil, false
	}
	text := string(body)
	if strings.TrimSpace(text) == "" {
		httpError(w, http.StatusBadRequest, "empty document")
		return ctx, cancel, name, nil, nil, false
	}
	doc = parseDoc(text)

	opts, timeout, paramsOK := s.parseCheckParams(w, r)
	if !paramsOK {
		return ctx, cancel, name, nil, nil, false
	}
	// Always derive a cancellable context — handleStream's write-error
	// path relies on cancel() actually aborting the run even when no
	// timeout applies.
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	return ctx, cancel, name, doc, opts, true
}

// parseDoc parses a request-body document: HTML-lite when it looks like
// markup, markdown-lite plain text otherwise.
func parseDoc(text string) *document.Document {
	if strings.Contains(text, "<") {
		return document.ParseHTML(text)
	}
	return document.ParseText(text)
}

// parseCheckParams parses the per-request query parameters shared by the
// check, stream, and audit endpoints. On a bad parameter it writes the 400
// and returns ok=false.
func (s *Server) parseCheckParams(w http.ResponseWriter, r *http.Request) (opts []core.CheckOption, timeout time.Duration, ok bool) {
	q := r.URL.Query()
	for param, opt := range map[string]func(int) core.CheckOption{
		"topk":    core.WithTopK,
		"workers": core.WithWorkers,
	} {
		if v := q.Get(param); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad %s %q", param, v)
				return nil, 0, false
			}
			opts = append(opts, opt(n))
		}
	}
	timeout = s.opts.RequestTimeout
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad timeout %q", v)
			return nil, 0, false
		}
		if timeout == 0 || d < timeout {
			timeout = d
		}
	}
	return opts, timeout, true
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, name, doc, opts, ok := s.requestSetup(w, r)
	defer cancel()
	if !ok {
		return
	}
	if err := s.acquire(ctx); err != nil {
		s.writeCheckError(w, name, err)
		return
	}
	defer s.release()

	// Resolve the checker once, up front: the report renderer needs its
	// default table name, and resolving after Check could rebuild an
	// LRU-evicted catalog on the response path.
	ck, err := s.svc.Checker(ctx, name)
	if err != nil {
		s.writeCheckError(w, name, err)
		return
	}
	rep, err := ck.Check(ctx, doc, opts...)
	if err != nil {
		s.writeCheckError(w, name, err)
		return
	}
	writeJSON(w, http.StatusOK, toWireReport(name, rep, defaultTableOf(ck)))
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, name, doc, opts, ok := s.requestSetup(w, r)
	defer cancel()
	if !ok {
		return
	}
	if err := s.acquire(ctx); err != nil {
		s.writeCheckError(w, name, err)
		return
	}
	defer s.release()

	// Resolve the checker first so unknown databases still fail with a
	// proper status code instead of mid-stream.
	ck, err := s.svc.Checker(ctx, name)
	if err != nil {
		s.writeCheckError(w, name, err)
		return
	}
	events, err := ck.Stream(ctx, doc, opts...)
	if err != nil {
		s.writeCheckError(w, name, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	defTable := defaultTableOf(ck)
	for ev := range events {
		if err := enc.Encode(toWireEvent(name, ev, defTable)); err != nil {
			// Client went away; cancel the run and drain to completion so
			// the stream goroutine can exit.
			cancel()
			for range events {
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// writeCheckError maps service/pipeline errors to HTTP statuses.
func (s *Server) writeCheckError(w http.ResponseWriter, name string, err error) {
	switch {
	case errors.Is(err, core.ErrUnknownDatabase):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "verification timed out")
	case errors.Is(err, context.Canceled):
		// Client is gone; nothing useful to send.
		httpError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		s.logf("httpapi: check %q: %v", name, err)
		httpError(w, http.StatusInternalServerError, "internal error")
	}
}

func defaultTableOf(ck *core.Checker) string {
	if ck == nil || ck.Engine == nil {
		return ""
	}
	return ck.Engine.DefaultTable()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
