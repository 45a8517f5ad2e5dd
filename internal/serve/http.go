package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"fastbfs/internal/algo"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
)

// httpQuery is the JSON request body of POST /query.
type httpQuery struct {
	Algorithm     string   `json:"algorithm,omitempty"`
	Engine        string   `json:"engine,omitempty"`
	Root          uint32   `json:"root,omitempty"`
	Roots         []uint32 `json:"roots,omitempty"`
	MaxIterations int      `json:"max_iterations,omitempty"`
	// TimeoutMs bounds the query server-side (on top of the client
	// closing the connection, which also cancels it).
	TimeoutMs int  `json:"timeout_ms,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`
	// AllowStale opts into degraded-mode answers from expired cache
	// entries when the service is shedding or the breaker is open.
	AllowStale bool `json:"allow_stale,omitempty"`
	// IncludeValues returns the per-vertex arrays, which are large;
	// without it the response carries only the summary fields.
	IncludeValues bool `json:"include_values,omitempty"`
}

// httpResult is the JSON response body of POST /query.
type httpResult struct {
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm"`
	TraceID   string `json:"trace_id"`
	Visited   uint64 `json:"visited"`
	Cached    bool   `json:"cached"`
	Batched   bool   `json:"batched,omitempty"`
	// Stale marks a degraded-mode answer served from an expired cache
	// entry (the query set allow_stale and the service was overloaded or
	// the breaker open).
	Stale    bool     `json:"stale,omitempty"`
	ExecTime float64  `json:"exec_time,omitempty"`
	Levels   []uint32 `json:"levels,omitempty"`
	Parents  []uint32 `json:"parents,omitempty"`
	// Distances uses -1 for unreached vertices: the engine's +Inf
	// sentinel is not representable in JSON.
	Distances []float32 `json:"distances,omitempty"`
}

type httpError struct {
	Error string `json:"error"`
	// Reason carries the sentinel class for machine consumption
	// ("io_failed", "corrupted") when the failure is an I/O one.
	Reason string `json:"reason,omitempty"`
	// TraceID identifies the failed request in traces and logs.
	TraceID string `json:"trace_id,omitempty"`
}

// statusFor maps service errors to HTTP status codes: the sentinel
// taxonomy is what lets the transport layer do this with errors.Is
// instead of string matching.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errs.ErrBadOptions):
		return http.StatusBadRequest
	case errors.Is(err, errs.ErrGraphNotFound):
		return http.StatusNotFound
	case errors.Is(err, errs.ErrBusy), errors.Is(err, errs.ErrDeadlineHopeless):
		// Both mean "try later": saturation and overload shedding. The
		// response carries a Retry-After hint either way.
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, errs.ErrClosed), errors.Is(err, errs.ErrCancelled), errors.Is(err, errs.ErrUnavailable):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// reasonFor classifies I/O-taxonomy and overload errors for
// httpError.Reason; other errors are self-describing and get no reason
// field.
func reasonFor(err error) string {
	switch {
	case errors.Is(err, errs.ErrCorrupted):
		return "corrupted"
	case errors.Is(err, errs.ErrIOFailed):
		return "io_failed"
	case errors.Is(err, errs.ErrDeadlineHopeless):
		return "shed"
	case errors.Is(err, errs.ErrUnavailable):
		return "breaker_open"
	case errors.Is(err, errs.ErrInternal):
		return "panic"
	}
	return ""
}

// setRetryAfter stamps the Retry-After header every 429/503 carries: the
// hint the rejection computed (rounded up to whole seconds), or 1s when
// the rejection carried none — clients should always get a number.
func setRetryAfter(w http.ResponseWriter, err error) {
	secs := int64(1)
	if hint, ok := RetryAfterHint(err); ok {
		s := int64((hint + time.Second - 1) / time.Second)
		if s > secs {
			secs = s
		}
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

// Handler returns the service's HTTP interface:
//
//	POST /query   JSON httpQuery -> httpResult
//	GET  /healthz liveness, uptime, build info + Stats snapshot
//	GET  /readyz  readiness (not draining, breaker closed, queue sane)
//	GET  /metrics serve counters + latency histograms, Prometheus text
//
// Saturation and overload shedding map to 429, the open circuit breaker
// and draining to 503 (both 429 and 503 carry Retry-After), a blown
// server-side deadline to 504, a malformed query to 400, an isolated
// query panic to 500; the daemon (cmd/fastbfsd) mounts this on its
// listener. Every /query response — success or error — carries the
// request's trace ID in the X-Request-Id header and the JSON body; a
// client-supplied X-Request-Id is adopted after sanitization.
func (s *GraphService) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// requestTraceID adopts the client's X-Request-Id or mints a fresh ID.
// Client IDs are clamped to 64 chars of [A-Za-z0-9._-]; anything else is
// dropped so headers cannot smuggle arbitrary bytes into traces/logs.
func requestTraceID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	clean := make([]byte, 0, len(id))
	for i := 0; i < len(id) && len(clean) < 64; i++ {
		c := id[i]
		if c == '_' || c == '-' || c == '.' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			clean = append(clean, c)
		}
	}
	if len(clean) == 0 {
		return obs.NewTraceID()
	}
	return string(clean)
}

func (s *GraphService) handleQuery(w http.ResponseWriter, r *http.Request) {
	traceID := requestTraceID(r)
	w.Header().Set("X-Request-Id", traceID)
	var hq httpQuery
	if err := json.NewDecoder(r.Body).Decode(&hq); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "bad request body: " + err.Error(), TraceID: traceID})
		return
	}
	engine, err := ParseEngine(hq.Engine)
	if err != nil {
		writeJSON(w, statusFor(err), httpError{Error: err.Error(), TraceID: traceID})
		return
	}
	q := Query{
		Algorithm:     Algorithm(hq.Algorithm),
		Engine:        engine,
		Root:          graph.VertexID(hq.Root),
		MaxIterations: hq.MaxIterations,
		NoCache:       hq.NoCache,
		AllowStale:    hq.AllowStale,
		TraceID:       traceID,
	}
	for _, r := range hq.Roots {
		q.Roots = append(q.Roots, graph.VertexID(r))
	}
	ctx := r.Context()
	if hq.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(hq.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	res, err := s.Submit(ctx, q)
	if err != nil {
		// A cancelled query whose cause is the server-side timeout is a
		// gateway timeout, not a plain cancellation.
		status := statusFor(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			setRetryAfter(w, err)
		}
		writeJSON(w, status, httpError{Error: err.Error(), Reason: reasonFor(err), TraceID: traceID})
		return
	}
	hr := httpResult{
		Graph:     s.name,
		Algorithm: string(q.Algorithm),
		TraceID:   res.TraceID,
		Visited:   res.Visited,
		Cached:    res.Cached,
		Batched:   res.Batched,
		Stale:     res.Stale,
		ExecTime:  res.Metrics.ExecTime,
	}
	if hq.IncludeValues {
		hr.Levels = res.Levels
		if res.Distances != nil {
			hr.Distances = make([]float32, len(res.Distances))
			for i, d := range res.Distances {
				if d == algo.Inf {
					d = -1
				}
				hr.Distances[i] = d
			}
		}
		if res.Parents != nil {
			hr.Parents = make([]uint32, len(res.Parents))
			for i, p := range res.Parents {
				hr.Parents[i] = uint32(p)
			}
		}
	}
	writeJSON(w, http.StatusOK, hr)
}

func (s *GraphService) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	stats := s.Stats()
	status := http.StatusOK
	state := "ok"
	switch {
	case closed:
		status = http.StatusServiceUnavailable
		state = "draining"
	case s.brk.open():
		// Still alive (status 200) but the circuit breaker took the
		// volume out of service; /readyz reports not-ready so balancers
		// stop routing here while the backoff runs.
		state = "degraded"
	case stats.IOFailures > 0:
		// Still serving (status 200) but queries have hit I/O failures
		// past the retry budget; operators should look at the disks.
		state = "degraded"
	}
	writeJSON(w, status, struct {
		Status   string `json:"status"`
		Graph    string `json:"graph"`
		Vertices uint64 `json:"vertices"`
		Edges    uint64 `json:"edges"`
		// Codec/Reordered describe the open graph's stored encoding so
		// operators can tell what a query pays for device bytes.
		Codec     string  `json:"codec"`
		Reordered bool    `json:"reordered"`
		UptimeS   float64 `json:"uptime_s"`
		GoVersion string  `json:"go_version"`
		// BatchSize/BatchWaitMs expose the batching configuration so
		// load tooling can label measurements with the server's mode.
		BatchSize   int     `json:"batch_size"`
		BatchWaitMs float64 `json:"batch_wait_ms"`
		// Breaker is the circuit breaker's current state: "closed",
		// "open", "half-open", or "disabled".
		Breaker string `json:"breaker"`
		Stats   Stats  `json:"stats"`
	}{
		Status:      state,
		Graph:       s.name,
		Vertices:    s.meta.Vertices,
		Edges:       s.meta.Edges,
		Codec:       string(s.meta.EdgeCodec()),
		Reordered:   s.meta.Reordered,
		UptimeS:     s.Uptime().Seconds(),
		GoVersion:   runtime.Version(),
		BatchSize:   s.cfg.BatchSize,
		BatchWaitMs: float64(s.cfg.BatchWait) / float64(time.Millisecond),
		Breaker:     s.brk.stateName(),
		Stats:       stats,
	})
}

// handleReadyz is the readiness probe: distinct from /healthz liveness,
// it answers "should a balancer route new queries here right now".
// Draining, an open breaker, a full admission queue or predicted
// overload all report 503 with the reasons listed.
func (s *GraphService) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reasons := s.Ready()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons,omitempty"`
	}{Ready: ready, Reasons: reasons})
}

// handleMetrics serves the registry — the serve_* counters plus the
// wait/exec/e2e latency histograms — in Prometheus text format, with
// uptime and build-info gauges so scrapes are attributable to one
// daemon incarnation and graph.
func (s *GraphService) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# TYPE fastbfs_uptime_seconds gauge\nfastbfs_uptime_seconds %g\n", s.Uptime().Seconds())
	fmt.Fprintf(w, "# TYPE fastbfs_build_info gauge\nfastbfs_build_info{go_version=%q,graph=%q,codec=%q} 1\n",
		runtime.Version(), s.name, string(s.meta.EdgeCodec()))
	fmt.Fprintf(w, "# TYPE fastbfs_graph_vertices gauge\nfastbfs_graph_vertices %d\n", s.meta.Vertices)
	fmt.Fprintf(w, "# TYPE fastbfs_graph_edges gauge\nfastbfs_graph_edges %d\n", s.meta.Edges)
	st := s.Stats()
	fmt.Fprintf(w, "# TYPE fastbfs_prepared_resident gauge\nfastbfs_prepared_resident %d\n", st.PreparedResident)
	fmt.Fprintf(w, "# TYPE fastbfs_prepared_edges gauge\nfastbfs_prepared_edges %d\n", st.PreparedEdges)
	fmt.Fprintf(w, "# TYPE fastbfs_prepared_bytes gauge\nfastbfs_prepared_bytes %d\n", st.PreparedBytes)
	fmt.Fprintf(w, "# TYPE fastbfs_prepared_load_seconds gauge\nfastbfs_prepared_load_seconds %g\n", st.PreparedLoadSeconds)
	_ = obs.WriteProm(w, "fastbfs", s.Telemetry())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
