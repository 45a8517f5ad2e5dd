package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// Overload-resilience tests (DESIGN.md §15): panic isolation, deadline
// and queue-aging sheds, the per-graph circuit breaker, degraded-mode
// stale answers and the HTTP overload surface (Retry-After, /readyz,
// degraded /healthz).

// failQueryWrites injects a permanent write error into the service's
// per-query working files (prefix "q") while armed. Unlike writeGate it
// fails the query outright — the raw error is not transient, so the
// stream layer gives up on the first try and the engine dies with
// ErrIOFailed, which is what feeds the circuit breaker.
type failQueryWrites struct{ on atomic.Bool }

func armFailQueryWrites(vol *storage.Mem) *failQueryWrites {
	f := &failQueryWrites{}
	f.on.Store(true)
	vol.FailWrites(func(name string, written int64) error {
		if f.on.Load() && strings.HasPrefix(name, "q") {
			return errors.New("injected: media gone")
		}
		return nil
	})
	return f
}

// TestServicePanicIsolation: a poisoned root (Config.PanicRoot) panics
// mid-scatter; the panic must surface as ErrInternal on exactly that
// query while the service keeps serving, leaks no goroutines and no
// working files.
func TestServicePanicIsolation(t *testing.T) {
	vol, m := storedGraph(t)
	want := refBFS(t, serve.EngineFastBFS, vol, m.Name, 1)
	before := runtime.NumGoroutine()

	svc, err := serve.New(vol, m.Name, serve.Config{
		MaxInFlight: 2, CacheEntries: -1, Base: smallBase(), PanicRoot: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The poisoned root dies with ErrInternal on every engine that
	// scatters — worker-pool panics (fastbfs, xstream) and serial
	// engine-thread panics (algo via SSSP) alike.
	for i, q := range []serve.Query{
		{Algorithm: serve.AlgoBFS, Engine: serve.EngineFastBFS, Root: 7},
		{Algorithm: serve.AlgoBFS, Engine: serve.EngineXStream, Root: 7},
		{Algorithm: serve.AlgoSSSP, Root: 7},
	} {
		res, err := svc.Submit(context.Background(), q)
		if !errors.Is(err, errs.ErrInternal) {
			t.Fatalf("poisoned query %d: err = %v, want ErrInternal", i, err)
		}
		if res != nil {
			t.Fatalf("poisoned query %d returned a result alongside the panic", i)
		}
		if got := svc.Stats().Panics; got != int64(i+1) {
			t.Fatalf("after poisoned query %d: Panics = %d, want %d", i, got, i+1)
		}
	}

	// An innocent query right after the panics is answered and is
	// byte-identical to the serial reference: the panic poisoned one
	// query, not the service.
	res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1})
	if err != nil {
		t.Fatalf("query after panic: %v", err)
	}
	if !reflect.DeepEqual(res.Levels, want.Levels) || res.Visited != want.Visited {
		t.Fatal("query after panic differs from the serial reference")
	}

	st := svc.Stats()
	if st.Panics != 3 || st.Completed != 1 {
		t.Fatalf("stats after chaos: panics=%d completed=%d, want 3 and 1", st.Panics, st.Completed)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// The panics unwound through the engines' deferred cleanup: no
	// working files, no goroutines left behind.
	assertOnlyDataset(t, vol, m)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across recovered panics", before, after)
	}
}

// TestServicePanicIsolationUnderPoisoningPool repeats the test above
// with the stream layer's poisoning pool audit installed (DESIGN.md
// §17): the three panicking queries — two recovered on a scatter
// worker, one unwinding the algo engine's own thread — and the innocent
// one after them stream on buffers filled with 0xA5, every one of which
// must be back in its pool once the service has closed.
func TestServicePanicIsolationUnderPoisoningPool(t *testing.T) {
	audit := stream.AuditPools()
	defer audit.Stop()
	TestServicePanicIsolation(t)
	if n := audit.Outstanding(); n != 0 {
		t.Errorf("%d stream buffers still outstanding after the service closed", n)
	}
	if audit.Peak() == 0 {
		t.Error("no query drew a buffer from an audited pool; the audit checked nothing")
	}
}

// TestServiceDeadlineShedAndStale: once the predictor has seen one real
// execution, a query whose deadline cannot cover the predicted cost is
// shed at Submit with ErrDeadlineHopeless and a Retry-After hint — and
// an AllowStale query shed the same way is answered from an expired
// cache entry instead, marked Stale.
func TestServiceDeadlineShedAndStale(t *testing.T) {
	vol, m := storedGraph(t)
	svc, err := serve.New(vol, m.Name, serve.Config{
		MaxInFlight: 1, MaxQueue: 4, Shed: true,
		CacheTTL: time.Millisecond, Base: smallBase(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Train the predictor and fill the cache with root 5.
	warm, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 5})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the cache entry expire

	hopeless, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	// A fresh root with a blown deadline is shed, with a retry hint.
	_, err = svc.Submit(hopeless, serve.Query{Algorithm: serve.AlgoBFS, Root: 6})
	if !errors.Is(err, errs.ErrDeadlineHopeless) {
		t.Fatalf("blown-deadline query: err = %v, want ErrDeadlineHopeless", err)
	}
	if hint, ok := serve.RetryAfterHint(err); !ok || hint <= 0 {
		t.Fatalf("shed rejection carries no usable Retry-After hint: %v %v", hint, ok)
	}

	// The same shed with AllowStale is answered from the expired entry.
	res, err := svc.Submit(hopeless, serve.Query{Algorithm: serve.AlgoBFS, Root: 5, AllowStale: true})
	if err != nil {
		t.Fatalf("stale-eligible shed query failed: %v", err)
	}
	if !res.Stale || !res.Cached {
		t.Fatalf("degraded answer not marked: stale=%v cached=%v", res.Stale, res.Cached)
	}
	if !reflect.DeepEqual(res.Levels, warm.Levels) || res.Visited != warm.Visited {
		t.Fatal("stale answer differs from the entry that filled the cache")
	}

	st := svc.Stats()
	if st.Shed != 2 || st.ShedDeadline != 2 || st.StaleServed != 1 {
		t.Fatalf("stats: shed=%d shed_deadline=%d stale=%d, want 2/2/1",
			st.Shed, st.ShedDeadline, st.StaleServed)
	}
}

// TestServiceQueueAgingShed: with the CoDel target and interval turned
// all the way down, a waiter that aged in the queue is shed at grant
// time — one shed per grant, the next waiter granted regardless.
func TestServiceQueueAgingShed(t *testing.T) {
	vol, m := storedGraph(t)
	svc, err := serve.New(vol, m.Name, serve.Config{
		MaxInFlight: 1, MaxQueue: 4, CacheEntries: -1,
		Shed: true, ShedTarget: time.Nanosecond, ShedInterval: time.Nanosecond,
		Base: smallBase(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := newWriteGate(vol)

	bCh, w1, w2 := make(chan outcome, 1), make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		r, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1})
		bCh <- outcome{r, err}
	}()
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 }, "blocker in flight")
	go func() {
		r, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 2})
		w1 <- outcome{r, err}
	}()
	waitFor(t, func() bool { return svc.Stats().QueueDepth == 1 }, "first waiter queued")
	go func() {
		r, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 3})
		w2 <- outcome{r, err}
	}()
	waitFor(t, func() bool { return svc.Stats().QueueDepth == 2 }, "second waiter queued")

	gate.release()
	// First grant observes the over-target wait and starts the CoDel
	// interval; by the second grant the interval has elapsed, so the
	// aged second waiter is shed instead of occupying the slot.
	if o := <-bCh; o.err != nil {
		t.Fatalf("blocker: %v", o.err)
	}
	if o := <-w1; o.err != nil {
		t.Fatalf("first waiter (granted on the interval's first over-target observation): %v", o.err)
	}
	if o := <-w2; !errors.Is(o.err, errs.ErrDeadlineHopeless) {
		t.Fatalf("aged waiter: err = %v, want ErrDeadlineHopeless", o.err)
	}
	st := svc.Stats()
	if st.ShedQueue != 1 || st.Shed != 1 {
		t.Fatalf("stats: shed_queue=%d shed=%d, want 1/1", st.ShedQueue, st.Shed)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	assertOnlyDataset(t, vol, m)
}

// TestServiceBreakerFastFailAndStale: consecutive I/O failures trip the
// per-graph breaker; while open, queries fail fast with ErrUnavailable
// plus a retry hint — no engine run, no working files — and AllowStale
// queries are answered from expired cache entries instead.
func TestServiceBreakerFastFailAndStale(t *testing.T) {
	vol, m := storedGraph(t)
	before := runtime.NumGoroutine()
	svc, err := serve.New(vol, m.Name, serve.Config{
		MaxInFlight: 2, CacheTTL: time.Millisecond,
		BreakerThreshold: 2, BreakerBackoff: 10 * time.Minute,
		Base: splittingBase(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cache root 5 while the volume is healthy, then let it expire.
	warm, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 5})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)

	fault := armFailQueryWrites(vol)
	for _, root := range []graph.VertexID{6, 7} {
		if _, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: root}); !errors.Is(err, errs.ErrIOFailed) {
			t.Fatalf("root %d on the dead volume: err = %v, want ErrIOFailed", root, err)
		}
	}
	st := svc.Stats()
	if st.BreakerTrips != 1 || st.BreakerOpen != 1 {
		t.Fatalf("after %d consecutive I/O failures: trips=%d open=%d, want 1/1", 2, st.BreakerTrips, st.BreakerOpen)
	}
	if ready, reasons := svc.Ready(); ready || !slicesContains(reasons, "breaker_open") {
		t.Fatalf("Ready() = %v %v with the breaker open", ready, reasons)
	}

	// Open breaker: fail-fast without touching the volume.
	files := len(vol.List())
	_, err = svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 8})
	if !errors.Is(err, errs.ErrUnavailable) {
		t.Fatalf("query with the breaker open: err = %v, want ErrUnavailable", err)
	}
	if hint, ok := serve.RetryAfterHint(err); !ok || hint <= 0 {
		t.Fatalf("breaker rejection carries no usable Retry-After hint: %v %v", hint, ok)
	}
	if got := len(vol.List()); got != files {
		t.Fatalf("fail-fast rejection touched the volume: %d files -> %d", files, got)
	}

	// Degraded mode: the expired entry answers an AllowStale query.
	res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 5, AllowStale: true})
	if err != nil {
		t.Fatalf("stale-eligible query with the breaker open: %v", err)
	}
	if !res.Stale {
		t.Fatal("breaker-open answer from expired cache not marked Stale")
	}
	if !reflect.DeepEqual(res.Levels, warm.Levels) {
		t.Fatal("stale answer differs from the cached run")
	}
	st = svc.Stats()
	if st.BreakerFastFails < 1 || st.StaleServed != 1 {
		t.Fatalf("stats: fast_fails=%d stale=%d, want >=1 and 1", st.BreakerFastFails, st.StaleServed)
	}

	fault.on.Store(false)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Failed runs aborted their writes and fail-fast rejections ran no
	// engine: only the dataset remains, and no goroutines leaked.
	assertOnlyDataset(t, vol, m)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across breaker rejections", before, after)
	}
}

// TestServiceBreakerProbeRecovery: after the backoff the breaker goes
// half-open, lets one probe through, and a successful probe closes it
// again — the service heals without a restart.
func TestServiceBreakerProbeRecovery(t *testing.T) {
	vol, m := storedGraph(t)
	svc, err := serve.New(vol, m.Name, serve.Config{
		MaxInFlight: 2, CacheEntries: -1,
		BreakerThreshold: 2, BreakerBackoff: 20 * time.Millisecond,
		Base: splittingBase(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	fault := armFailQueryWrites(vol)
	for _, root := range []graph.VertexID{6, 7} {
		if _, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: root}); !errors.Is(err, errs.ErrIOFailed) {
			t.Fatalf("root %d: err = %v, want ErrIOFailed", root, err)
		}
	}
	if st := svc.Stats(); st.BreakerOpen != 1 {
		t.Fatalf("breaker not open after %d failures", 2)
	}

	// Volume heals; once the backoff elapses the next query is the
	// half-open probe and its success closes the breaker.
	fault.on.Store(false)
	time.Sleep(50 * time.Millisecond)
	want := refBFS(t, serve.EngineFastBFS, vol, m.Name, 9)
	res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 9})
	if err != nil {
		t.Fatalf("probe query after the volume healed: %v", err)
	}
	if !reflect.DeepEqual(res.Levels, want.Levels) {
		t.Fatal("probe answer differs from the serial reference")
	}
	if st := svc.Stats(); st.BreakerOpen != 0 {
		t.Fatal("breaker still open after a successful probe")
	}
	if ready, reasons := svc.Ready(); !ready {
		t.Fatalf("Ready() = false %v after the breaker closed", reasons)
	}
}

// TestHTTPOverloadSurface: every 429/503 carries Retry-After, /readyz
// tracks queue and drain state, /healthz reports degraded while the
// breaker is open, and a request still naming an admission class, in
// the body or the header, is answered like any other.
func TestHTTPOverloadSurface(t *testing.T) {
	vol, m := storedGraph(t)
	svc, err := serve.New(vol, m.Name, serve.Config{
		MaxInFlight: 1, MaxQueue: 1, CacheEntries: -1,
		BreakerThreshold: 2, BreakerBackoff: 200 * time.Millisecond,
		Base: splittingBase(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()

	readyz := func() (int, bool, []string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		var body struct {
			Ready   bool     `json:"ready"`
			Reasons []string `json:"reasons"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("readyz body %q: %v", rec.Body.String(), err)
		}
		return rec.Code, body.Ready, body.Reasons
	}
	query := func(body string, hdr map[string]string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/query", strings.NewReader(body))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if code, ready, reasons := readyz(); code != http.StatusOK || !ready {
		t.Fatalf("fresh service readyz: %d ready=%v %v", code, ready, reasons)
	}

	// Admission has one class: a priority in the body or the header, even
	// a malformed one, is ignored and the query answered like any other.
	plain := query(`{"algorithm":"bfs","root":1}`, nil)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain query: %d %s", plain.Code, plain.Body.String())
	}
	visited := func(rec *httptest.ResponseRecorder) uint64 {
		var body struct {
			Visited uint64 `json:"visited"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("query body %q: %v", rec.Body.String(), err)
		}
		return body.Visited
	}
	for name, rec := range map[string]*httptest.ResponseRecorder{
		`"priority":"batch"`:        query(`{"algorithm":"bfs","root":1,"priority":"batch"}`, nil),
		"X-Fastbfs-Priority: batch": query(`{"algorithm":"bfs","root":1}`, map[string]string{"X-Fastbfs-Priority": "batch"}),
		"X-Fastbfs-Priority: yolo":  query(`{"algorithm":"bfs","root":1}`, map[string]string{"X-Fastbfs-Priority": "yolo"}),
	} {
		if rec.Code != http.StatusOK || visited(rec) != visited(plain) {
			t.Fatalf("query with %s: %d %s, want 200 like %s", name, rec.Code, rec.Body.String(), plain.Body.String())
		}
	}

	// Saturate: one pinned in flight, one queued (queue full).
	gate := newWriteGate(vol)
	done := make(chan *httptest.ResponseRecorder, 2)
	go func() { done <- query(`{"algorithm":"bfs","root":2}`, nil) }()
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 }, "blocker in flight")
	go func() { done <- query(`{"algorithm":"bfs","root":3}`, nil) }()
	waitFor(t, func() bool { return svc.Stats().QueueDepth == 1 }, "waiter queued")

	if code, ready, reasons := readyz(); code != http.StatusServiceUnavailable || ready || !slicesContains(reasons, "queue_full") {
		t.Fatalf("saturated readyz: %d ready=%v %v, want 503 queue_full", code, ready, reasons)
	}
	rec := query(`{"algorithm":"bfs","root":4}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("query beyond the queue: %d, want 429", rec.Code)
	}
	assertRetryAfter(t, rec, "busy rejection")

	gate.release()
	for i := 0; i < 2; i++ {
		if rec := <-done; rec.Code != http.StatusOK {
			t.Fatalf("drained query %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}

	// Trip the breaker: /healthz flips to degraded, /readyz to
	// breaker_open, and the fast-fail 503 carries Retry-After.
	fault := armFailQueryWrites(vol)
	for root := 6; root <= 7; root++ {
		if rec := query(`{"algorithm":"bfs","root":`+strconv.Itoa(root)+`}`, nil); rec.Code != http.StatusInternalServerError {
			t.Fatalf("query on the dead volume: %d %s", rec.Code, rec.Body.String())
		}
	}
	rec = query(`{"algorithm":"bfs","root":8}`, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open query: %d, want 503", rec.Code)
	}
	assertRetryAfter(t, rec, "breaker rejection")
	var herr struct {
		Reason string `json:"reason"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &herr); herr.Reason != "breaker_open" {
		t.Fatalf("breaker rejection reason = %q, want breaker_open", herr.Reason)
	}
	if code, ready, reasons := readyz(); code != http.StatusServiceUnavailable || ready || !slicesContains(reasons, "breaker_open") {
		t.Fatalf("breaker-open readyz: %d ready=%v %v", code, ready, reasons)
	}
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, httptest.NewRequest("GET", "/healthz", nil))
	var health struct {
		Status  string `json:"status"`
		Breaker string `json:"breaker"`
	}
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Breaker != "open" {
		t.Fatalf("healthz with the breaker open: status=%q breaker=%q", health.Status, health.Breaker)
	}
	fault.on.Store(false)
	time.Sleep(250 * time.Millisecond) // past the backoff: the next query is the half-open probe

	// Draining: /readyz says so, and the 503 still carries Retry-After.
	// The drain blocker doubles as the breaker's healing probe.
	shutdownDone := make(chan error, 1)
	gate2 := newWriteGate(vol)
	go func() { done <- query(`{"algorithm":"bfs","root":9}`, nil) }()
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 }, "drain blocker in flight")
	go func() { shutdownDone <- svc.Shutdown(context.Background()) }()
	waitFor(t, func() bool { _, reasons := svc.Ready(); return slicesContains(reasons, "draining") }, "service draining")
	rec = query(`{"algorithm":"bfs","root":10}`, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %d, want 503", rec.Code)
	}
	assertRetryAfter(t, rec, "draining rejection")
	if code, ready, reasons := readyz(); code != http.StatusServiceUnavailable || ready || !slicesContains(reasons, "draining") {
		t.Fatalf("draining readyz: %d ready=%v %v", code, ready, reasons)
	}
	gate2.release()
	<-done
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func assertRetryAfter(t *testing.T, rec *httptest.ResponseRecorder, what string) {
	t.Helper()
	v := rec.Header().Get("Retry-After")
	if v == "" {
		t.Fatalf("%s (HTTP %d) carries no Retry-After header", what, rec.Code)
	}
	if n, err := strconv.Atoi(v); err != nil || n < 1 {
		t.Fatalf("%s Retry-After = %q, want an integer >= 1", what, v)
	}
}

func slicesContains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
