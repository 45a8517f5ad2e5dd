package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"fastbfs/internal/algo"
	"fastbfs/internal/graph"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// HTTP transport tests: the sentinel-to-status mapping (400/404/429/504)
// and the JSON shapes served by cmd/fastbfsd.

func newHTTPService(t *testing.T, cfg serve.Config) (*storage.Mem, graph.Meta, *serve.GraphService, *httptest.Server) {
	t.Helper()
	vol, m := storedGraph(t)
	cfg.Base = smallBase()
	svc, err := serve.New(vol, m.Name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { svc.Close() })
	return vol, m, svc, ts
}

func postQuery(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestHTTPQueryAndHealth(t *testing.T) {
	vol, m, svc, ts := newHTTPService(t, serve.Config{})
	want := refBFS(t, serve.EngineFastBFS, vol, m.Name, 1)

	resp, body := postQuery(t, ts.URL, `{"algorithm":"bfs","root":1,"include_values":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body %s", resp.StatusCode, body)
	}
	var hr struct {
		Graph     string   `json:"graph"`
		Algorithm string   `json:"algorithm"`
		Visited   uint64   `json:"visited"`
		Cached    bool     `json:"cached"`
		Levels    []uint32 `json:"levels"`
		Parents   []uint32 `json:"parents"`
	}
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Graph != m.Name || hr.Algorithm != "bfs" || hr.Visited != want.Visited || hr.Cached {
		t.Fatalf("response header fields = %+v", hr)
	}
	if !reflect.DeepEqual(hr.Levels, want.Levels) {
		t.Fatal("levels over HTTP differ from the serial reference")
	}
	wantPar := make([]uint32, len(want.Parents))
	for i, p := range want.Parents {
		wantPar[i] = uint32(p)
	}
	if !reflect.DeepEqual(hr.Parents, wantPar) {
		t.Fatal("parents over HTTP differ from the serial reference")
	}

	// Same query again: served from the cache.
	if _, body := postQuery(t, ts.URL, `{"algorithm":"bfs","root":1}`); !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Fatalf("repeat query not cached: %s", body)
	}
	// Without include_values the big arrays are omitted.
	if _, body := postQuery(t, ts.URL, `{"algorithm":"bfs","root":1}`); bytes.Contains(body, []byte(`"levels"`)) {
		t.Fatalf("summary response carries value arrays: %s", body)
	}

	// SSSP distances must survive JSON: +Inf (unreached) encodes as -1.
	wantDist := refSSSP(t, vol, m.Name, 1)
	_, body = postQuery(t, ts.URL, `{"algorithm":"sssp","root":1,"include_values":true}`)
	var sr struct {
		Distances []float32 `json:"distances"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("sssp response is not JSON (%v): %.120s", err, body)
	}
	if len(sr.Distances) != len(wantDist) {
		t.Fatalf("sssp distances over HTTP: %d values, want %d", len(sr.Distances), len(wantDist))
	}
	for i, d := range wantDist {
		got := sr.Distances[i]
		if d == algo.Inf {
			if got != -1 {
				t.Fatalf("unreached vertex %d encoded as %v, want -1", i, got)
			}
		} else if got != d {
			t.Fatalf("distance[%d] = %v over HTTP, want %v", i, got, d)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string      `json:"status"`
		Graph  string      `json:"graph"`
		Stats  serve.Stats `json:"stats"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Graph != m.Name || hz.Stats.Completed != 2 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, hz)
	}

	// Bad inputs map to 400; a wrong method to 405.
	for _, body := range []string{
		`{not json`,
		`{"algorithm":"bfs","engine":"spark"}`,
		`{"algorithm":"bfs","root":9999999}`,
		`{"algorithm":"wcc"}`,
	} {
		if resp, b := postQuery(t, ts.URL, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
	if resp, err := http.Get(ts.URL + "/query"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d, want 405", resp.StatusCode)
	}

	// A draining service answers 503 on both endpoints.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postQuery(t, ts.URL, `{"algorithm":"bfs","root":2}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("query during drain: status = %d, want 503", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status = %d, want 503", resp.StatusCode)
	}
}

func TestHTTPIOFailureReasonAndDegradedHealth(t *testing.T) {
	// A query that fails on the volume answers 500 with a machine-readable
	// reason, counts toward the breaker (a threshold of one trips it), and
	// /healthz flips to "degraded" (still 200 — the service keeps
	// serving). Draining still wins over degraded. Two failures: permanent
	// read faults on the per-query update files exhaust the engine's retry
	// budget (io_failed), and an out-of-core batched BFS reads a stored
	// edge file with an endpoint past the last vertex (corrupted).
	for _, c := range []struct {
		reason string
		open   func(t *testing.T) (storage.Volume, graph.Meta, serve.Config)
	}{
		{"io_failed", func(t *testing.T) (storage.Volume, graph.Meta, serve.Config) {
			vol, m := storedGraph(t)
			faulty := storage.NewFaulty(vol, storage.FaultSpec{Seed: 1, PReadP: 1, Match: "_upd"})
			return faulty, m, serve.Config{CacheEntries: -1, Base: splittingBase()}
		}},
		{"corrupted", func(t *testing.T) (storage.Volume, graph.Meta, serve.Config) {
			vol, m := storedGraph(t)
			_, edges, err := graph.LoadEdges(vol, m.Name)
			if err != nil {
				t.Fatal(err)
			}
			edges[len(edges)/2].Dst = graph.VertexID(m.Vertices)
			if err := storage.WriteAll(vol, graph.EdgeFileName(m.Name), graph.EdgesToBytes(edges)); err != nil {
				t.Fatal(err)
			}
			return vol, m, serve.Config{CacheEntries: -1, BatchSize: 2, BatchWait: time.Millisecond, Base: smallBase()}
		}},
	} {
		vol, m, cfg := c.open(t)
		cfg.BreakerThreshold = 1
		svc, err := serve.New(vol, m.Name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { svc.Close() })

		resp, body := postQuery(t, ts.URL, `{"algorithm":"bfs","root":1}`)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: failed query: status = %d (%s), want 500", c.reason, resp.StatusCode, body)
		}
		var he struct {
			Error  string `json:"error"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(body, &he); err != nil {
			t.Fatalf("%s: error body is not JSON (%v): %s", c.reason, err, body)
		}
		if he.Reason != c.reason || he.Error == "" {
			t.Fatalf("error body = %s, want reason %s", body, c.reason)
		}

		hresp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hz struct {
			Status string      `json:"status"`
			Stats  serve.Stats `json:"stats"`
		}
		err = json.NewDecoder(hresp.Body).Decode(&hz)
		hresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hresp.StatusCode != http.StatusOK || hz.Status != "degraded" {
			t.Fatalf("%s: healthz after the failure = %d %q, want 200 degraded", c.reason, hresp.StatusCode, hz.Status)
		}
		if hz.Stats.IOFailures == 0 || hz.Stats.BreakerTrips != 1 || cfg.BatchSize > 0 && hz.Stats.BatchQueries != 1 {
			t.Fatalf("%s: stats after the failed query = %+v, want io_failures > 0, one breaker trip and a batched query when batching", c.reason, hz.Stats)
		}

		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		hresp, err = http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(hresp.Body).Decode(&hz)
		hresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hresp.StatusCode != http.StatusServiceUnavailable || hz.Status != "draining" {
			t.Fatalf("%s: healthz while draining = %d %q, want 503 draining", c.reason, hresp.StatusCode, hz.Status)
		}
	}
}

func TestHTTPTransientRetriesStayHealthy(t *testing.T) {
	// Transient faults under an ample retry budget: the query succeeds
	// with the exact reference answer, the retries show up in the service
	// stats, and health stays "ok" — degraded is reserved for failures.
	vol, m := storedGraph(t)
	base := splittingBase()
	base.Base.RetryAttempts = 20
	faulty := storage.NewFaulty(vol, storage.FaultSpec{Seed: 7, ReadP: 0.2, WriteP: 0.2, Match: "_upd"})
	svc, err := serve.New(faulty, m.Name, serve.Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { svc.Close() })
	want := refBFS(t, serve.EngineFastBFS, vol, m.Name, 1)

	resp, body := postQuery(t, ts.URL, `{"algorithm":"bfs","root":1,"include_values":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query under transient faults: status = %d (%s)", resp.StatusCode, body)
	}
	var hr struct {
		Visited uint64   `json:"visited"`
		Levels  []uint32 `json:"levels"`
	}
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Visited != want.Visited || !reflect.DeepEqual(hr.Levels, want.Levels) {
		t.Fatal("result under transient faults differs from the fault-free reference")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string      `json:"status"`
		Stats  serve.Stats `json:"stats"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&hz)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz after retried query = %d %q, want 200 ok", hresp.StatusCode, hz.Status)
	}
	if hz.Stats.IORetries == 0 || hz.Stats.IOFailures != 0 {
		t.Fatalf("stats after retried query = %+v, want io_retries > 0 and io_failures == 0", hz.Stats)
	}
}

// goPost issues the request from a helper goroutine, reporting only
// through the channel (t must not be used off the test goroutine).
func goPost(url, body string) chan int {
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

func TestHTTPServesStaleGraphWithoutReverse(t *testing.T) {
	// A graph stored before the reverse-edge file existed must stay
	// fully servable even when the service is configured direction=auto:
	// every query silently falls back to pure top-down instead of
	// erroring, in both out-of-core engines.
	vol, m := storedGraph(t)
	vol.Remove(graph.ReverseFileName(m.Name))

	cfg := serve.Config{Base: smallBase()}
	cfg.Base.Base.Direction = xstream.DirectionAuto
	svc, err := serve.New(vol, m.Name, cfg)
	if err != nil {
		t.Fatalf("service refused a graph without a reverse file: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { svc.Close() })

	want := refBFS(t, serve.EngineFastBFS, vol, m.Name, 1)
	for _, engine := range []string{"fastbfs", "xstream"} {
		resp, body := postQuery(t, ts.URL,
			`{"algorithm":"bfs","engine":"`+engine+`","root":1,"include_values":true,"no_cache":true}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on stale graph: status = %d, body %s", engine, resp.StatusCode, body)
		}
		var hr struct {
			Visited uint64   `json:"visited"`
			Levels  []uint32 `json:"levels"`
		}
		if err := json.Unmarshal(body, &hr); err != nil {
			t.Fatal(err)
		}
		if hr.Visited != want.Visited {
			t.Fatalf("%s visited %d, want %d", engine, hr.Visited, want.Visited)
		}
		if !reflect.DeepEqual(hr.Levels, want.Levels) {
			t.Fatalf("%s levels on the stale graph differ from the top-down reference", engine)
		}
	}
}

func TestHTTPBusy(t *testing.T) {
	vol, _, svc, ts := newHTTPService(t, serve.Config{MaxInFlight: 1, MaxQueue: -1})
	gate := newWriteGate(vol)

	done := goPost(ts.URL, `{"algorithm":"bfs","root":1}`)
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 }, "gated query in flight")

	if resp, body := postQuery(t, ts.URL, `{"algorithm":"bfs","root":2}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated service: status = %d (%s), want 429", resp.StatusCode, body)
	}
	gate.release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("gated query finished with %d, want 200", code)
	}
}

func TestHTTPTimeout(t *testing.T) {
	vol, _, svc, ts := newHTTPService(t, serve.Config{})
	gate := newWriteGate(vol)

	// The gate holds the query past its 40ms server-side deadline; once
	// released, the engine observes the dead context at its next
	// checkpoint and the transport maps the cause to 504.
	done := goPost(ts.URL, `{"algorithm":"bfs","root":1,"timeout_ms":40}`)
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 }, "timed query in flight")
	time.Sleep(150 * time.Millisecond)
	gate.release()
	if code := <-done; code != http.StatusGatewayTimeout {
		t.Fatalf("blown deadline: status = %d, want 504", code)
	}
}
