// Command fastbfsd serves BFS queries over one stored graph as a
// long-lived HTTP daemon: the graph is opened once and queried many
// times concurrently, with per-query deadlines, admission control and a
// result cache (internal/serve).
//
// Usage:
//
//	fastbfsd -dir DATA -graph rmat20 [-addr localhost:8090]
//	         [-mem 1073741824] [-threads 4] [-workers N]
//	         [-sim] [-simscale 2048]
//	         [-max-inflight 4] [-max-queue 8] [-cache 64]
//	         [-batch-size 32] [-batch-wait 2ms] [-config run.conf]
//	         [-shed] [-breaker-threshold 5] [-cache-ttl 0] [-panic-root 0]
//	         [-drain-timeout 30s] [-debugaddr localhost:6060]
//	         [-tracefile serve.jsonl] [-slow-query 500ms]
//
// Cross-query batching (DESIGN.md §13) engages out of core only, where a
// pass over the device is what a batch shares: with -mem below the graph,
// concurrent uncapped BFS queries coalesce into shared bit-parallel runs
// of up to -batch-size distinct roots, held at most -batch-wait for
// companions (-batch-size 0 disables it). At a budget the graph fits the
// daemon holds it resident and never batches, whatever -batch-size says:
// every BFS query is one indexed traversal on its own slot and meets
// -max-queue like any other query. -config loads a runtime-settings file
// (internal/runconfig) in place of the engine flags (-mem, -threads,
// -workers, -sim, -simscale, -ssd). The file holds engine settings only:
// the daemon's own settings are flags, and a file naming one is rejected
// like any unknown key.
//
// Overload resilience (DESIGN.md §15): -shed turns on deadline-aware
// admission and CoDel-style queue aging (shed queries get 429 +
// Retry-After), -breaker-threshold tunes the per-graph circuit breaker
// (0 disables), -cache-ttl bounds result-cache freshness (expired
// entries still answer allow_stale queries in degraded mode), and
// -panic-root poisons one root with a mid-scatter panic — the chaos hook
// CI uses to prove panic isolation. The daemon's own settings have no
// environment variables.
//
// Endpoints:
//
//	POST /query   {"algorithm":"bfs|msbfs|sssp","engine":"fastbfs|xstream",
//	               "root":1,"roots":[..],"max_iterations":0,"timeout_ms":0,
//	               "no_cache":false,"allow_stale":false,"include_values":false}
//	GET  /healthz liveness, uptime, build info plus live service counters
//	GET  /readyz  readiness: not draining, breaker closed, queue sane
//	GET  /metrics serve counters + latency histograms, Prometheus text
//
// Saturated admission and overload shedding return 429 (with
// Retry-After), an open circuit breaker 503 (with Retry-After), a blown
// server-side deadline 504, a malformed query 400, an isolated query
// panic 500. SIGINT/SIGTERM drain gracefully: the listener stops
// accepting, in-flight queries run to completion (bounded by
// -drain-timeout), then the process exits.
//
// Every query gets a trace ID (client-supplied X-Request-Id or minted),
// returned in the response and stamped into the -tracefile JSONL spans,
// so one slow request can be chased from client to trace with
// `tracecat -trace ID`. At drain the daemon appends its final counter
// and latency-histogram snapshots to the trace. -slow-query logs every
// query at or over the threshold to stderr as one JSON line.
//
// -debugaddr serves net/http/pprof, expvar counters (including the
// serve_* admission/cache counters and latency quantiles) and a
// plain-text stats page, like cmd/fastbfs.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fastbfs/internal/algo"
	"fastbfs/internal/errs"
	"fastbfs/internal/obs"
	"fastbfs/internal/runconfig"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
)

func main() {
	addr := flag.String("addr", "localhost:8090", "address to serve the query API on")
	dir := flag.String("dir", ".", "directory holding the stored graph")
	name := flag.String("graph", "", "dataset name (required)")
	mem := flag.Uint64("mem", 1<<30, "per-query working memory budget in bytes")
	threads := flag.Int("threads", 4, "compute threads per query")
	workers := flag.Int("workers", 0, "scatter worker goroutines per query (0 = FASTBFS_WORKERS env or NumCPU)")
	sim := flag.Bool("sim", false, "run queries against the simulated testbed (per-query device clones)")
	simScale := flag.Float64("simscale", 1, "scale down the simulated positioning cost by this factor")
	ssd := flag.Bool("ssd", false, "simulate the SSD instead of the HDD")
	maxInFlight := flag.Int("max-inflight", 4, "queries executing concurrently")
	maxQueue := flag.Int("max-queue", 0, "queries allowed to wait for a slot (0 = 2*max-inflight; negative = reject immediately when busy)")
	cacheEntries := flag.Int("cache", 64, "result-cache entries (negative disables)")
	batchSize := flag.Int("batch-size", algo.MaxBatchRoots,
		"out of core: distinct roots coalesced per shared BFS run (0 disables batching; max 32); a resident graph is never batched")
	batchWait := flag.Duration("batch-wait", 2*time.Millisecond,
		"how long a forming batch waits for companion queries")
	shed := flag.Bool("shed", false,
		"enable deadline-aware admission and CoDel-style queue shedding (429 + Retry-After)")
	breakerThreshold := flag.Int("breaker-threshold", 5,
		"consecutive I/O failures tripping the circuit breaker (0 disables)")
	cacheTTL := flag.Duration("cache-ttl", 0,
		"result-cache freshness bound (0 = never expire; expired entries still serve allow_stale)")
	panicRoot := flag.Int64("panic-root", 0,
		"chaos: panic mid-scatter for queries on this root (0 disables)")
	configPath := flag.String("config", "", "runtime-settings file supplying the engine options (replaces -mem/-threads/-workers/-sim/-simscale/-ssd)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight queries")
	debugAddr := flag.String("debugaddr", "", "serve pprof, expvar counters and a stats page on this address")
	traceFile := flag.String("tracefile", "", "append JSONL trace events (serve_query spans, drain telemetry) to this file")
	slowQuery := flag.Duration("slow-query", 0, "log queries at or over this end-to-end latency to stderr (0 disables)")
	flag.Parse()

	if *name == "" {
		fmt.Fprintln(os.Stderr, "fastbfsd: -graph is required")
		os.Exit(2)
	}
	vol, err := storage.NewOS(*dir)
	if err != nil {
		fail(err)
	}
	// One path from settings to options: the engine flags fill the same
	// runconfig.Config a -config file parses into.
	rc := runconfig.Default()
	if *configPath == "" {
		rc.MemoryBudget, rc.Threads, rc.ScatterWorkers = *mem, *threads, *workers
		rc.Sim, rc.SeekScale = *sim, *simScale
		if *ssd {
			rc.Device = "ssd"
		}
	} else if rc, err = runconfig.ParseFile(*configPath); err != nil {
		// The settings file replaces the engine-option flags wholesale.
		fail(err)
	}
	base := rc.CoreOptions()

	var sinks []obs.Sink
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	tr := obs.New(sinks...)
	defer tr.Close()
	cfg := serve.Config{
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		CacheEntries:     *cacheEntries,
		BatchSize:        *batchSize,
		BatchWait:        *batchWait,
		Shed:             *shed,
		CacheTTL:         *cacheTTL,
		BreakerThreshold: *breakerThreshold,
		PanicRoot:        *panicRoot,
		Base:             base,
		Tracer:           tr,
	}
	if *breakerThreshold == 0 {
		// The flag's 0 means "breaker off"; the serve layer spells that -1
		// (its 0 selects the default threshold).
		cfg.BreakerThreshold = -1
	}
	if *slowQuery > 0 {
		cfg.SlowQueryThreshold = *slowQuery
		cfg.SlowQueryLog = os.Stderr
	}
	svc, err := serve.New(vol, *name, cfg)
	if err != nil {
		fail(err)
	}

	if *debugAddr != "" {
		if err := serveDebug(*debugAddr, tr, svc); err != nil {
			fail(err)
		}
	}

	server := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "fastbfsd: serving %s (%d vertices, %d edges, codec %s) on http://%s\n",
		*name, svc.Graph().Vertices, svc.Graph().Edges, svc.Graph().EdgeCodec(), ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "fastbfsd: draining...")
	case err := <-errCh:
		fail(err)
	}
	stop()

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop the listener first (no new queries), then drain the service.
	if err := server.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "fastbfsd: http shutdown:", err)
	}
	drainErr := svc.Shutdown(drainCtx)
	// The final counter and histogram snapshots go to the trace either
	// way: an aborted drain is exactly when the telemetry matters.
	tr.EmitCounters()
	tr.EmitHistograms()
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "fastbfsd: drain:", drainErr)
		tr.Close() // os.Exit skips the deferred flush
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "fastbfsd: drained")
}

// serveDebug starts the debug HTTP server: pprof, expvar (service
// counters as "fastbfsd", latency quantiles as "fastbfsd_latency") and
// a plain-text stats page at /.
func serveDebug(addr string, tr *obs.Tracer, svc *serve.GraphService) error {
	expvar.Publish("fastbfsd", expvar.Func(func() any { return tr.CounterMap() }))
	expvar.Publish("fastbfsd_latency", expvar.Func(func() any {
		out := make(map[string]map[string]float64)
		for _, s := range tr.HistogramSnapshots() {
			out[s.Key()] = map[string]float64{
				"count": float64(s.Count),
				"p50":   s.Quantile(0.50).Seconds(),
				"p90":   s.Quantile(0.90).Seconds(),
				"p99":   s.Quantile(0.99).Seconds(),
				"p999":  s.Quantile(0.999).Seconds(),
				"max":   s.Max.Seconds(),
			}
		}
		return out
	}))
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st := svc.Stats()
		g := svc.Graph()
		fmt.Fprintf(w, "fastbfsd live stats\n\n")
		fmt.Fprintf(w, "graph %s: %d vertices, %d edges, codec %s, reordered %v\n\n",
			g.Name, g.Vertices, g.Edges, g.EdgeCodec(), g.Reordered)
		fmt.Fprintf(w, "%-22s %d\n", "in_flight", st.InFlight)
		fmt.Fprintf(w, "%-22s %d\n", "queue_depth", st.QueueDepth)
		fmt.Fprintf(w, "%-22s %d\n", "admitted", st.Admitted)
		fmt.Fprintf(w, "%-22s %d\n", "rejected", st.Rejected)
		fmt.Fprintf(w, "%-22s %d\n", "cancelled", st.Cancelled)
		fmt.Fprintf(w, "%-22s %d\n", "completed", st.Completed)
		fmt.Fprintf(w, "%-22s %d\n", "cache_hits", st.CacheHits)
		fmt.Fprintf(w, "%-22s %d\n", "cache_misses", st.CacheMisses)
		fmt.Fprintf(w, "%-22s %d\n", "cache_size", st.CacheSize)
		fmt.Fprintf(w, "%-22s %d\n", "io_retries", st.IORetries)
		fmt.Fprintf(w, "%-22s %d\n", "io_failures", st.IOFailures)
		fmt.Fprintf(w, "%-22s %d\n", "slow_queries", st.SlowQueries)
		fmt.Fprintf(w, "%-22s %d\n", "batch_queries", st.BatchQueries)
		fmt.Fprintf(w, "%-22s %d\n", "batch_runs", st.BatchRuns)
		fmt.Fprintf(w, "%-22s %d\n", "batch_coalesced", st.BatchCoalesced)
		fmt.Fprintf(w, "%-22s %d\n", "batch_solo", st.BatchSolo)
		fmt.Fprintf(w, "%-22s %d\n", "batch_evicted", st.BatchEvicted)
		fmt.Fprintf(w, "%-22s %d\n", "device_bytes", st.DeviceBytes)
		fmt.Fprintf(w, "%-22s %d\n", "batch_bytes_saved", st.BatchBytesSaved)
		fmt.Fprintf(w, "%-22s %d\n", "shed", st.Shed)
		fmt.Fprintf(w, "%-22s %d\n", "shed_deadline", st.ShedDeadline)
		fmt.Fprintf(w, "%-22s %d\n", "shed_queue", st.ShedQueue)
		fmt.Fprintf(w, "%-22s %d\n", "panics", st.Panics)
		fmt.Fprintf(w, "%-22s %d\n", "stale_served", st.StaleServed)
		fmt.Fprintf(w, "%-22s %d\n", "breaker_trips", st.BreakerTrips)
		fmt.Fprintf(w, "%-22s %d\n", "breaker_fast_fails", st.BreakerFastFails)
		fmt.Fprintf(w, "%-22s %d\n", "breaker_open", st.BreakerOpen)
		fmt.Fprintf(w, "%-22s %d\n", "prepared_resident", st.PreparedResident)
		fmt.Fprintf(w, "%-22s %d\n", "prepared_edges", st.PreparedEdges)
		fmt.Fprintf(w, "%-22s %d\n", "prepared_bytes", st.PreparedBytes)
		fmt.Fprintf(w, "%-22s %.3f\n", "prepared_load_seconds", st.PreparedLoadSeconds)
		fmt.Fprintf(w, "%-22s %.1f\n", "uptime_s", svc.Uptime().Seconds())
		tel := svc.Telemetry()
		if len(tel.Histograms) > 0 {
			fmt.Fprintf(w, "\nlatency (seconds):\n%-64s %8s %10s %10s %10s %10s %10s\n",
				"histogram", "count", "p50", "p90", "p99", "p999", "max")
			for _, s := range tel.Histograms {
				if s.Count == 0 {
					continue
				}
				fmt.Fprintf(w, "%-64s %8d %10.6f %10.6f %10.6f %10.6f %10.6f\n",
					s.Key(), s.Count,
					s.Quantile(0.50).Seconds(), s.Quantile(0.90).Seconds(),
					s.Quantile(0.99).Seconds(), s.Quantile(0.999).Seconds(),
					s.Max.Seconds())
			}
		}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug server on %s: %w", addr, err)
	}
	go http.Serve(ln, mux)
	return nil
}

// fail reports err and exits with its errs.ExitCode.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "fastbfsd:", err)
	os.Exit(errs.ExitCode(err))
}
