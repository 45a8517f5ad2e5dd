// Package serve is the long-lived query service over a stored graph:
// it opens a graph once and serves many concurrent BFS, multi-source
// BFS and SSSP queries against it, where each engine run in the rest of
// the repository is a one-shot batch job.
//
// The service adds the three things a batch engine lacks (DESIGN.md §9):
//
//   - per-query deadlines and cancellation: every query carries a
//     context.Context, which the engines poll at iteration and partition
//     boundaries and inside the stay writer's grace wait, so a cancelled
//     query releases its stream buffers and working files promptly;
//   - admission control with backpressure: at most MaxInFlight queries
//     execute at once and at most MaxQueue wait for a slot; beyond that
//     Submit fails fast with errs.ErrBusy instead of queueing without
//     bound;
//   - a small LRU result cache keyed by the normalized query, so a
//     repeated traversal from a popular root is answered without
//     touching the engines at all.
//
// Concurrent queries share one volume and one immutable
// xstream.PreparedGraph (DESIGN.md §16) — metadata, permutation and,
// when the graph fits the memory budget, the resident edge list and its
// adjacency index, all built once at New; isolation comes from a unique
// per-query FilePrefix, a per-query clone of the simulated-device
// configuration (devices accumulate fluid state) and a nil engine tracer
// (a shared tracer's time source is engine-thread-only). The service
// keeps its own Tracer for the serve_* counters.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastbfs/internal/algo"
	"fastbfs/internal/core"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/graphchi"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
	"fastbfs/internal/xstream"
)

// Engine selects which BFS engine executes a query.
type Engine int

const (
	// EngineFastBFS is the paper's engine (trimming, stay files,
	// selective scheduling) — the default.
	EngineFastBFS Engine = iota
	// EngineXStream is the unmodified edge-centric baseline.
	EngineXStream
	// EngineGraphChi is the parallel-sliding-windows baseline, for
	// RunEngine and the CLI; the service does not serve it.
	EngineGraphChi
)

// String returns the engine's canonical name.
func (e Engine) String() string {
	switch e {
	case EngineFastBFS:
		return "fastbfs"
	case EngineXStream:
		return "xstream"
	case EngineGraphChi:
		return "graphchi"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine maps a name ("fastbfs", "xstream", "graphchi") to an
// Engine. Unknown names fail with errs.ErrBadOptions.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fastbfs":
		return EngineFastBFS, nil
	case "xstream":
		return EngineXStream, nil
	case "graphchi":
		return EngineGraphChi, nil
	}
	return 0, fmt.Errorf("serve: unknown engine %q: %w", s, errs.ErrBadOptions)
}

// RunEngine dispatches one BFS run to the chosen engine. It is the
// single entry point behind fastbfs.Run and the service's executor;
// the per-engine RunContext functions remain available for callers that
// need engine-specific options.
func RunEngine(ctx context.Context, engine Engine, vol storage.Volume, graphName string, opts core.Options) (*core.Result, error) {
	switch engine {
	case EngineFastBFS:
		return core.RunContext(ctx, vol, graphName, opts)
	case EngineXStream:
		return xstream.RunContext(ctx, vol, graphName, opts.Base)
	case EngineGraphChi:
		return graphchi.RunContext(ctx, vol, graphName, opts.Base)
	}
	return nil, fmt.Errorf("serve: unknown engine %d: %w", int(engine), errs.ErrBadOptions)
}

// Algorithm selects what a query computes.
type Algorithm string

const (
	// AlgoBFS is single-source BFS (levels + parents).
	AlgoBFS Algorithm = "bfs"
	// AlgoMSBFS is multi-source BFS: levels are distances to the nearest
	// root. It always runs on the generalized algo engine.
	AlgoMSBFS Algorithm = "msbfs"
	// AlgoSSSP is single-source shortest paths (Bellman-Ford
	// iterations); unweighted graphs get unit weights.
	AlgoSSSP Algorithm = "sssp"
)

// Query is one request against the service's graph.
type Query struct {
	// Algorithm defaults to AlgoBFS when empty.
	Algorithm Algorithm
	// Engine picks the BFS engine, fastbfs or xstream; ignored
	// (normalized to the default) for AlgoMSBFS and AlgoSSSP, which run on
	// the algo engine.
	Engine Engine
	// Root is the source vertex for AlgoBFS and AlgoSSSP.
	Root graph.VertexID
	// Roots are the sources for AlgoMSBFS; order and duplicates do not
	// affect the result, so they are sorted and deduplicated.
	Roots []graph.VertexID
	// MaxIterations caps the iteration count (0 = no cap).
	MaxIterations int
	// NoCache bypasses the result cache for this query, both lookup and
	// store.
	NoCache bool
	// Deprecated: Priority does nothing. Admission has one FIFO queue
	// (DESIGN.md §15).
	Priority Priority
	// AllowStale opts into degraded-mode answers: when the circuit
	// breaker is open or overload control sheds the query, an expired
	// result-cache entry may answer it instead, marked Result.Stale.
	AllowStale bool
	// TraceID correlates this query across the JSONL trace, the
	// slow-query log and histogram exemplars. Empty means the service
	// generates one; either way the ID comes back in Result.TraceID. It
	// is not part of the result-cache key.
	TraceID string
}

// Result is a query's answer. The slices are shared with the service's
// result cache: treat them as read-only.
type Result struct {
	// Levels and Parents are set for AlgoBFS and AlgoMSBFS.
	Levels  []uint32
	Parents []graph.VertexID
	// Distances is set for AlgoSSSP (algo.Inf = unreached).
	Distances []float32
	// Visited counts reached vertices.
	Visited uint64
	// Metrics is the underlying engine run's measurement record (zero
	// for cache hits, which run no engine).
	Metrics metrics.Run
	// Cached reports that the answer came from the result cache.
	Cached bool
	// Batched reports that this Submit was answered by demultiplexing a
	// shared batch run (DESIGN.md §13). Metrics then describes that
	// shared run, not a per-query one. Cache hits clear it: they report
	// their own provenance, not the filling query's.
	Batched bool
	// Stale reports a degraded-mode answer (DESIGN.md §15): the query
	// opted in with AllowStale and was answered from an expired cache
	// entry because the breaker was open or overload control shed it.
	Stale bool
	// TraceID is the query's trace ID (the submitted one, or the one the
	// service generated).
	TraceID string
}

// Config tunes a GraphService.
type Config struct {
	// MaxInFlight is the number of queries executing concurrently.
	// Default 4.
	MaxInFlight int
	// MaxQueue is the number of queries allowed to wait for an execution
	// slot before Submit fails with errs.ErrBusy. Default 2*MaxInFlight.
	// Negative means no waiting: reject as soon as every slot is busy.
	MaxQueue int
	// CacheEntries sizes the LRU result cache. Default 64; negative
	// disables caching.
	CacheEntries int
	// BatchSize turns on cross-query batch execution (DESIGN.md §13) for
	// a graph served out of core: single-source BFS queries that miss the
	// result cache accumulate into shared bit-parallel runs of up to
	// BatchSize distinct roots per pass over the device. 0 disables
	// batching; values above algo.MaxBatchRoots (32) are clamped to it. A
	// resident graph has no pass to share, so its service never batches,
	// whatever BatchSize says.
	BatchSize int
	// BatchWait is the longest a forming batch is held open waiting for
	// companion queries before it executes. Default 2ms when batching is
	// enabled. Queries with tight deadlines shorten their batch's hold.
	BatchWait time.Duration
	// Base is the engine configuration applied to every query (memory
	// budget, threads, simulation, trim policy...). Per-query fields —
	// Root, MaxIterations, FilePrefix, Tracer, Sim (cloned) — are
	// overwritten by the service.
	Base core.Options
	// Tracer receives the service's serve_* counters (admissions,
	// rejections, queue depth, cache traffic), the per-query latency
	// histograms and the per-query "serve_query" trace spans. When nil
	// the service keeps a private sink-less tracer so Stats, Telemetry
	// and /metrics still work.
	Tracer *obs.Tracer
	// SlowQueryThreshold marks queries whose end-to-end latency reaches
	// it: they bump the serve_slow_queries counter and are appended to
	// SlowQueryLog. Zero disables slow-query tracking.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives one JSON line per slow query (trace ID,
	// algorithm, engine, outcome, wait/exec/e2e milliseconds). Nil means
	// slow queries are counted but not logged.
	SlowQueryLog io.Writer

	// Shed enables deadline-aware admission and CoDel-style queue aging
	// (DESIGN.md §15): queries whose context deadline cannot survive the
	// EWMA-predicted queue wait plus execution time are rejected at
	// Submit with errs.ErrDeadlineHopeless, and waiters aged past
	// ShedTarget are shed from the queue before they occupy a slot.
	Shed bool
	// ShedTarget is the acceptable queue wait (CoDel's target). Default
	// 25ms.
	ShedTarget time.Duration
	// ShedInterval is how long the head-of-queue wait must stay above
	// ShedTarget before queue-aging sheds begin (CoDel's interval).
	// Default 100ms.
	ShedInterval time.Duration
	// CacheTTL bounds how long a result-cache entry answers fresh
	// lookups; 0 means entries never expire. Expired entries stay
	// resident for degraded-mode (AllowStale) answers.
	CacheTTL time.Duration
	// BreakerThreshold is how many consecutive ErrIOFailed/ErrCorrupted
	// results trip the per-graph circuit breaker. Default 5; negative
	// disables the breaker.
	BreakerThreshold int
	// BreakerBackoff is the breaker's initial open interval before the
	// half-open probe; a failed probe doubles it up to BreakerMaxBackoff.
	// Defaults 500ms and max(8s, BreakerBackoff); a cap below the
	// initial backoff is raised to it.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// Deprecated: PriorityHeader does nothing. Admission has one FIFO
	// queue, and the header is ignored like any other.
	PriorityHeader string
	// PanicRoot, when positive, installs a chaos fault hook that panics
	// mid-scatter for queries rooted at that vertex — the seam the
	// chaos-serve CI cell uses to prove panic isolation. 0 disables it
	// (root 0 cannot be poisoned; chaos runs pick any other root).
	// Queries on the poisoned root never batch, so the panic is
	// isolated to exactly that query.
	PanicRoot int64
}

func (c *Config) setDefaults() {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 1
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.BatchSize < 0 {
		c.BatchSize = 0
	}
	if c.BatchSize > algo.MaxBatchRoots {
		c.BatchSize = algo.MaxBatchRoots
	}
	if c.BatchSize > 0 && c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.ShedTarget <= 0 {
		c.ShedTarget = 25 * time.Millisecond
	}
	if c.ShedInterval <= 0 {
		c.ShedInterval = 100 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = 500 * time.Millisecond
	}
	if c.BreakerMaxBackoff <= 0 {
		c.BreakerMaxBackoff = 8 * time.Second
	}
	// A failed probe must never shorten the open interval.
	c.BreakerMaxBackoff = max(c.BreakerMaxBackoff, c.BreakerBackoff)
}

// serveCounters are the service's live obs counters (no-ops on a nil
// Tracer).
type serveCounters struct {
	inflight    *obs.Counter
	queueDepth  *obs.Counter
	admitted    *obs.Counter
	rejected    *obs.Counter
	cancelled   *obs.Counter
	completed   *obs.Counter
	ioRetries   *obs.Counter
	ioFailures  *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	slow        *obs.Counter

	batchQueries    *obs.Counter
	batchRuns       *obs.Counter
	batchCoalesced  *obs.Counter
	batchSolo       *obs.Counter
	batchEvicted    *obs.Counter
	deviceBytes     *obs.Counter
	batchBytesSaved *obs.Counter

	shed         *obs.Counter
	shedDeadline *obs.Counter
	shedQueue    *obs.Counter
	panics       *obs.Counter
	stale        *obs.Counter
	breakerTrips *obs.Counter
	breakerFast  *obs.Counter
	breakerProbe *obs.Counter
	breakerOpen  *obs.Counter
}

// GraphService serves concurrent queries over one stored graph.
type GraphService struct {
	vol  storage.Volume
	name string
	meta graph.Meta
	cfg  Config

	// prepared is the graph as opened: shared, read-only, handed to every
	// engine run. The service serves this snapshot until it is closed.
	prepared *xstream.PreparedGraph

	tr    *obs.Tracer
	ctr   serveCounters
	start time.Time

	// slowMu serializes writes to the slow-query log.
	slowMu sync.Mutex

	// id is unique among the process's services and seq numbers this
	// one's queries; together they make every run's working-file prefix
	// its own, even when several services stream on one volume (see
	// runOpts).
	id  uint64
	seq atomic.Uint64

	mu      sync.Mutex
	closed  bool          // no new Submits
	closing chan struct{} // closed by Shutdown; wakes the batch runners
	wg      sync.WaitGroup

	// adm is the overload-aware slot manager (admission.go); pred the
	// exec-time EWMA tracker feeding its predictions; brk the per-graph
	// circuit breaker (nil when disabled).
	adm  *admitter
	pred *predictor
	brk  *breaker

	// panicStackOnce gates the full stack dump: the first isolated
	// panic logs its stack, later ones log a single line (the counter
	// carries the rate).
	panicStackOnce sync.Once

	cache *lru
	// batcher coalesces BFS queries into shared runs; nil when
	// Config.BatchSize is 0 or the graph is resident.
	batcher *batcher
}

// New opens graphName on vol for serving: it builds the shared
// PreparedGraph — metadata, permutation and, when the graph fits
// cfg.Base's memory budget, the whole validated edge list and the
// adjacency index over it — once, with the engines' fault injection and
// transient-fault retries. A missing graph fails with
// errs.ErrGraphNotFound; a volume that cannot be read or a damaged graph
// fails here with errs.ErrIOFailed / errs.ErrCorrupted rather than
// failing every query later.
func New(vol storage.Volume, graphName string, cfg Config) (*GraphService, error) {
	cfg.setDefaults()
	// New's signature predates contexts; nothing can cancel an open.
	pg, err := xstream.LoadPrepared(context.TODO(), vol, graphName, cfg.Base.Base)
	if err != nil {
		return nil, err
	}
	if pg.Resident() {
		log.Printf("serve: %s: resident: %d edges (%d bytes with the index) loaded in %.3fs; memory budget %d >= in-memory need %d",
			graphName, len(pg.Edges()), pg.ResidentBytes(), pg.LoadTime.Seconds(), pg.Budget, pg.Need)
		// A batch shares a pass over the device. A resident query makes
		// none — it is one indexed traversal on its own admission slot — so
		// residency, not the setting, turns batching off (and /healthz says
		// so).
		cfg.BatchSize, cfg.BatchWait = 0, 0
	} else {
		log.Printf("serve: %s: not resident: memory budget %d < in-memory need %d; every query streams the graph from the volume",
			graphName, pg.Budget, pg.Need)
	}
	m := pg.Meta
	tr := cfg.Tracer
	if tr == nil {
		// Counters back Stats and the health endpoint, so they must exist
		// even when the caller wires no observability; a sink-less tracer
		// owns no resources and needs no Close.
		tr = obs.New()
	}
	s := &GraphService{
		id:       serviceIDs.Add(1),
		vol:      vol,
		name:     graphName,
		meta:     m,
		cfg:      cfg,
		prepared: pg,
		tr:       tr,
		start:    time.Now(),
		closing:  make(chan struct{}),
		cache:    newLRU(cfg.CacheEntries),
		pred:     newPredictor(),
	}
	s.adm = newAdmitter(s)
	s.brk = newBreaker(s)
	s.ctr = serveCounters{
		inflight:    s.tr.Counter(obs.CtrServeInflight),
		queueDepth:  s.tr.Counter(obs.CtrServeQueueDepth),
		admitted:    s.tr.Counter(obs.CtrServeAdmitted),
		rejected:    s.tr.Counter(obs.CtrServeRejected),
		cancelled:   s.tr.Counter(obs.CtrServeCancelled),
		completed:   s.tr.Counter(obs.CtrServeCompleted),
		ioRetries:   s.tr.Counter(obs.CtrServeIORetries),
		ioFailures:  s.tr.Counter(obs.CtrServeIOFailures),
		cacheHits:   s.tr.Counter(obs.CtrServeCacheHits),
		cacheMisses: s.tr.Counter(obs.CtrServeCacheMisses),
		slow:        s.tr.Counter(obs.CtrServeSlow),

		batchQueries:    s.tr.Counter(obs.CtrServeBatchQueries),
		batchRuns:       s.tr.Counter(obs.CtrServeBatchRuns),
		batchCoalesced:  s.tr.Counter(obs.CtrServeBatchCoalesced),
		batchSolo:       s.tr.Counter(obs.CtrServeBatchSolo),
		batchEvicted:    s.tr.Counter(obs.CtrServeBatchEvicted),
		deviceBytes:     s.tr.Counter(obs.CtrServeDeviceBytes),
		batchBytesSaved: s.tr.Counter(obs.CtrServeBatchBytesSaved),

		shed:         s.tr.Counter(obs.CtrServeShed),
		shedDeadline: s.tr.Counter(obs.CtrServeShedDeadline),
		shedQueue:    s.tr.Counter(obs.CtrServeShedQueue),
		panics:       s.tr.Counter(obs.CtrServePanics),
		stale:        s.tr.Counter(obs.CtrServeStale),
		breakerTrips: s.tr.Counter(obs.CtrServeBreakerTrips),
		breakerFast:  s.tr.Counter(obs.CtrServeBreakerFast),
		breakerProbe: s.tr.Counter(obs.CtrServeBreakerProbe),
		breakerOpen:  s.tr.Counter(obs.CtrServeBreakerOpen),
	}
	s.ctr.ioRetries.Add(pg.LoadRetries)
	if cfg.BatchSize > 0 {
		s.batcher = newBatcher(s)
	}
	return s, nil
}

// Graph returns the served graph's metadata.
func (s *GraphService) Graph() graph.Meta { return s.meta }

// Uptime reports how long the service has been open.
func (s *GraphService) Uptime() time.Duration { return time.Since(s.start) }

// Telemetry snapshots the service's counters and latency histograms in
// one call — what GET /metrics and the debug page render.
func (s *GraphService) Telemetry() obs.Telemetry { return s.tr.Telemetry() }

// queryTiming is the per-query latency breakdown Submit feeds into the
// serve histograms and the slow-query log.
type queryTiming struct {
	wait   time.Duration // admission: Submit entry to slot acquired (or refused)
	exec   time.Duration // engine execution
	e2e    time.Duration // the whole Submit call
	waited bool          // the query reached admission control
	ran    bool          // an engine actually executed
	cached bool          // answered from the result cache
}

// Submit runs one query, blocking until it completes, fails, is
// cancelled, or cannot be admitted. Errors are matchable with errors.Is
// against the errs sentinels: ErrBadOptions (malformed query), ErrBusy
// (admission control), ErrCancelled (ctx cancelled or past deadline —
// the ctx cause is in the same chain), ErrClosed (service shut down).
//
// Every Submit — success or failure — is recorded in the serve latency
// histograms (admission wait, execution, end-to-end) partitioned by
// {algo, engine, outcome}, and emitted as a "serve_query" span stamped
// with the query's trace ID.
func (s *GraphService) Submit(ctx context.Context, q Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if q.TraceID == "" {
		q.TraceID = obs.NewTraceID()
	}
	sp := s.tr.Span("serve_query").SetTrace(q.TraceID)

	var tm queryTiming
	nq, res, err := s.submit(ctx, q, &tm)
	tm.e2e = time.Since(start)
	if res != nil {
		res.TraceID = q.TraceID
	}
	s.record(nq, res, err, tm, sp)
	return res, err
}

// submit is Submit's body, separated so the caller can time and record
// the attempt uniformly on every exit path. It returns the normalized
// query for histogram labelling even when it fails.
func (s *GraphService) submit(ctx context.Context, q Query, tm *queryTiming) (Query, *Result, error) {
	nq, key, err := s.normalize(q)
	if err != nil {
		return nq, nil, err
	}

	// Register with the drain group before anything else so Shutdown
	// waits for queries already inside Submit, including waiters.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nq, nil, fmt.Errorf("serve: %s: %w", s.name, errs.ErrClosed)
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	useCache := s.cache != nil && !nq.NoCache
	if useCache {
		if res, ok := s.cache.get(key, s.cfg.CacheTTL); ok {
			s.ctr.cacheHits.Add(1)
			tm.cached = true
			hit := *res
			hit.Cached = true
			hit.Batched = false
			hit.Stale = false
			return nq, &hit, nil
		}
		s.ctr.cacheMisses.Add(1)
	}

	// Deadline-aware admission (DESIGN.md §15): a query whose deadline
	// cannot survive the predicted queue wait plus execution time is
	// refused before it costs anyone anything — unless an expired cache
	// entry can answer it in degraded mode.
	if err := s.hopeless(ctx, nq); err != nil {
		if res := s.tryStale(nq, key, useCache, tm); res != nil {
			return nq, res, nil
		}
		return nq, nil, err
	}

	// The per-graph circuit breaker fails fast while the volume is
	// sick; the single half-open probe runs solo (never batched) so its
	// outcome is attributable.
	probe, err := s.brk.allow()
	if err != nil {
		if res := s.tryStale(nq, key, useCache, tm); res != nil {
			return nq, res, nil
		}
		return nq, nil, err
	}

	if !probe && s.batchable(nq) {
		res, err := s.submitBatched(ctx, nq, key, useCache, tm)
		return nq, res, err
	}

	tm.waited = true
	waitStart := time.Now()
	err = s.adm.acquire(ctx, nq, false)
	tm.wait = time.Since(waitStart)
	if err != nil {
		if probe {
			s.brk.record(probe, err)
		}
		if errors.Is(err, errs.ErrDeadlineHopeless) {
			if res := s.tryStale(nq, key, useCache, tm); res != nil {
				return nq, res, nil
			}
		}
		return nq, nil, err
	}
	s.ctr.admitted.Add(1)
	s.ctr.inflight.Add(1)
	defer func() {
		s.ctr.inflight.Add(-1)
		s.adm.release()
	}()

	tm.ran = true
	execStart := time.Now()
	res, err := s.execute(ctx, nq)
	tm.exec = time.Since(execStart)
	s.brk.record(probe, err)
	if err != nil {
		if errors.Is(err, errs.ErrCancelled) || (ctx.Err() != nil && !errors.Is(err, errs.ErrInternal)) {
			s.ctr.cancelled.Add(1)
		}
		if errors.Is(err, errs.ErrIOFailed) || errors.Is(err, errs.ErrCorrupted) {
			s.ctr.ioFailures.Add(1)
		}
		return nq, nil, err
	}
	s.pred.observe(nq, tm.exec)
	s.ctr.completed.Add(1)
	s.ctr.ioRetries.Add(res.Metrics.IORetries)
	s.ctr.ioFailures.Add(res.Metrics.IOFailures)
	s.ctr.deviceBytes.Add(res.Metrics.BytesRead + res.Metrics.BytesWritten)
	if useCache {
		s.cache.put(key, res)
	}
	return nq, res, nil
}

// hopeless applies the Submit-time deadline check: with shedding
// enabled and a deadline present, a query whose remaining time is
// smaller than the predicted queue wait plus its own predicted
// execution time is shed with errs.ErrDeadlineHopeless (HTTP 429) and
// a Retry-After hint. No prediction data means no shedding.
func (s *GraphService) hopeless(ctx context.Context, q Query) error {
	if !s.cfg.Shed {
		return nil
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	wait := s.adm.estimatedWait()
	need := wait + time.Duration(s.pred.execSeconds(q)*float64(time.Second))
	if need <= 0 || time.Until(dl) >= need {
		return nil
	}
	s.ctr.shed.Add(1)
	s.ctr.shedDeadline.Add(1)
	hint := wait
	if hint <= 0 {
		hint = need
	}
	return withRetryAfter(hint, fmt.Errorf("serve: %s: deadline in %v, predicted wait+exec %v: %w",
		s.name, time.Until(dl).Round(time.Millisecond), need.Round(time.Millisecond), errs.ErrDeadlineHopeless))
}

// tryStale is the degraded-mode answer path: an opted-in (AllowStale)
// query that was shed or hit the open breaker is answered from the
// cache regardless of entry age, marked Stale. Returns nil when the
// query didn't opt in, bypasses the cache, or no entry exists.
func (s *GraphService) tryStale(q Query, key string, useCache bool, tm *queryTiming) *Result {
	if !q.AllowStale || !useCache {
		return nil
	}
	res, _, ok := s.cache.getAny(key)
	if !ok {
		return nil
	}
	s.ctr.stale.Add(1)
	tm.cached = true
	hit := *res
	hit.Cached = true
	hit.Batched = false
	hit.Stale = true
	return &hit
}

// Outcome labels for the serve histograms (DESIGN.md §11).
const (
	OutcomeOK         = "ok"
	OutcomeBusy       = "busy"
	OutcomeTimeout    = "timeout"
	OutcomeCancelled  = "cancelled"
	OutcomeIOFailed   = "io_failed"
	OutcomeClosed     = "closed"
	OutcomeBadRequest = "bad_request"
	OutcomeError      = "error"
	// OutcomeShed marks queries refused by overload control
	// (deadline-hopeless or CoDel queue aging); OutcomeBreakerOpen
	// queries failed fast by the open circuit breaker; OutcomePanic
	// queries lost to an isolated engine panic; OutcomeStale successful
	// degraded-mode answers served from an expired cache entry.
	OutcomeShed        = "shed"
	OutcomeBreakerOpen = "breaker_open"
	OutcomePanic       = "panic"
	OutcomeStale       = "stale"
)

// outcomeFor maps a Submit error to its histogram outcome label. A
// deadline-born cancellation counts as timeout, not cancelled; detected
// corruption shares io_failed with retry exhaustion (both mean "the
// storage layer lost the query").
func outcomeFor(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, errs.ErrDeadlineHopeless):
		return OutcomeShed
	case errors.Is(err, errs.ErrUnavailable):
		return OutcomeBreakerOpen
	case errors.Is(err, errs.ErrInternal):
		return OutcomePanic
	case errors.Is(err, errs.ErrBusy):
		return OutcomeBusy
	case errors.Is(err, context.DeadlineExceeded):
		return OutcomeTimeout
	case errors.Is(err, errs.ErrCancelled):
		return OutcomeCancelled
	case errors.Is(err, errs.ErrIOFailed), errors.Is(err, errs.ErrCorrupted):
		return OutcomeIOFailed
	case errors.Is(err, errs.ErrClosed):
		return OutcomeClosed
	case errors.Is(err, errs.ErrBadOptions):
		return OutcomeBadRequest
	}
	return OutcomeError
}

// histLabels builds the bounded {algo, engine, outcome} label set: raw
// client input never becomes a label value, so hostile queries cannot
// explode the metric cardinality.
func histLabels(q Query, outcome string) map[string]string {
	algoL := "invalid"
	switch q.Algorithm {
	case AlgoBFS, AlgoMSBFS, AlgoSSSP:
		algoL = string(q.Algorithm)
	}
	engineL := "invalid"
	switch q.Engine {
	case EngineFastBFS, EngineXStream:
		engineL = q.Engine.String()
	}
	return map[string]string{"algo": algoL, "engine": engineL, "outcome": outcome}
}

// record feeds one finished Submit into the latency histograms, closes
// its trace span and applies the slow-query policy.
func (s *GraphService) record(q Query, res *Result, err error, tm queryTiming, sp *obs.Span) {
	outcome := outcomeFor(err)
	if err == nil && res != nil && res.Stale {
		outcome = OutcomeStale
	}
	labels := histLabels(q, outcome)
	s.tr.Histogram(obs.HistServeE2E, labels).ObserveTrace(tm.e2e, q.TraceID)
	if tm.waited {
		s.tr.Histogram(obs.HistServeWait, labels).ObserveTrace(tm.wait, q.TraceID)
	}
	if tm.ran {
		s.tr.Histogram(obs.HistServeExec, labels).ObserveTrace(tm.exec, q.TraceID)
	}

	sp.Label("algo", labels["algo"]).Label("engine", labels["engine"]).Label("outcome", outcome)
	sp.Attr("wait_us", tm.wait.Microseconds()).Attr("exec_us", tm.exec.Microseconds())
	if tm.cached {
		sp.Attr("cached", 1)
	}
	if res != nil {
		sp.Attr("visited", int64(res.Visited))
		if res.Batched {
			sp.Attr("batched", 1)
		}
		if res.Stale {
			sp.Attr("stale", 1)
		}
	}
	sp.End()

	if s.cfg.SlowQueryThreshold > 0 && tm.e2e >= s.cfg.SlowQueryThreshold {
		s.ctr.slow.Add(1)
		s.logSlow(q, res, err, tm, labels)
	}
}

// slowQuery is one line of the structured slow-query log.
type slowQuery struct {
	Time    string  `json:"t"`
	Trace   string  `json:"trace"`
	Algo    string  `json:"algo"`
	Engine  string  `json:"engine"`
	Outcome string  `json:"outcome"`
	Root    uint32  `json:"root"`
	Roots   int     `json:"roots,omitempty"`
	WaitMs  float64 `json:"wait_ms"`
	ExecMs  float64 `json:"exec_ms"`
	E2EMs   float64 `json:"e2e_ms"`
	Cached  bool    `json:"cached,omitempty"`
	Visited uint64  `json:"visited,omitempty"`
	Error   string  `json:"error,omitempty"`
}

func (s *GraphService) logSlow(q Query, res *Result, err error, tm queryTiming, labels map[string]string) {
	if s.cfg.SlowQueryLog == nil {
		return
	}
	rec := slowQuery{
		Time:    time.Now().UTC().Format(time.RFC3339Nano),
		Trace:   q.TraceID,
		Algo:    labels["algo"],
		Engine:  labels["engine"],
		Outcome: labels["outcome"],
		Root:    uint32(q.Root),
		Roots:   len(q.Roots),
		WaitMs:  float64(tm.wait) / float64(time.Millisecond),
		ExecMs:  float64(tm.exec) / float64(time.Millisecond),
		E2EMs:   float64(tm.e2e) / float64(time.Millisecond),
		Cached:  tm.cached,
	}
	if res != nil {
		rec.Visited = res.Visited
	}
	if err != nil {
		rec.Error = err.Error()
	}
	line, merr := json.Marshal(rec)
	if merr != nil {
		return
	}
	line = append(line, '\n')
	s.slowMu.Lock()
	_, _ = s.cfg.SlowQueryLog.Write(line)
	s.slowMu.Unlock()
}

// normalize validates a query against the graph and produces its
// canonical form plus cache key.
func (s *GraphService) normalize(q Query) (Query, string, error) {
	if q.Algorithm == "" {
		q.Algorithm = AlgoBFS
	}
	if q.MaxIterations < 0 {
		return q, "", fmt.Errorf("serve: negative MaxIterations %d: %w", q.MaxIterations, errs.ErrBadOptions)
	}
	checkRoot := func(v graph.VertexID) error {
		if uint64(v) >= s.meta.Vertices {
			return fmt.Errorf("serve: root %d outside vertex space [0,%d): %w", v, s.meta.Vertices, errs.ErrBadOptions)
		}
		return nil
	}
	switch q.Algorithm {
	case AlgoBFS:
		if len(q.Roots) > 0 {
			return q, "", fmt.Errorf("serve: bfs takes Root, not Roots: %w", errs.ErrBadOptions)
		}
		if s.meta.Weighted {
			return q, "", fmt.Errorf("serve: bfs takes unweighted graphs; %s is weighted (use sssp): %w", s.name, errs.ErrBadOptions)
		}
		if err := checkRoot(q.Root); err != nil {
			return q, "", err
		}
		switch q.Engine {
		case EngineFastBFS, EngineXStream:
		case EngineGraphChi:
			return q, "", fmt.Errorf("serve: graphchi is a paper baseline, not a serving engine (run cmd/fastbfs -engine graphchi): %w", errs.ErrBadOptions)
		default:
			return q, "", fmt.Errorf("serve: unknown engine %d: %w", int(q.Engine), errs.ErrBadOptions)
		}
	case AlgoMSBFS:
		if len(q.Roots) == 0 {
			return q, "", fmt.Errorf("serve: msbfs needs at least one root: %w", errs.ErrBadOptions)
		}
		if s.meta.Weighted {
			return q, "", fmt.Errorf("serve: msbfs takes unweighted graphs; %s is weighted: %w", s.name, errs.ErrBadOptions)
		}
		roots := append([]graph.VertexID(nil), q.Roots...)
		sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
		roots = roots[:uniq(roots)]
		for _, r := range roots {
			if err := checkRoot(r); err != nil {
				return q, "", err
			}
		}
		q.Roots = roots
		q.Root = 0
		q.Engine = EngineFastBFS // runs on the algo engine; unify cache keys
	case AlgoSSSP:
		if len(q.Roots) > 0 {
			return q, "", fmt.Errorf("serve: sssp takes Root, not Roots: %w", errs.ErrBadOptions)
		}
		if err := checkRoot(q.Root); err != nil {
			return q, "", err
		}
		q.Engine = EngineFastBFS
	default:
		return q, "", fmt.Errorf("serve: unknown algorithm %q: %w", q.Algorithm, errs.ErrBadOptions)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d|%d|", q.Algorithm, q.Engine, q.Root, q.MaxIterations)
	for _, r := range q.Roots {
		fmt.Fprintf(&b, "%d,", r)
	}
	return q, b.String(), nil
}

// uniq compacts a sorted slice in place, returning the new length.
func uniq(vs []graph.VertexID) int {
	n := 0
	for i, v := range vs {
		if i == 0 || v != vs[n-1] {
			vs[n] = v
			n++
		}
	}
	return n
}

// serviceIDs hands every GraphService of the process its id.
var serviceIDs atomic.Uint64

// runOpts builds one engine run's options, for a solo query (kind "q")
// and for a batch's shared run (kind "b", root 0) alike: the shared Base
// with a cloned device simulation, no engine tracer (concurrent runs
// cannot share the tracer's time source), the service's prepared graph,
// and a working-file prefix of its own — kind first, so tests and tooling
// can tell the two apart, then the service and the run's number within
// it: an engine run removes every file under its prefix when it ends, so
// two services on one volume must never produce the same one.
func (s *GraphService) runOpts(kind, what string, root graph.VertexID, maxIter int) core.Options {
	opts := s.cfg.Base
	opts.Base.Root = root
	opts.Base.MaxIterations = maxIter
	opts.Base.FilePrefix = fmt.Sprintf("%s%d_%d_%s", kind, s.id, s.seq.Add(1), what)
	opts.Base.Sim = opts.Base.Sim.Clone()
	opts.Base.Tracer = nil
	opts.Base.KeepFiles = false
	opts.Base.Prepared = s.prepared
	if s.cfg.PanicRoot > 0 && int64(root) == s.cfg.PanicRoot {
		// Chaos seam: a poisoned root panics mid-scatter so the panic
		// unwinds through the engine's deferred cleanup and is recovered
		// here in the serving layer — proving isolation end to end. Such
		// a query always runs solo (batchable).
		opts.Base.FaultHook = func() { panic("serve: injected mid-scatter panic (PanicRoot)") }
	}
	return opts
}

// notePanic counts one isolated panic and logs it: the first panic
// carries its full stack, later ones a single line — the counter, not
// the log, carries the rate under sustained chaos.
func (s *GraphService) notePanic(q Query, r any, stack []byte) {
	s.ctr.panics.Add(1)
	logged := false
	s.panicStackOnce.Do(func() {
		log.Printf("serve: %s: recovered query panic (trace %s, algo %s, root %d): %v\n%s",
			s.name, q.TraceID, q.Algorithm, q.Root, r, stack)
		logged = true
	})
	if !logged {
		log.Printf("serve: %s: recovered query panic (trace %s): %v (stack suppressed; see first occurrence)",
			s.name, q.TraceID, r)
	}
}

// execute runs the normalized query on the right engine. A panic on the
// engine thread — the engines' own deferred cleanup having already run
// during unwinding — is recovered here and surfaces as
// errs.ErrInternal, failing exactly this query; scatter-worker panics
// arrive as an error (stream.PanicError) through the engines' normal
// shard-error path and are renamed to the same sentinel.
func (s *GraphService) execute(ctx context.Context, q Query) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.notePanic(q, r, debug.Stack())
			res, err = nil, fmt.Errorf("serve: %s: query panic: %v: %w", s.name, r, errs.ErrInternal)
			return
		}
		var pe *stream.PanicError
		if errors.As(err, &pe) {
			s.notePanic(q, pe.Value, pe.Stack)
		}
	}()
	opts := s.runOpts("q", string(q.Algorithm), q.Root, q.MaxIterations)
	switch q.Algorithm {
	case AlgoBFS:
		res, err := RunEngine(ctx, q.Engine, s.vol, s.name, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Levels: res.Levels, Parents: res.Parents, Visited: res.Visited, Metrics: res.Metrics}, nil
	case AlgoMSBFS:
		prog := algo.NewMultiSourceBFS(q.Roots)
		res, err := algo.RunContext(ctx, s.vol, s.name, prog, opts.Base)
		if err != nil {
			return nil, err
		}
		levels := prog.Levels(res.Values)
		out := &Result{Levels: levels, Parents: prog.Parents(res.Values), Metrics: res.Metrics}
		for _, l := range levels {
			if l != algo.NoLevel {
				out.Visited++
			}
		}
		return out, nil
	case AlgoSSSP:
		prog := algo.NewSSSP(q.Root)
		res, err := algo.RunContext(ctx, s.vol, s.name, prog, opts.Base)
		if err != nil {
			return nil, err
		}
		dists := prog.Distances(res.Values)
		out := &Result{Distances: dists, Metrics: res.Metrics}
		for _, d := range dists {
			if d != algo.Inf {
				out.Visited++
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("serve: unknown algorithm %q: %w", q.Algorithm, errs.ErrBadOptions)
}

// Shutdown drains the service: new Submits fail with errs.ErrClosed,
// queued waiters are woken with the same error, and Shutdown returns
// once every in-flight query has finished — or ctx expires first, in
// which case queries keep draining in the background (their own
// contexts still apply).
func (s *GraphService) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closing)
	}
	s.mu.Unlock()
	// Wake every queued waiter with ErrClosed before touching ctx: even
	// an already-expired drain context must not strand waiters in the
	// admission queue (they hold the drain group's wg).
	s.adm.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: %s: drain interrupted: %w", s.name, context.Cause(ctx))
	}
}

// Close is Shutdown with no deadline.
func (s *GraphService) Close() error { return s.Shutdown(context.Background()) }

// Stats is a point-in-time snapshot of the service counters, readable
// while queries run (the debug page renders it).
type Stats struct {
	InFlight    int64 `json:"in_flight"`
	QueueDepth  int64 `json:"queue_depth"`
	Admitted    int64 `json:"admitted"`
	Rejected    int64 `json:"rejected"`
	Cancelled   int64 `json:"cancelled"`
	Completed   int64 `json:"completed"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheSize   int64 `json:"cache_size"`
	// IORetries and IOFailures accumulate the fault-tolerance counters
	// of completed queries (plus one failure per query that died on
	// ErrIOFailed/ErrCorrupted); a non-zero IOFailures marks the service
	// degraded in /healthz.
	IORetries  int64 `json:"io_retries"`
	IOFailures int64 `json:"io_failures"`
	// SlowQueries counts queries at or past Config.SlowQueryThreshold.
	SlowQueries int64 `json:"slow_queries"`
	// Batch execution counters (DESIGN.md §13): queries answered through
	// the batcher, shared runs executed, members that shared a run with
	// company vs. rode alone, members that left before their batch
	// resolved, and the batcher's estimate of device bytes it avoided.
	BatchQueries    int64 `json:"batch_queries"`
	BatchRuns       int64 `json:"batch_runs"`
	BatchCoalesced  int64 `json:"batch_coalesced"`
	BatchSolo       int64 `json:"batch_solo"`
	BatchEvicted    int64 `json:"batch_evicted"`
	BatchBytesSaved int64 `json:"batch_bytes_saved"`
	// DeviceBytes accumulates device bytes moved (read + written) by
	// completed engine runs, solo and batched alike — the denominator
	// for bytes-per-query comparisons.
	DeviceBytes int64 `json:"device_bytes"`
	// Overload-control counters (DESIGN.md §15): queries shed by
	// admission (split into deadline-hopeless and queue-aging sheds),
	// panics recovered and isolated to their query, degraded-mode stale
	// answers served, circuit-breaker trips and fail-fast rejections,
	// and whether the breaker is currently open (gauge, 0 or 1).
	Shed             int64 `json:"shed"`
	ShedDeadline     int64 `json:"shed_deadline"`
	ShedQueue        int64 `json:"shed_queue"`
	Panics           int64 `json:"panics"`
	StaleServed      int64 `json:"stale_served"`
	BreakerTrips     int64 `json:"breaker_trips"`
	BreakerFastFails int64 `json:"breaker_fast_fails"`
	BreakerOpen      int64 `json:"breaker_open"`
	// The prepared graph (DESIGN.md §16), fixed at open: whether the edge
	// list is resident (0/1), how many edges it holds, how many bytes with
	// its adjacency index, and how long loading and indexing took.
	// Resident queries move no device bytes.
	PreparedResident    int64   `json:"prepared_resident"`
	PreparedEdges       int64   `json:"prepared_edges"`
	PreparedBytes       int64   `json:"prepared_bytes"`
	PreparedLoadSeconds float64 `json:"prepared_load_seconds"`
}

// Stats reads the current counter values.
func (s *GraphService) Stats() Stats {
	var resident int64
	if s.prepared.Resident() {
		resident = 1
	}
	return Stats{
		PreparedResident:    resident,
		PreparedEdges:       int64(len(s.prepared.Edges())),
		PreparedBytes:       s.prepared.ResidentBytes(),
		PreparedLoadSeconds: s.prepared.LoadTime.Seconds(),

		InFlight:    s.ctr.inflight.Value(),
		QueueDepth:  s.ctr.queueDepth.Value(),
		Admitted:    s.ctr.admitted.Value(),
		Rejected:    s.ctr.rejected.Value(),
		Cancelled:   s.ctr.cancelled.Value(),
		Completed:   s.ctr.completed.Value(),
		CacheHits:   s.ctr.cacheHits.Value(),
		CacheMisses: s.ctr.cacheMisses.Value(),
		CacheSize:   int64(s.cache.len()),
		IORetries:   s.ctr.ioRetries.Value(),
		IOFailures:  s.ctr.ioFailures.Value(),
		SlowQueries: s.ctr.slow.Value(),

		BatchQueries:    s.ctr.batchQueries.Value(),
		BatchRuns:       s.ctr.batchRuns.Value(),
		BatchCoalesced:  s.ctr.batchCoalesced.Value(),
		BatchSolo:       s.ctr.batchSolo.Value(),
		BatchEvicted:    s.ctr.batchEvicted.Value(),
		BatchBytesSaved: s.ctr.batchBytesSaved.Value(),
		DeviceBytes:     s.ctr.deviceBytes.Value(),

		Shed:             s.ctr.shed.Value(),
		ShedDeadline:     s.ctr.shedDeadline.Value(),
		ShedQueue:        s.ctr.shedQueue.Value(),
		Panics:           s.ctr.panics.Value(),
		StaleServed:      s.ctr.stale.Value(),
		BreakerTrips:     s.ctr.breakerTrips.Value(),
		BreakerFastFails: s.ctr.breakerFast.Value(),
		BreakerOpen:      s.ctr.breakerOpen.Value(),
	}
}

// Ready reports whether the service should accept traffic now, with the
// reasons it shouldn't — what GET /readyz renders. Not ready while
// draining, while the circuit breaker is open (or half-open), when the
// admission queue is full, or when shedding is enabled and the
// predicted queue wait exceeds the shed target (overloaded).
func (s *GraphService) Ready() (bool, []string) {
	var reasons []string
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		reasons = append(reasons, "draining")
	}
	if s.brk.open() {
		reasons = append(reasons, "breaker_open")
	}
	queued, full := s.adm.queueState()
	if full {
		reasons = append(reasons, "queue_full")
	} else if s.cfg.Shed && queued > 0 && s.adm.estimatedWait() > s.cfg.ShedTarget {
		reasons = append(reasons, "overloaded")
	}
	return len(reasons) == 0, reasons
}
