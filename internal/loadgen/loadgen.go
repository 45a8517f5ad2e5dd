// Package loadgen drives an open-loop query load against a running
// fastbfsd and measures QPS and latency percentiles from the client
// side.
//
// Open loop means arrivals are scheduled by a fixed-rate clock, not by
// request completions: if the server slows down, requests pile up (up
// to MaxOutstanding) instead of the generator politely slowing its
// offered load, which is how production traffic behaves and what makes
// the measured latency honest under saturation. A closed loop — issue,
// wait, issue — would coordinate with the server and hide queueing
// delay (the coordinated-omission trap).
//
// Latencies are recorded into the same log-bucketed histogram the
// server uses (internal/obs), so client-side and server-side
// percentiles are directly comparable, with the same ≤6.25% bucket
// error.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastbfs/internal/obs"
)

// Schema identifies the bench JSON this package writes. v2 added the
// server-side counter deltas (Result.Server) and the bfs-distinct mix;
// v3 adds per-mix deadlines, goodput (on-deadline successes/sec), the
// overload mix, rejection latency and the client-observed Retry-After
// distribution.
const Schema = "fastbfs/bench-serve/v3"

// Mix describes one traffic shape: the algorithm blend and how root
// keys are drawn, which is what decides the cache-hit rate.
type Mix struct {
	Name string `json:"name"`
	// BFS/MSBFS/SSSP are relative weights; zero weights drop the
	// algorithm from the mix.
	BFS   int `json:"bfs"`
	MSBFS int `json:"msbfs"`
	SSSP  int `json:"sssp"`
	// HotFraction of queries draw their root from a HotSetSize-sized
	// set, so they repeat and (after first touch) hit the result cache.
	// The remainder draw from the whole vertex space.
	HotFraction float64 `json:"hot_fraction"`
	HotSetSize  int     `json:"hot_set_size"`
	// NoCache forces every query to bypass the result cache: a pure
	// engine-throughput mix.
	NoCache bool `json:"no_cache"`
	// Distinct draws every root from a deterministic non-repeating walk
	// of the vertex space instead of randomly: no root repeats within a
	// run, so the result cache absorbs nothing and cross-query batching
	// (not caching) is what's measured.
	Distinct bool `json:"distinct,omitempty"`
	// Engine pins the executing engine ("" = server default).
	Engine string `json:"engine,omitempty"`
	// TimeoutMs sets a server-side deadline per query and doubles as the
	// goodput budget: an ok (or stale) answer within TimeoutMs counts
	// toward goodput, everything else is wasted work. 0 means no
	// deadline and every success counts.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// AllowStale opts queries into degraded-mode answers from expired
	// cache entries while the server sheds or its breaker is open.
	AllowStale bool `json:"allow_stale,omitempty"`
}

// Mixes are the named presets accepted by ParseMix (and cmd/loadgen
// -mix).
var Mixes = []Mix{
	{Name: "bfs-hot", BFS: 1, HotFraction: 1.0, HotSetSize: 8},
	{Name: "bfs-cold", BFS: 1, NoCache: true},
	// bfs-distinct is the batching benchmark: all-BFS, every root
	// distinct, cache enabled but useless — throughput gains can only
	// come from coalescing concurrent queries into shared runs.
	{Name: "bfs-distinct", BFS: 1, Distinct: true},
	{Name: "mixed", BFS: 3, MSBFS: 1, SSSP: 1, HotFraction: 0.5, HotSetSize: 16},
	// overload is the resilience benchmark (DESIGN.md §15): all-BFS with
	// a tight per-query deadline and stale-answer opt-in, offered at a
	// rate far past capacity (cmd/loadgen sets QPS). Goodput — answers
	// inside the deadline per second — is the figure of merit; with
	// shedding on, the server refuses doomed queries cheaply instead of
	// burning slots on work whose deadline died in the queue.
	{Name: "overload", BFS: 1, HotFraction: 0.5, HotSetSize: 8, TimeoutMs: 250, AllowStale: true},
}

// ParseMix resolves a preset name.
func ParseMix(name string) (Mix, error) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, nil
		}
	}
	known := make([]string, len(Mixes))
	for i, m := range Mixes {
		known[i] = m.Name
	}
	return Mix{}, fmt.Errorf("loadgen: unknown mix %q (have %s)", name, strings.Join(known, ", "))
}

// Config tunes one load run.
type Config struct {
	// Addr is the fastbfsd base URL, e.g. "http://localhost:8090".
	Addr string
	// QPS is the offered arrival rate. Must be > 0.
	QPS float64
	// Duration is how long arrivals are generated; the run then waits
	// for stragglers.
	Duration time.Duration
	Mix      Mix
	// Seed makes the query stream reproducible.
	Seed int64
	// Timeout bounds each request client-side. Default 30s.
	Timeout time.Duration
	// MaxOutstanding caps concurrently in-flight requests; arrivals
	// beyond the cap are counted as dropped rather than queued (the
	// generator must not itself become the bottleneck being measured).
	// Default 256.
	MaxOutstanding int
	// Client overrides the HTTP client (tests). Default uses Timeout.
	Client *http.Client
}

// Percentiles summarizes a latency distribution, in seconds.
type Percentiles struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	Count uint64  `json:"count"`
}

// Result is one mix's measured outcome.
type Result struct {
	Mix       Mix     `json:"mix"`
	TargetQPS float64 `json:"target_qps"`
	Seed      int64   `json:"seed"`
	// DurationS is the measured wall time from first arrival to last
	// completion.
	DurationS float64 `json:"duration_s"`
	// Offered arrivals = Started + Dropped (MaxOutstanding overflow).
	Offered uint64 `json:"offered"`
	Started uint64 `json:"started"`
	Dropped uint64 `json:"dropped"`
	// AchievedQPS counts completed requests (any outcome) over the
	// measured duration.
	AchievedQPS float64           `json:"achieved_qps"`
	Outcomes    map[string]uint64 `json:"outcomes"`
	// CacheHits counts 200s whose response declared cached=true.
	CacheHits uint64 `json:"cache_hits"`
	// StaleServed counts 200s marked stale — degraded-mode answers.
	StaleServed uint64 `json:"stale_served,omitempty"`
	// OnDeadline counts successful answers (ok or stale) that arrived
	// within the mix's TimeoutMs budget; with no budget every success
	// counts. GoodputQPS = OnDeadline / DurationS — the overload figure
	// of merit.
	OnDeadline uint64  `json:"on_deadline"`
	GoodputQPS float64 `json:"goodput_qps"`
	// Latency aggregates ok responses only; errors are cheap and would
	// flatter the percentiles.
	Latency Percentiles `json:"latency_s"`
	// RejectLatency aggregates 429/503 rejections — how fast the server
	// says no, which is the point of shedding (the chaos gate requires
	// p99 under 5ms).
	RejectLatency Percentiles `json:"reject_latency_s,omitempty"`
	// RetryAfter is the client-observed distribution of Retry-After
	// header values (seconds) across 429/503 responses.
	RetryAfter Percentiles `json:"retry_after_s,omitempty"`
	// Server carries the server-side counter deltas over the run,
	// scraped from /healthz before and after — how many engine runs the
	// queries cost and how many device bytes moved, which client-side
	// timing alone cannot see.
	Server *ServerDelta `json:"server,omitempty"`
}

// ServerStats is the subset of the serve-layer Stats block that the
// generator tracks across a run (decoded from /healthz "stats").
type ServerStats struct {
	Completed       int64 `json:"completed"`
	CacheHits       int64 `json:"cache_hits"`
	BatchQueries    int64 `json:"batch_queries"`
	BatchRuns       int64 `json:"batch_runs"`
	BatchCoalesced  int64 `json:"batch_coalesced"`
	BatchSolo       int64 `json:"batch_solo"`
	BatchEvicted    int64 `json:"batch_evicted"`
	BatchBytesSaved int64 `json:"batch_bytes_saved"`
	DeviceBytes     int64 `json:"device_bytes"`
	Shed            int64 `json:"shed"`
	ShedDeadline    int64 `json:"shed_deadline"`
	ShedQueue       int64 `json:"shed_queue"`
	Panics          int64 `json:"panics"`
	StaleServed     int64 `json:"stale_served"`
	BreakerTrips    int64 `json:"breaker_trips"`
}

// ServerDelta is the change in ServerStats across one mix's run, plus
// the batching configuration the server reported, so a bench document
// records which mode produced which cost.
type ServerDelta struct {
	BatchSize   int     `json:"batch_size"`
	BatchWaitMs float64 `json:"batch_wait_ms"`
	ServerStats
	// DeviceBytesPerQuery = DeviceBytes / Completed for this run — the
	// figure of merit for batching: coalesced queries amortize one
	// run's device traffic across every member.
	DeviceBytesPerQuery float64 `json:"device_bytes_per_query"`
}

func delta(before, after ServerStats) ServerStats {
	return ServerStats{
		Completed:       after.Completed - before.Completed,
		CacheHits:       after.CacheHits - before.CacheHits,
		BatchQueries:    after.BatchQueries - before.BatchQueries,
		BatchRuns:       after.BatchRuns - before.BatchRuns,
		BatchCoalesced:  after.BatchCoalesced - before.BatchCoalesced,
		BatchSolo:       after.BatchSolo - before.BatchSolo,
		BatchEvicted:    after.BatchEvicted - before.BatchEvicted,
		BatchBytesSaved: after.BatchBytesSaved - before.BatchBytesSaved,
		DeviceBytes:     after.DeviceBytes - before.DeviceBytes,
		Shed:            after.Shed - before.Shed,
		ShedDeadline:    after.ShedDeadline - before.ShedDeadline,
		ShedQueue:       after.ShedQueue - before.ShedQueue,
		Panics:          after.Panics - before.Panics,
		StaleServed:     after.StaleServed - before.StaleServed,
		BreakerTrips:    after.BreakerTrips - before.BreakerTrips,
	}
}

// Bench is the BENCH_serve_v3.json document: one run of several mixes
// against one daemon.
type Bench struct {
	Schema   string   `json:"schema"`
	Graph    string   `json:"graph"`
	Vertices uint64   `json:"vertices"`
	Edges    uint64   `json:"edges"`
	Server   string   `json:"server"`
	Results  []Result `json:"results"`
}

// Health mirrors the fields of GET /healthz that the generator needs:
// graph identity for stamping the bench document, the batching
// configuration for labeling the server's mode, and the Stats counter
// block for before/after deltas.
type Health struct {
	Status      string      `json:"status"`
	Graph       string      `json:"graph"`
	Vertices    uint64      `json:"vertices"`
	Edges       uint64      `json:"edges"`
	GoVersion   string      `json:"go_version"`
	UptimeS     float64     `json:"uptime_s"`
	BatchSize   int         `json:"batch_size"`
	BatchWaitMs float64     `json:"batch_wait_ms"`
	Stats       ServerStats `json:"stats"`
}

// Discover queries /healthz for the graph being served; Run calls it
// to size the root space and to scrape counters, cmd/loadgen uses it
// to stamp the bench document.
func Discover(ctx context.Context, client *http.Client, addr string) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", addr+"/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return Health{}, fmt.Errorf("loadgen: healthz: %w", err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Health{}, fmt.Errorf("loadgen: healthz decode: %w", err)
	}
	if h.Vertices == 0 {
		return Health{}, fmt.Errorf("loadgen: healthz reports an empty graph")
	}
	return h, nil
}

// query is the request body sent to POST /query (mirrors serve's
// httpQuery; loadgen deliberately speaks only the wire protocol).
type query struct {
	Algorithm  string   `json:"algorithm"`
	Engine     string   `json:"engine,omitempty"`
	Root       uint32   `json:"root,omitempty"`
	Roots      []uint32 `json:"roots,omitempty"`
	NoCache    bool     `json:"no_cache,omitempty"`
	TimeoutMs  int      `json:"timeout_ms,omitempty"`
	AllowStale bool     `json:"allow_stale,omitempty"`
}

// distinctStride picks the step of the Distinct root walk: Knuth's
// multiplicative constant when it is coprime to the vertex count (it
// always is for the power-of-two vertex counts RMAT graphs have, being
// odd), else 1. Either way the walk is a permutation of the vertex
// space — no root repeats until every vertex has been used once.
func distinctStride(vertices uint64) uint64 {
	const knuth = 2654435761
	a, b := knuth%vertices, vertices
	for b != 0 {
		a, b = b, a%b
	}
	if a == 1 {
		return knuth % vertices
	}
	return 1
}

// nextQuery draws one query from the mix. It runs on the arrival
// goroutine only, so the rng and the Distinct sequence counter need no
// locking and the stream is reproducible from the seed.
func nextQuery(rng *rand.Rand, mix Mix, vertices uint64, seq *uint64) query {
	total := mix.BFS + mix.MSBFS + mix.SSSP
	if total <= 0 {
		total, mix.BFS = 1, 1
	}
	algo := "bfs"
	switch p := rng.Intn(total); {
	case p < mix.BFS:
		algo = "bfs"
	case p < mix.BFS+mix.MSBFS:
		algo = "msbfs"
	default:
		algo = "sssp"
	}
	root := func() uint32 {
		if mix.Distinct {
			r := (*seq * distinctStride(vertices)) % vertices
			*seq++
			return uint32(r)
		}
		hot := mix.HotSetSize
		if hot <= 0 {
			hot = 8
		}
		if mix.HotFraction > 0 && rng.Float64() < mix.HotFraction {
			return uint32(rng.Intn(hot)) % uint32(vertices)
		}
		return uint32(rng.Int63n(int64(vertices)))
	}
	q := query{Algorithm: algo, Engine: mix.Engine, NoCache: mix.NoCache,
		TimeoutMs: mix.TimeoutMs, AllowStale: mix.AllowStale}
	if algo == "msbfs" {
		for i := 0; i < 4; i++ {
			q.Roots = append(q.Roots, root())
		}
	} else {
		q.Root = root()
	}
	return q
}

// classify maps a response (status, error reason, staleness) to an
// outcome bucket, mirroring the server's outcome taxonomy so the two
// sides can be joined in analysis. The reason field splits the 429s
// into shed vs busy, the 503s into breaker_open vs unavailable, and
// marks panic-500s; a stale 200 becomes "stale".
func classify(status int, reason string, stale bool) string {
	switch status {
	case http.StatusOK:
		if stale {
			return "stale"
		}
		return "ok"
	case http.StatusTooManyRequests:
		if reason == "shed" {
			return "shed"
		}
		return "busy"
	case http.StatusGatewayTimeout:
		return "timeout"
	case http.StatusServiceUnavailable:
		if reason == "breaker_open" {
			return "breaker_open"
		}
		return "unavailable"
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusInternalServerError:
		if reason == "panic" {
			return "panic"
		}
	}
	return fmt.Sprintf("http_%d", status)
}

// isSuccess reports whether an outcome bucket carried an answer.
func isSuccess(outcome string) bool { return outcome == "ok" || outcome == "stale" }

// isReject reports a fast refusal (429/503 family).
func isReject(outcome string) bool {
	switch outcome {
	case "busy", "shed", "unavailable", "breaker_open":
		return true
	}
	return false
}

// Run generates cfg.Duration of open-loop arrivals and returns the
// measured result. ctx cancellation stops the run early (the partial
// result is still returned).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.QPS <= 0 {
		return nil, fmt.Errorf("loadgen: QPS must be > 0, got %v", cfg.QPS)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: duration must be > 0, got %v", cfg.Duration)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 256
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	before, err := Discover(ctx, client, cfg.Addr)
	if err != nil {
		return nil, err
	}
	vertices := before.Vertices

	res := &Result{
		Mix:       cfg.Mix,
		TargetQPS: cfg.QPS,
		Seed:      cfg.Seed,
		Outcomes:  make(map[string]uint64),
	}
	deadlineBudget := time.Duration(cfg.Mix.TimeoutMs) * time.Millisecond
	var (
		wg          sync.WaitGroup
		outstanding atomic.Int64
		completed   atomic.Uint64
		cacheHits   atomic.Uint64
		staleServed atomic.Uint64
		onDeadline  atomic.Uint64
		mu          sync.Mutex // guards res.Outcomes
		hist        = obs.NewHistogram("client_e2e_seconds", nil)
		rejectHist  = obs.NewHistogram("client_reject_seconds", nil)
		retryHist   = obs.NewHistogram("client_retry_after_seconds", nil)
	)
	record := func(outcome string, d time.Duration, cached bool, retryAfter time.Duration) {
		completed.Add(1)
		if isSuccess(outcome) {
			hist.Observe(d)
			if cached {
				cacheHits.Add(1)
			}
			if outcome == "stale" {
				staleServed.Add(1)
			}
			if deadlineBudget <= 0 || d <= deadlineBudget {
				onDeadline.Add(1)
			}
		}
		if isReject(outcome) {
			rejectHist.Observe(d)
			if retryAfter > 0 {
				retryHist.Observe(retryAfter)
			}
		}
		mu.Lock()
		res.Outcomes[outcome]++
		mu.Unlock()
	}
	issue := func(q query) {
		defer wg.Done()
		defer outstanding.Add(-1)
		body, _ := json.Marshal(q)
		start := time.Now()
		req, err := http.NewRequest("POST", cfg.Addr+"/query", bytes.NewReader(body))
		if err != nil {
			record("net_error", 0, false, 0)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			record("net_error", time.Since(start), false, 0)
			return
		}
		var hr struct {
			Cached bool   `json:"cached"`
			Stale  bool   `json:"stale"`
			Reason string `json:"reason"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&hr)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		var retryAfter time.Duration
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		record(classify(resp.StatusCode, hr.Reason, hr.Stale), time.Since(start), hr.Cached, retryAfter)
	}

	// The arrival loop: one goroutine owns the rng, the Distinct
	// sequence counter, and the clock.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var seq uint64
	interval := time.Duration(float64(time.Second) / cfg.QPS)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	start := time.Now()
	stop := time.After(cfg.Duration)
arrivals:
	for {
		select {
		case <-ctx.Done():
			break arrivals
		case <-stop:
			break arrivals
		case <-tick.C:
			res.Offered++
			q := nextQuery(rng, cfg.Mix, vertices, &seq)
			if outstanding.Load() >= int64(cfg.MaxOutstanding) {
				res.Dropped++
				continue
			}
			res.Started++
			outstanding.Add(1)
			wg.Add(1)
			go issue(q)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	res.DurationS = elapsed.Seconds()
	if res.DurationS > 0 {
		res.AchievedQPS = float64(completed.Load()) / res.DurationS
	}
	res.CacheHits = cacheHits.Load()
	res.StaleServed = staleServed.Load()
	res.OnDeadline = onDeadline.Load()
	if res.DurationS > 0 {
		res.GoodputQPS = float64(res.OnDeadline) / res.DurationS
	}
	percentiles := func(h *obs.Histogram) Percentiles {
		s := h.Snapshot()
		p := Percentiles{
			P50:   s.Quantile(0.50).Seconds(),
			P90:   s.Quantile(0.90).Seconds(),
			P99:   s.Quantile(0.99).Seconds(),
			Max:   s.Max.Seconds(),
			Count: s.Count,
		}
		if s.Count > 0 {
			p.Mean = s.Sum.Seconds() / float64(s.Count)
		}
		return p
	}
	res.Latency = percentiles(hist)
	res.RejectLatency = percentiles(rejectHist)
	res.RetryAfter = percentiles(retryHist)
	// Scrape the server counters again and attach the delta. A failed
	// scrape (server shut down between runs, test stub without stats)
	// degrades to a client-only result rather than failing the run.
	if after, err := Discover(ctx, client, cfg.Addr); err == nil {
		d := ServerDelta{
			BatchSize:   after.BatchSize,
			BatchWaitMs: after.BatchWaitMs,
			ServerStats: delta(before.Stats, after.Stats),
		}
		if d.Completed > 0 {
			d.DeviceBytesPerQuery = float64(d.DeviceBytes) / float64(d.Completed)
		}
		res.Server = &d
	}
	return res, nil
}

// promSample matches one sample line of the Prometheus text format.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?[0-9.eE+-]+|\+Inf)$`)

// CheckMetrics fetches addr/metrics and validates that every line is
// either a comment or a well-formed sample, returning the sample count.
// cmd/loadgen's -check-metrics and the CI smoke test use it to catch
// exposition-format regressions with a live scrape, not just unit
// tests.
func CheckMetrics(ctx context.Context, client *http.Client, addr string) (samples int, err error) {
	req, err := http.NewRequestWithContext(ctx, "GET", addr+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("loadgen: metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("loadgen: metrics: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			return samples, fmt.Errorf("loadgen: unparseable metrics line: %q", line)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	if samples == 0 {
		return 0, fmt.Errorf("loadgen: metrics page has no samples")
	}
	return samples, nil
}

// WriteBench renders the bench document as stable, diff-friendly JSON.
func WriteBench(w io.Writer, b Bench) error {
	sort.Slice(b.Results, func(i, j int) bool { return b.Results[i].Mix.Name < b.Results[j].Mix.Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
