// Package obs is the engines' live observability layer: hierarchical
// tracing spans (run → iteration → phase), streaming counters readable
// concurrently while an engine runs, and pluggable event sinks (JSONL
// trace files, callback sinks, in-memory collectors).
//
// The layer is deliberately tiny and nil-safe: every method works on a
// nil *Tracer, nil *Span and nil *Counter, compiling down to a pointer
// check and nothing else — no allocations on hot paths when tracing is
// disabled (verified by BenchmarkNoopScatterPath / TestNoopZeroAllocs).
// Engines therefore instrument unconditionally and the cost is paid only
// when a tracer is actually installed through xstream.Options.Tracer.
//
// Time: a Tracer stamps events with seconds since the run started. In
// wall-clock mode that is real elapsed time; when an engine runs against
// the disksim testbed it installs the virtual clock as the tracer's time
// source (SetTimeSource), so traces of simulated runs are in simulated
// seconds and span durations line up with metrics.Run.ExecTime.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one observability record, serialized as a single JSON line in
// trace files. Kind selects which fields are meaningful:
//
//   - "span": a completed span. Name is the phase ("scatter", "load",
//     ...), Start/Dur its interval, T its end time, ID/Parent the span
//     hierarchy, Iter/Part the BFS iteration and partition (-1 = none).
//   - "counters": a snapshot of every live counter at time T.
//   - "note": free-form labels (run metadata: engine, graph, mode).
type Event struct {
	T        float64           `json:"t"`
	Kind     string            `json:"kind"`
	Name     string            `json:"name,omitempty"`
	ID       int64             `json:"id,omitempty"`
	Parent   int64             `json:"parent,omitempty"`
	Start    float64           `json:"start,omitempty"`
	Dur      float64           `json:"dur,omitempty"`
	Iter     int               `json:"iter"`
	Part     int               `json:"part"`
	Attrs    map[string]int64  `json:"attrs,omitempty"`
	Labels   map[string]string `json:"labels,omitempty"`
	Counters map[string]int64  `json:"counters,omitempty"`
	// Trace correlates the event with one request: the serve layer stamps
	// every query span with the request's trace ID, so `tracecat -trace`
	// can pull a single query's records out of a daemon trace.
	Trace string `json:"trace,omitempty"`
	// Hist carries a histogram snapshot on "hist" events.
	Hist *HistData `json:"hist,omitempty"`
}

// Event kinds.
const (
	KindSpan     = "span"
	KindCounters = "counters"
	KindNote     = "note"
	KindHist     = "hist"
)

// Sink receives every event a Tracer emits. Emit calls are serialized by
// the Tracer's lock; sinks need no locking of their own for Emit.
type Sink interface {
	Emit(Event)
	Close() error
}

// FuncSink adapts a function to the Sink interface (progress printers,
// filters).
type FuncSink func(Event)

// Emit implements Sink.
func (f FuncSink) Emit(e Event) { f(e) }

// Close implements Sink.
func (f FuncSink) Close() error { return nil }

// Collect is an in-memory Sink for tests and the bench harness.
type Collect struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (c *Collect) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Close implements Sink.
func (c *Collect) Close() error { return nil }

// Events returns a copy of everything collected so far.
func (c *Collect) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// jsonlSink writes one JSON object per line, buffered.
type jsonlSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
}

// NewJSONLSink returns a Sink writing events as JSON lines to w. If w is
// also an io.Closer, Close closes it after flushing.
func NewJSONLSink(w io.Writer) Sink {
	bw := bufio.NewWriter(w)
	s := &jsonlSink{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

func (s *jsonlSink) Emit(e Event) { _ = s.enc.Encode(e) }

func (s *jsonlSink) Close() error {
	err := s.bw.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadEvents decodes a JSONL event stream (the inverse of NewJSONLSink).
func ReadEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("obs: decoding event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// Tracer is the observability hub for one process (typically shared by
// every engine run in it). A nil Tracer is the disabled tracer: all
// methods are no-ops returning nil handles.
type Tracer struct {
	mu    sync.Mutex
	sinks []Sink
	nowFn func() float64

	ids       atomic.Int64
	wallStart time.Time
	lastT     atomic.Uint64 // float64 bits of the latest timestamp taken

	cmu      sync.Mutex
	counters map[string]*Counter

	hmu   sync.Mutex
	hists map[string]*Histogram
}

// New returns a Tracer emitting to the given sinks (more can be added
// with AddSink). Time starts at zero now, in wall seconds until
// SetTimeSource installs a virtual clock.
func New(sinks ...Sink) *Tracer {
	return &Tracer{
		sinks:     append([]Sink(nil), sinks...),
		wallStart: time.Now(),
		counters:  make(map[string]*Counter),
	}
}

// AddSink attaches another event sink.
func (t *Tracer) AddSink(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
}

// SetTimeSource installs fn as the tracer's time source — engines running
// against the disksim testbed install their virtual clock's Now here, so
// spans and snapshots are stamped in simulated seconds. Pass nil to
// revert to wall time.
func (t *Tracer) SetTimeSource(fn func() float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nowFn = fn
	t.mu.Unlock()
}

// now stamps the current time (virtual or wall) and caches it for
// LastTime readers on other goroutines.
func (t *Tracer) now() float64 {
	t.mu.Lock()
	fn := t.nowFn
	t.mu.Unlock()
	var v float64
	if fn != nil {
		v = fn()
	} else {
		v = time.Since(t.wallStart).Seconds()
	}
	t.lastT.Store(math.Float64bits(v))
	return v
}

// LastTime returns the timestamp of the most recent event or counter
// snapshot. It is safe to call from any goroutine (the debug HTTP
// handler uses it; the virtual clock itself is engine-thread-only).
func (t *Tracer) LastTime() float64 {
	if t == nil {
		return 0
	}
	return math.Float64frombits(t.lastT.Load())
}

func (t *Tracer) emit(e Event) {
	t.mu.Lock()
	for _, s := range t.sinks {
		s.Emit(e)
	}
	t.mu.Unlock()
}

// Note emits a free-form labelled event (run metadata).
func (t *Tracer) Note(name string, labels map[string]string) {
	if t == nil {
		return
	}
	t.emit(Event{T: t.now(), Kind: KindNote, Name: name, Iter: -1, Part: -1, Labels: labels})
}

// Close closes every sink. The Tracer must not be used afterwards.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	sinks := t.sinks
	t.sinks = nil
	t.mu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Counter is a live atomic counter or gauge, registered by name on a
// Tracer. A nil Counter (from a nil Tracer) is a no-op.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Set stores an absolute value (gauge semantics: frontier size,
// iteration index).
func (c *Counter) Set(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value reads the current value; safe from any goroutine.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter's registered name ("" for the nil counter).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the no-op counter) on a nil Tracer.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.cmu.Lock()
	defer t.cmu.Unlock()
	c := t.counters[name]
	if c == nil {
		c = &Counter{name: name}
		t.counters[name] = c
	}
	return c
}

// CounterValue is one entry of a counter snapshot.
type CounterValue struct {
	Name  string
	Value int64
}

// Snapshot returns every counter's current value, sorted by name. Safe
// to call concurrently with engine updates.
func (t *Tracer) Snapshot() []CounterValue {
	if t == nil {
		return nil
	}
	t.cmu.Lock()
	out := make([]CounterValue, 0, len(t.counters))
	for name, c := range t.counters {
		out = append(out, CounterValue{Name: name, Value: c.Value()})
	}
	t.cmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CounterMap returns the snapshot as a map (expvar publishing).
func (t *Tracer) CounterMap() map[string]int64 {
	if t == nil {
		return nil
	}
	snap := t.Snapshot()
	m := make(map[string]int64, len(snap))
	for _, cv := range snap {
		m[cv.Name] = cv.Value
	}
	return m
}

// EmitCounters emits a snapshot of every counter as a "counters" event
// (engines call it once per iteration).
func (t *Tracer) EmitCounters() {
	if t == nil {
		return
	}
	t.emit(Event{T: t.now(), Kind: KindCounters, Iter: -1, Part: -1, Counters: t.CounterMap()})
}

// Span is one timed interval in the run → iteration → phase hierarchy.
// Spans are started with Tracer.Span or Span.Child and emitted as a
// single event at End (children therefore appear before their parents in
// the trace; consumers reconstruct the tree through ID/Parent).
type Span struct {
	tr     *Tracer
	name   string
	id     int64
	parent int64
	start  float64
	iter   int
	part   int
	attrs  map[string]int64
	labels map[string]string
	trace  string
}

// Span starts a new root span. Returns nil on a nil Tracer.
func (t *Tracer) Span(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, id: t.ids.Add(1), iter: -1, part: -1, start: t.now()}
}

// Child starts a span nested under s, inheriting its iteration and
// partition tags.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.tr.Span(name)
	c.parent = s.id
	c.iter = s.iter
	c.part = s.part
	c.trace = s.trace
	return c
}

// SetTrace tags the span (and, through Child, its descendants) with a
// request trace ID.
func (s *Span) SetTrace(id string) *Span {
	if s != nil {
		s.trace = id
	}
	return s
}

// Label attaches a string label (algorithm, engine, outcome).
func (s *Span) Label(name, v string) *Span {
	if s == nil {
		return nil
	}
	if s.labels == nil {
		s.labels = make(map[string]string, 4)
	}
	s.labels[name] = v
	return s
}

// SetIter tags the span with a BFS iteration index (-1 = setup).
func (s *Span) SetIter(i int) *Span {
	if s != nil {
		s.iter = i
	}
	return s
}

// SetPart tags the span with a partition index.
func (s *Span) SetPart(p int) *Span {
	if s != nil {
		s.part = p
	}
	return s
}

// Attr attaches an integer attribute (edge counts, frontier sizes).
func (s *Span) Attr(name string, v int64) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]int64, 4)
	}
	s.attrs[name] = v
	return s
}

// End stamps the span's end time and emits it.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tr.now()
	s.tr.emit(Event{
		T: end, Kind: KindSpan, Name: s.name, ID: s.id, Parent: s.parent,
		Start: s.start, Dur: end - s.start, Iter: s.iter, Part: s.part,
		Attrs: s.attrs, Labels: s.labels, Trace: s.trace,
	})
}

// Standard counter names shared by the engines, the CLI's expvar
// publication and the debug progress page. The scatter pool moves
// scatter_chunks and scatter_busy_ns per chunk; every other one is set
// from the run record, as each iteration's row is filed and once as the
// run ends (xstream.Runtime.Publish, DESIGN.md §11).
const (
	CtrEdgesStreamed   = "edges_streamed"
	CtrUpdatesEmitted  = "updates_emitted"
	CtrUpdatesFiltered = "updates_filtered" // emitted updates the update filter dropped before the shuffle
	CtrUpdatesApplied  = "updates_applied"
	CtrStayEdges       = "stay_edges"
	CtrStayBufferWaits = "stay_buffer_waits"
	CtrCancellations   = "cancellations"
	CtrSkippedParts    = "partitions_skipped"
	CtrVisited         = "visited"
	CtrFrontier        = "frontier"
	CtrIteration       = "iteration"
	CtrBytesRead       = "bytes_read"
	CtrBytesWritten    = "bytes_written"
	CtrScatterWorkers  = "scatter_workers"
	CtrScatterChunks   = "scatter_chunks"
	CtrScatterBusyNs   = "scatter_busy_ns"
	CtrIORetries       = "io_retries"          // transient I/O faults cleared by retry
	CtrIOFailures      = "io_failures"         // I/O operations failed past the retry budget
	CtrStayCorruptions = "stay_corruptions"    // adopted stay files that failed frame checks
	CtrStayDisabled    = "stay_disabled_parts" // gauge: partitions with stay writing degraded off
	CtrCheckpoints     = "checkpoints_written" // iteration manifests durably persisted

	CtrBottomUpIters      = "bottomup_iterations" // iterations run in bottom-up direction
	CtrDirectionSwitches  = "direction_switches"  // top-down↔bottom-up mode changes
	CtrSwitchIteration    = "switch_iteration"    // gauge: first bottom-up iteration (-1 = never)
	CtrDirectionFallbacks = "direction_fallbacks" // auto runs demoted to top-down (no reverse-edge file)
)

// Counter names maintained by the query service (internal/serve). They
// live on the service's own Tracer, not the engines': concurrent engine
// runs are traced with a nil engine tracer (a shared one would fight
// over SetTimeSource), while the service layer stays observable.
const (
	CtrServeInflight    = "serve_inflight"     // gauge: queries currently executing
	CtrServeQueueDepth  = "serve_queue_depth"  // gauge: queries waiting for an execution slot
	CtrServeAdmitted    = "serve_admitted"     // queries that acquired an execution slot
	CtrServeRejected    = "serve_rejected"     // queries rejected by admission control (ErrBusy)
	CtrServeCancelled   = "serve_cancelled"    // queries that ended cancelled or past deadline
	CtrServeCompleted   = "serve_completed"    // queries that ran to completion
	CtrServeCacheHits   = "serve_cache_hits"   // queries answered from the result cache
	CtrServeCacheMisses = "serve_cache_misses" // cacheable queries that had to execute
	CtrServeIORetries   = "serve_io_retries"   // transient I/O retries across completed queries
	CtrServeIOFailures  = "serve_io_failures"  // I/O failures past retry across completed queries
	CtrServeSlow        = "serve_slow_queries" // queries past the slow-query threshold
)

// Counter names for the service's overload-resilience layer (DESIGN.md
// §15): deadline-aware shedding, panic isolation, the per-graph circuit
// breaker and degraded-mode (stale) answers.
const (
	CtrServeShed         = "serve_shed"           // queries shed by overload control (all causes)
	CtrServeShedDeadline = "serve_shed_deadline"  // shed at Submit: deadline < predicted wait + exec
	CtrServeShedQueue    = "serve_shed_queue"     // shed from the wait queue by CoDel-style aging
	CtrServePanics       = "serve_panics"         // panics recovered and isolated to one query
	CtrServeStale        = "serve_stale_served"   // degraded-mode answers served from expired cache entries
	CtrServeBreakerTrips = "serve_breaker_trips"  // closed→open transitions of the circuit breaker
	CtrServeBreakerFast  = "serve_breaker_fast"   // queries failed fast while the breaker was open
	CtrServeBreakerProbe = "serve_breaker_probes" // half-open probe queries allowed through
	CtrServeBreakerOpen  = "serve_breaker_open"   // gauge: 1 while the breaker is open or half-open
)

// Counter names for the service's cross-query batcher (DESIGN.md §13),
// which coalesces concurrent single-source BFS queries into shared
// bit-parallel multi-source runs.
const (
	CtrServeBatchQueries    = "serve_batch_queries"     // queries answered through the batcher
	CtrServeBatchRuns       = "serve_batch_runs"        // shared engine runs the batcher executed
	CtrServeBatchCoalesced  = "serve_batch_coalesced"   // batched queries that shared a run with others
	CtrServeBatchSolo       = "serve_batch_solo"        // batched queries whose window closed with only them
	CtrServeBatchEvicted    = "serve_batch_evicted"     // queries that left a batch before its run resolved
	CtrServeDeviceBytes     = "serve_device_bytes"      // device bytes moved by completed query runs
	CtrServeBatchBytesSaved = "serve_batch_bytes_saved" // estimated device bytes batching avoided
)

// Histogram names maintained by the query service, all partitioned by
// {algo, engine, outcome} labels and exposed in Prometheus text format
// on the daemon's GET /metrics.
const (
	// HistServeWait is the admission wait: Submit entry to slot acquired
	// (or rejected/abandoned — the outcome label says which).
	HistServeWait = "serve_wait_seconds"
	// HistServeExec is pure engine execution time, recorded only for
	// queries that actually ran an engine (cache hits record none).
	HistServeExec = "serve_exec_seconds"
	// HistServeE2E is end-to-end Submit latency, recorded for every
	// query including cache hits and rejections.
	HistServeE2E = "serve_e2e_seconds"
	// HistServeBatchSize is the distribution of executed batch sizes
	// (deduplicated roots per shared run). Histograms observe
	// time.Duration, so a batch of B roots is recorded as B seconds.
	HistServeBatchSize = "serve_batch_size"
)
