// Package xstream is a from-scratch implementation of the X-Stream
// edge-centric graph engine (Roy et al., SOSP'13) specialized to BFS —
// the system the FastBFS paper modifies and its primary baseline.
//
// X-Stream partitions the vertex set into balanced intervals, stores
// each partition's out-edges in its own streaming file, and runs
// bulk-synchronous iterations of scatter (stream edges, emit updates
// shuffled by destination partition) and gather (stream updates, apply
// to in-memory vertex state). It never sorts edges — "no preprocessing
// needed" — and re-streams the *entire* edge set every iteration, which
// is exactly the indiscriminate I/O FastBFS trims away.
//
// The paper builds FastBFS by modifying X-Stream, so this package also
// holds what the two share — which is everything but a policy: the
// options, the per-partition vertex store, the initial
// streaming-partition split, and the streaming loop itself (kernel.go),
// which X-Stream runs with every FastBFS mechanism off and
// internal/core runs with them on.
package xstream

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fastbfs/internal/disksim"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// PerVertexMemBytes is the modelled in-memory footprint per vertex of a
// loaded partition (8 bytes of state plus buffer overhead); the memory
// budget divided by this determines the partition count, as in §II-B
// ("the vertices partitioning makes sure that each partition and its
// intermediate data can fit into memory").
const PerVertexMemBytes = 16

// InMemoryFactor is how many times the binary edge-list size must fit in
// the memory budget before the engine switches to the in-memory fast
// path, matching the paper's observation that rmat22's 768 MB ran in
// memory at 4 GB but not 2 GB. The graph's resident form takes at most
// one share (see InMemoryNeed).
const InMemoryFactor = 3

// SimConfig selects simulated-time mode and carries the device and cost
// models. A nil SimConfig in Options means wall-clock mode: the engine
// still moves every byte through the volume but reports elapsed real
// time instead of modelled time.
type SimConfig struct {
	CPU   disksim.CPU
	Costs disksim.Costs
	// MainDisk holds the graph: edge files, vertex files and (for
	// FastBFS in single-disk mode) stay files.
	MainDisk *disksim.Device
	// AuxDisk, when non-nil, is the paper's "additional disk": update
	// streams and the stay-out stream are placed there (Fig. 10).
	AuxDisk *disksim.Device
	// StayDisk, when non-nil, dedicates a device to the stay-out stream
	// ("FastBFS can appoint the stay list writing to a different disk",
	// §II-C2), overriding the per-iteration alternation. With a slow
	// dedicated stay disk the grace-and-cancel path becomes observable.
	StayDisk *disksim.Device
}

// DefaultSim returns a single-HDD simulation matching the paper's
// testbed defaults.
func DefaultSim() *SimConfig {
	return &SimConfig{
		CPU:      disksim.DefaultCPU(),
		Costs:    disksim.DefaultCosts(),
		MainDisk: disksim.HDD("hdd0"),
	}
}

// Clone returns a deep copy of the simulation configuration with fresh
// (zero-state) devices. A disksim.Device accumulates fluid state and
// traffic counters during a run, so concurrent engine runs must never
// share one; the serving layer clones the configured SimConfig per
// query. Clone of nil is nil (wall-clock mode passes through).
func (s *SimConfig) Clone() *SimConfig {
	if s == nil {
		return nil
	}
	return &SimConfig{
		CPU:      s.CPU,
		Costs:    s.Costs,
		MainDisk: s.MainDisk.Clone(),
		AuxDisk:  s.AuxDisk.Clone(),
		StayDisk: s.StayDisk.Clone(),
	}
}

// ScaledSim returns a single-HDD simulation whose positioning cost is
// scaled down by factor, for benchmarks whose datasets are scaled down
// by the same factor from the paper's (see disksim.HDDScaled).
func ScaledSim(factor float64) *SimConfig {
	return &SimConfig{
		CPU:      disksim.DefaultCPU(),
		Costs:    disksim.DefaultCosts(),
		MainDisk: disksim.HDDScaled("hdd0", factor),
	}
}

// Options configures an engine run. The zero value is not usable; call
// (*Options).SetDefaults or fill the fields.
type Options struct {
	// Root is the BFS source vertex.
	Root graph.VertexID
	// MemoryBudget is the working memory in bytes (the paper evaluates
	// 256 MB – 4 GB). It determines the partition count and whether the
	// in-memory fast path triggers. Default 1 GiB.
	MemoryBudget uint64
	// Partitions overrides the partition count derived from
	// MemoryBudget when nonzero. GraphChi uses it because its memory
	// shard holds edges, not just vertices, so its interval count is
	// edge-bound. It changes nothing in algo, whose values stay in RAM.
	Partitions int
	// Threads is the compute thread count (Fig. 8). Default 4.
	Threads int
	// StreamBufSize is the stream buffer size in bytes. Default 1 MiB.
	StreamBufSize int
	// PrefetchBuffers is the read-ahead depth of edge and update
	// scanners ("the number of edge buffers can be more than one for
	// pre-fetching", §III). Default 2; set negative to disable.
	PrefetchBuffers int
	// ScatterWorkers is the number of goroutines classifying edge
	// chunks in the scatter phase. 0 takes the FASTBFS_WORKERS
	// environment variable if set, else runtime.NumCPU(); negative
	// forces the serial path (1). Results are byte-identical for every
	// setting — see internal/stream/parallel.go for the contract.
	ScatterWorkers int
	// Sim enables simulated timing; nil runs in wall-clock mode.
	Sim *SimConfig
	// FilePrefix namespaces the engine's working files on the volume.
	// Defaults to the engine name.
	FilePrefix string
	// KeepFiles leaves working files on the volume after the run
	// (useful for debugging and tests).
	KeepFiles bool
	// MaxIterations caps the iteration count as a safety net; default
	// vertices + 1.
	MaxIterations int
	// Tracer, when non-nil, receives spans and live counters from the
	// run (see internal/obs). In sim mode the virtual clock is installed
	// as its time source, so traces are in simulated seconds. Nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
	// RetryAttempts overrides the transient-fault retry budget (total
	// tries per I/O operation, first call included). 0 keeps
	// stream.DefaultRetryAttempts; chaos runs with high injected fault
	// rates raise it so exhaustion stays improbable.
	RetryAttempts int
	// Direction selects the traversal direction policy for the streaming
	// engines: pure top-down (the default), pure bottom-up after the
	// root iteration, or the Beamer-style automatic hybrid (DirState.Decide,
	// with the α and β constants of direction.go). Bottom-up
	// iterations stream the reverse-edge partitions split from the
	// dataset's .rev file; `auto` on a graph stored without one falls
	// back to pure top-down (counted, never an error), while an explicit
	// `bottomup` on such a graph is ErrBadOptions. Empty means topdown. The
	// in-memory fast path ignores the policy (it has no device traffic to
	// save and its answer is the same either way): over a resident
	// Prepared graph it chooses a direction per level by α and β, and the
	// one-shot run has no direction at all.
	Direction Direction
	// Deprecated: DirectionAlpha and DirectionBeta are ignored. The
	// hybrid heuristic's switch ratios are fixed at Beamer's α = 14 and
	// β = 24 (direction.go).
	DirectionAlpha int
	DirectionBeta  int
	// Deprecated: Codec is ignored. A run's working files take the
	// codec the graph was stored in (graph.StoreOptions.Codec).
	Codec graph.Codec
	// DisableUpdateFilter turns the streaming engines' update filter off
	// (ablation, like core's DisableTrimming): every frontier out-edge's
	// update is shuffled, written and gathered, as in the paper's engines.
	// The paper-shape experiments pin it so their tables keep reproducing
	// the unfiltered X-Stream and FastBFS; results are identical either
	// way (see filter.go).
	DisableUpdateFilter bool
	// FaultHook, when non-nil, runs before every scatter chunk — the
	// chaos-testing seam behind the daemon's -panic-root flag. A hook
	// that panics exercises panic isolation: the scatter pool recovers
	// it into a stream.PanicError (wrapping errs.ErrInternal) that
	// aborts only the run that raised it.
	FaultHook func()
	// Prepared, when non-nil, is the shared load-once form of the graph
	// this run is over (see PreparedGraph): the run takes metadata and
	// permutation from it instead of re-reading them, and a run the
	// InMemory rule sends down the in-memory path traverses its resident
	// form instead of reloading the edge file. It adds no
	// policy of its own — which path a run takes is still decided by
	// MemoryBudget alone.
	Prepared *PreparedGraph
}

// SetDefaults fills unset fields with defaults.
func (o *Options) SetDefaults(engineName string) {
	if o.MemoryBudget == 0 {
		o.MemoryBudget = 1 << 30
	}
	if o.Threads == 0 {
		o.Threads = 4
	}
	if o.StreamBufSize == 0 {
		o.StreamBufSize = stream.DefaultBufSize
	}
	if o.PrefetchBuffers == 0 {
		o.PrefetchBuffers = 2
	}
	if o.PrefetchBuffers < 0 {
		o.PrefetchBuffers = 0
	}
	if o.ScatterWorkers == 0 {
		if s := os.Getenv("FASTBFS_WORKERS"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n > 0 {
				o.ScatterWorkers = n
			}
		}
	}
	if o.ScatterWorkers == 0 {
		o.ScatterWorkers = runtime.NumCPU()
	}
	if o.ScatterWorkers < 1 {
		o.ScatterWorkers = 1
	}
	if o.FilePrefix == "" {
		o.FilePrefix = engineName
	}
	if o.Direction == "" {
		o.Direction = DirectionTopDown
	}
}

// Result is the output of an engine run: the BFS tree plus the
// measurement record.
type Result struct {
	Levels  []uint32
	Parents []graph.VertexID
	Visited uint64
	Metrics metrics.Run
}

// Runtime bundles the pieces of a run every engine on the kernel shares:
// the volume, partitioning, virtual clock (nil in wall mode), byte
// accounting and naming.
type Runtime struct {
	Vol   storage.Volume
	Meta  graph.Meta
	Parts *graph.Partitioning
	Opts  Options

	// ctx is the run's cancellation context (never nil). Engines poll it
	// through Checkpoint at iteration and partition boundaries.
	ctx context.Context

	Clock *disksim.Clock
	Costs disksim.Costs

	// Retry is the run's transient-fault retry policy; every stream the
	// engines build through MainTiming/AuxTiming shares it, so its
	// counters are the run-wide retry/failure totals.
	Retry *stream.Retrier

	// Bufs is the run's stream-buffer free-list, carried to every stream
	// by MainTiming/AuxTiming like Retry (engines that build a Timing by
	// hand must set it too). It belongs to scratch, the run's private
	// working memory — borrowed from the process-wide free-list, so a run
	// reuses the buffers of the runs before it, and returned there by
	// Cleanup.
	Bufs    *stream.BufPool
	scratch *Scratch
	// verts is the one partition's vertex state InitVerts/LoadVerts hand
	// out, backed by scratch.
	verts Verts

	// Perm, non-nil iff the dataset was stored with degree reordering, maps
	// between original and stored vertex labels. The runtime operates
	// entirely in stored space — Opts.Root is remapped at construction —
	// and results are translated back at the collection boundary, so
	// callers never see stored labels.
	Perm *graph.Permutation

	// fileReady maps a file name to its pending write-behind barrier:
	// the last background flush that must complete before a reader can
	// depend on the file's contents (time-model only; data is always
	// complete).
	fileReady map[string]*disksim.AsyncOp

	wallStart time.Time

	// io counts everything the run moves through Vol, which it wraps —
	// metadata, index and collect included. In wall mode, with no simulated
	// device to report on, it is the record's bytes, and a device named
	// after the storage.Counting volume the run was handed, if any (volName).
	io      *storage.Counting
	volName string
	// devBase is each simulated device's counts when the run began: one
	// SimConfig may serve several runs, and a run's record is what its
	// devices moved since (devices).
	devBase []metrics.DeviceStats

	// OutDeg is the per-vertex out-degree table, counted by the first pass
	// over the stored edge file — Prepare's, or iteration 0's stored pass
	// (split.go) — for the two decisions that weigh edges: the direction heuristic
	// (a run that may go bottom-up sums it over each formed frontier and
	// each candidate wave) and the trim rule (each partition's live edge
	// count, see partState). Nil for a run with neither — X-Stream top-down,
	// or FastBFS on the paper's static threshold. Its 4 bytes/vertex come
	// from the run's scratch and, like the frontier bitmaps, live outside
	// the modelled memory budget (the paper's budget covers partition
	// state, not global scalars).
	OutDeg []uint32

	// VisitedBits is a streaming run's visited set (vertices/8 bytes from
	// the run's scratch, outside the modelled budget like OutDeg),
	// maintained by the root's marking, the gathers and the passes that
	// form a level: the scatter's trim test reads it, the update filter's
	// workers drop updates to visited destinations, and the bottom-up and
	// stored passes drop edges to vertices already visited. claimed is the
	// filter's second bitmap (see filter.go).
	VisitedBits *Bitset
	claimed     *Bitset

	// keepLogs makes Cleanup leave the level logs, a checkpointed run's
	// durable state (checkpoint.go).
	keepLogs bool

	// published is what Publish has sent so far.
	published published
}

// Tracer returns the run's tracer (nil when tracing is disabled; all
// obs methods are no-ops on nil).
func (rt *Runtime) Tracer() *obs.Tracer { return rt.Opts.Tracer }

// Context returns the run's cancellation context (never nil).
func (rt *Runtime) Context() context.Context { return rt.ctx }

// Checkpoint polls the run's context: it returns nil while the run may
// continue, and an error wrapping both errs.ErrCancelled and the
// context's cause once the query is cancelled or past its deadline.
// Engines call it at iteration and partition boundaries — the points
// where abandoning the run leaves no half-written state behind (the
// deferred Cleanup and stay-writer drain then release buffers and
// working files).
func (rt *Runtime) Checkpoint() error {
	select {
	case <-rt.ctx.Done():
		return fmt.Errorf("%s: %w: %w", rt.Opts.FilePrefix, errs.ErrCancelled, context.Cause(rt.ctx))
	default:
		return nil
	}
}

// RegisterReady records a file's write-behind barrier.
func (rt *Runtime) RegisterReady(name string, op *disksim.AsyncOp) {
	if op == nil {
		return
	}
	rt.fileReady[name] = op
}

// AwaitFile stalls the clock until the named file's write-behind barrier
// has completed (no-op for files written synchronously or in wall mode).
func (rt *Runtime) AwaitFile(name string) {
	op, ok := rt.fileReady[name]
	if !ok {
		return
	}
	delete(rt.fileReady, name)
	if rt.Clock != nil {
		rt.Clock.WaitUntil(rt.Clock.BgCompletion(op))
	}
}

// NewRuntime validates options against a stored graph and prepares the
// shared run state with a background (never-cancelled) context.
func NewRuntime(vol storage.Volume, graphName string, opts Options) (*Runtime, error) {
	return NewRuntimeContext(context.Background(), vol, graphName, opts)
}

// NewRuntimeContext is NewRuntime bound to a cancellation context: the
// run's engine observes ctx through Runtime.Checkpoint.
func NewRuntimeContext(ctx context.Context, vol storage.Volume, graphName string, opts Options) (_ *Runtime, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if vol, err = faultVolume(vol); err != nil {
		return nil, err
	}
	// Taken first, so a reordered graph's permutation decodes into it;
	// every error return hands it back.
	scratch := acquireScratch()
	defer func() {
		if err != nil {
			releaseScratch(scratch)
		}
	}()
	// Name the device after a Counting volume, even under the fault wrapper.
	inner := vol
	for f, ok := inner.(*storage.Faulty); ok; f, ok = inner.(*storage.Faulty) {
		inner = f.Inner()
	}
	var volName string
	if cv, ok := inner.(*storage.Counting); ok {
		volName = cv.Name()
	}
	io := storage.NewCounting(vol, volName)
	vol = io
	retry := newRetrier(ctx, opts)
	var m graph.Meta
	// A reordered dataset's edges carry stored labels; perm moves the
	// root into stored space (validated below in the caller's original
	// space) and results translate back on collection.
	var perm *graph.Permutation
	if pg := opts.Prepared; pg != nil {
		if pg.Meta.Name != graphName {
			return nil, fmt.Errorf("xstream: prepared graph is %s, run is over %s: %w", pg.Meta.Name, graphName, errs.ErrBadOptions)
		}
		m, perm = pg.Meta, pg.Perm
	} else if m, perm, err = loadMetaPerm(retry, vol, graphName, &scratch.perm, scratch.bufs); err != nil {
		return nil, err
	}
	if uint64(opts.Root) >= m.Vertices {
		return nil, fmt.Errorf("xstream: root %d outside vertex space [0,%d): %w", opts.Root, m.Vertices, errs.ErrBadOptions)
	}
	if _, err := ParseDirection(string(opts.Direction)); err != nil {
		return nil, err
	}
	if perm != nil {
		opts.Root = perm.ToStored(opts.Root)
	}
	p := opts.Partitions
	if p <= 0 {
		p = graph.PartitionsForMemory(m.Vertices, PerVertexMemBytes, opts.MemoryBudget)
	}
	if uint64(p) > m.Vertices {
		p = int(m.Vertices)
	}
	parts, err := graph.NewPartitioning(m.Vertices, p)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{Vol: vol, Meta: m, Parts: parts, Opts: opts, ctx: ctx, Retry: retry,
		Perm: perm, io: io, volName: volName, scratch: scratch, Bufs: scratch.bufs,
		fileReady: make(map[string]*disksim.AsyncOp), wallStart: time.Now()}
	if opts.Sim != nil {
		if opts.Sim.MainDisk == nil {
			return nil, fmt.Errorf("xstream: SimConfig requires MainDisk")
		}
		rt.Clock = disksim.NewClock(opts.Sim.CPU, opts.Threads)
		rt.Costs = opts.Sim.Costs
		rt.devBase = rt.devices()
		// Trace in simulated seconds: span timestamps then line up with
		// the clock-derived ExecTime in the metrics record.
		opts.Tracer.SetTimeSource(rt.Clock.Now)
	}
	return rt, nil
}

// Scratch returns the run's private working memory (see Scratch); it is
// the run's until Cleanup.
func (rt *Runtime) Scratch() *Scratch { return rt.scratch }

// IterationCap is the most iterations the run may take:
// Options.MaxIterations, or one more than the vertices when that is unset.
func (rt *Runtime) IterationCap() int {
	if rt.Opts.MaxIterations > 0 {
		return rt.Opts.MaxIterations
	}
	return int(rt.Meta.Vertices) + 1
}

// InMemory reports whether the whole graph fits the memory budget.
func (rt *Runtime) InMemory() bool {
	return rt.Opts.MemoryBudget >= InMemoryNeed(rt.Meta)
}

// MainTiming returns the stream timing for the main disk. Wall mode
// still carries the run's retry policy — retries are wall-clock-only
// and exist in both modes.
func (rt *Runtime) MainTiming() stream.Timing {
	if rt.Clock == nil {
		return stream.Timing{Retry: rt.Retry, Bufs: rt.Bufs}
	}
	return stream.Timing{Clock: rt.Clock, Device: rt.Opts.Sim.MainDisk, Retry: rt.Retry,
		MemBW: rt.Costs.MemBandwidth, Bufs: rt.Bufs}
}

// AuxTiming returns the stream timing for the update/stay-out disk —
// the additional disk when configured, otherwise the main disk.
func (rt *Runtime) AuxTiming() stream.Timing {
	if rt.Clock != nil && rt.Opts.Sim.AuxDisk != nil {
		return stream.Timing{Clock: rt.Clock, Device: rt.Opts.Sim.AuxDisk, Retry: rt.Retry,
			MemBW: rt.Costs.MemBandwidth, Bufs: rt.Bufs}
	}
	return rt.MainTiming()
}

// Compute charges thread-scaled compute work (no-op in wall mode).
func (rt *Runtime) Compute(seconds float64) {
	if rt.Clock != nil {
		rt.Clock.Compute(seconds)
	}
}

// RAMScan charges the serial memory-bandwidth cost of scanning n bytes
// of an edge list held in memory. A RAM scan is a single sequential
// sweep, so it does not scale with the thread count the way per-edge
// classification compute does; it is also what replaces a device read,
// so it must hit the clock even when per-edge costs are zeroed. No-op
// in wall mode or when the cost model has no memory bandwidth.
func (rt *Runtime) RAMScan(n int64) {
	if rt.Clock == nil || rt.Costs.MemBandwidth <= 0 || n <= 0 {
		return
	}
	rt.Clock.ComputeSerial(float64(n) / rt.Costs.MemBandwidth)
}

// devices is what each simulated device — MainDisk, then AuxDisk and
// StayDisk when set — has done since the run began.
func (rt *Runtime) devices() []metrics.DeviceStats {
	var ds []metrics.DeviceStats
	for _, d := range []*disksim.Device{rt.Opts.Sim.MainDisk, rt.Opts.Sim.AuxDisk, rt.Opts.Sim.StayDisk} {
		if d == nil {
			continue
		}
		s := metrics.DeviceStats{Name: d.Name, BytesRead: d.BytesRead(), BytesWritten: d.BytesWritten(),
			BusyTime: d.BusyTime(), Ops: d.Ops()}
		if i := len(ds); i < len(rt.devBase) {
			b := rt.devBase[i]
			s.BytesRead, s.BytesWritten = s.BytesRead-b.BytesRead, s.BytesWritten-b.BytesWritten
			s.BusyTime, s.Ops = s.BusyTime-b.BusyTime, s.Ops-b.Ops
		}
		ds = append(ds, s)
	}
	return ds
}

// moved is the bytes this run has read and written so far: what its
// simulated devices moved, or in wall mode everything that crossed the
// run's volume.
func (rt *Runtime) moved() (read, written int64) {
	if rt.Clock == nil {
		d := rt.io.Stats()
		return d.BytesRead, d.BytesWritten
	}
	for _, d := range rt.devices() {
		read, written = read+d.BytesRead, written+d.BytesWritten
	}
	return read, written
}

// FinishMetrics fills the timing and device fields of a metrics record.
func (rt *Runtime) FinishMetrics(run *metrics.Run) {
	run.Graph = rt.Meta.Name
	run.BytesRead, run.BytesWritten = rt.moved()
	run.IORetries = rt.Retry.Retries()
	run.IOFailures = rt.Retry.Failures()
	if rt.Clock != nil {
		run.ExecTime = rt.Clock.Now()
		run.IOWait = rt.Clock.IOWait()
		run.ComputeTime = rt.Clock.ComputeTime()
		run.Devices = rt.devices()
	} else {
		run.ExecTime = time.Since(rt.wallStart).Seconds()
		if rt.volName != "" {
			d := rt.io.Stats()
			run.Devices = append(run.Devices, metrics.DeviceStats{
				Name: rt.volName, BytesRead: d.BytesRead, BytesWritten: d.BytesWritten,
				Ops: d.ReadOps + d.WriteOps,
			})
		}
	}
}

// counted names the cumulative engine counters Publish keeps, in the order
// of its totals.
var counted = [...]string{obs.CtrEdgesStreamed, obs.CtrUpdatesApplied, obs.CtrUpdatesFiltered,
	obs.CtrStayEdges, obs.CtrUpdatesEmitted, obs.CtrVisited, obs.CtrSkippedParts, obs.CtrCancellations,
	obs.CtrStayBufferWaits, obs.CtrStayCorruptions, obs.CtrCheckpoints, obs.CtrBottomUpIters,
	obs.CtrDirectionSwitches, obs.CtrDirectionFallbacks, obs.CtrIORetries, obs.CtrIOFailures}

// published is what a runtime's Publish calls have sent: the rows summed
// so far and their sums, and each counted total.
type published struct {
	rows                           int
	edges, applied, filtered, stay int64
	sent                           [len(counted)]int64
}

// Publish sets the engine counters on the run's tracer from run, the
// record as far as it is filed, and from what the runtime counts itself:
// the bytes it has moved (moved, as the record takes them) and its
// retrier's tallies. The record is the engines' only
// tally (DESIGN.md §11); the counters repeat it. unapplied is the number of
// updates the last row wrote that no gather has applied yet — emitted,
// but in no row's Updates until the next. A cumulative counter moves by
// its change since this runtime's last publish, so runs sharing a tracer
// add up; a gauge is set. Engines publish as they file each row and once
// as the run ends; each call emits a counters event. With no tracer it
// does nothing.
func (rt *Runtime) Publish(run *metrics.Run, unapplied int64) {
	t := rt.Tracer()
	if t == nil {
		return
	}
	p := &rt.published
	for _, it := range run.Iterations[p.rows:] {
		p.edges += it.EdgesStreamed
		p.applied += it.Updates
		p.filtered += it.Filtered
		p.stay += it.StayEdges
	}
	p.rows = len(run.Iterations)
	var fellBack int64
	if run.DirectionFallback {
		fellBack = 1
	}
	tot := [len(counted)]int64{p.edges, p.applied, p.filtered, p.stay, p.applied + p.filtered + unapplied,
		int64(run.Visited), int64(run.Skipped), int64(run.Cancellations), run.StayBufferWaits,
		int64(run.StayCorruptions), int64(run.Checkpoints), int64(run.BottomUpIterations),
		int64(run.DirectionSwitches), fellBack, rt.Retry.Retries(), rt.Retry.Failures()}
	for i, name := range counted {
		t.Counter(name).Add(tot[i] - p.sent[i])
	}
	p.sent = tot
	iter, front := t.Counter(obs.CtrIteration), t.Counter(obs.CtrFrontier)
	if n := len(run.Iterations); n > 0 {
		iter.Set(int64(run.Iterations[n-1].Index))
		front.Set(int64(run.Iterations[n-1].Frontier))
	}
	t.Counter(obs.CtrSwitchIteration).Set(int64(run.SwitchIteration))
	t.Counter(obs.CtrStayDisabled).Set(int64(run.StayDisabledParts))
	read, written := rt.moved()
	t.Counter(obs.CtrBytesRead).Set(read)
	t.Counter(obs.CtrBytesWritten).Set(written)
	for _, name := range [...]string{obs.CtrScatterWorkers, obs.CtrScatterChunks, obs.CtrScatterBusyNs} {
		t.Counter(name) // the pool's, named in every engine's events
	}
	t.EmitCounters()
}

// File names for the engine's working set.

// EdgeFile is partition p's out-edge file.
func (rt *Runtime) EdgeFile(p int) string { return fmt.Sprintf("%s_edge_%d", rt.Opts.FilePrefix, p) }

// VertexFile is partition p's vertex-state file.
func (rt *Runtime) VertexFile(p int) string { return fmt.Sprintf("%s_vtx_%d", rt.Opts.FilePrefix, p) }

// UpdateFile is partition p's update file in stream set `set` (0 or 1 —
// the two update stream sets whose roles switch each iteration, §III).
func (rt *Runtime) UpdateFile(set, p int) string {
	return fmt.Sprintf("%s_upd%d_%d", rt.Opts.FilePrefix, set, p)
}

// StayFile is partition p's stay file generated in iteration iter. The
// name carries the full iteration (a per-generation name, not a
// two-slot alternation): the engine may hold up to three generations at
// once — the current input, the fallback it replaced (kept until the
// input survives a verified read) and the pending write. Superseded
// generations are removed as soon as they stop being referenced.
func (rt *Runtime) StayFile(iter, p int) string {
	return fmt.Sprintf("%s_stay%d_%d", rt.Opts.FilePrefix, iter, p)
}

// Cleanup ends the run: it removes every working file with the run's
// prefix but a checkpointed run's level logs (unless KeepFiles), and hands
// the run's scratch back to the free-list. Engines defer it first,
// so it runs after everything that could still hold a stream buffer —
// open streams, the stay-writer goroutine — has been closed or joined.
func (rt *Runtime) Cleanup() {
	if !rt.Opts.KeepFiles {
		prefix := rt.Opts.FilePrefix + "_"
		for _, name := range rt.Vol.List() {
			if len(name) > len(prefix) && name[:len(prefix)] == prefix &&
				!(rt.keepLogs && strings.HasPrefix(name[len(prefix):], "won")) {
				rt.Vol.Remove(name)
			}
		}
	}
	if rt.scratch != nil {
		// The next run to acquire it owns its memory from here on.
		releaseScratch(rt.scratch)
		rt.scratch, rt.Bufs, rt.verts, rt.Perm = nil, nil, Verts{}, nil
		rt.VisitedBits, rt.claimed, rt.OutDeg = nil, nil, nil
	}
}

// Prepare splits the stored raw edge list into per-partition streaming
// edge files — X-Stream's cheap, sort-free setup pass (one sequential
// read of the dataset plus one sequential write; contrast with
// GraphChi's shard sort). It returns the per-partition edge counts. A
// FastBFS run that trims by the counts does not call it: its split pass
// writes the same files, later and trimmed (split.go). A resumed run that
// does not calls it with vertices already visited, whose edges it drops.
func (rt *Runtime) Prepare() ([]int64, error) {
	rt.allocBitmaps()
	if rt.Opts.Direction != DirectionTopDown {
		rt.allocOutDeg() // the kernel has, already, when its trim rule counts edges
	}
	outs, err := rt.openEdgeFiles()
	if err != nil {
		return nil, err
	}
	defer outs.Abort() // whatever an error return leaves open
	if err := rt.scanStored(outs.W); err != nil {
		return nil, err
	}
	if err := sealWriters(rt, outs); err != nil {
		return nil, err
	}
	return outs.Counts(), nil
}

// openEdgeFiles opens the writer set of the partitions' edge files on the
// main disk, write-behind (their readers barrier through AwaitFile).
func (rt *Runtime) openEdgeFiles() (*stream.WriterSet[graph.Edge], error) {
	tm := rt.MainTiming()
	outs, err := stream.OpenWriterSet(rt.Vol, rt.Parts.P(), rt.EdgeFile, func(name string) (*stream.Writer[graph.Edge], error) {
		return stream.NewCodecEdgeWriter(rt.Vol, name, tm, rt.Opts.StreamBufSize, rt.Meta.EdgeCodec())
	})
	if err != nil {
		return nil, err
	}
	outs.SetAsync()
	return outs, nil
}

// scanStored is the one pass over the dataset's stored edge file
// (ScanStored): each edge is counted into the out-degree table when the run
// keeps one, and appended to its source's partition writer in w unless the
// source is visited — w is nil for a resumed run that streams the stored
// file, which only recounts the table.
func (rt *Runtime) scanStored(w []*stream.Writer[graph.Edge]) error {
	_, err := ScanStored(rt.Vol, rt.Meta, rt.MainTiming(), rt.Opts.StreamBufSize, rt.scratch, func(edges []graph.Edge, _ []float32) error {
		for _, e := range edges {
			if rt.OutDeg != nil {
				rt.OutDeg[e.Src]++
			}
			if w != nil && !rt.VisitedBits.Get(e.Src) {
				if err := w[rt.Parts.Of(e.Src)].Append(e); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil {
		rt.Compute(float64(rt.Meta.Edges) * rt.Costs.ScatterPerEdge)
	}
	return err
}

// allocOutDeg sets up the out-degree table from the run's scratch, all
// zero, for scanStored to count into. Idempotent.
func (rt *Runtime) allocOutDeg() {
	if rt.OutDeg == nil {
		rt.OutDeg = chunk(&rt.scratch.outDeg, int(rt.Meta.Vertices))
		clear(rt.OutDeg)
	}
}

// outDegree is v's out-degree, 0 for a run that keeps no degree table.
func (rt *Runtime) outDegree(v graph.VertexID) int64 {
	if rt.OutDeg == nil {
		return 0
	}
	return int64(rt.OutDeg[v])
}

// sealWriters closes a writer set and books each file's write-behind
// barrier for the file's first reader.
func sealWriters[T any](rt *Runtime, ws *stream.WriterSet[T]) error {
	if err := ws.Close(); err != nil {
		return err
	}
	for p, op := range ws.LastOps() {
		rt.RegisterReady(ws.Names[p], op)
	}
	return nil
}

// UpdateChunk returns the run-owned NextChunk target for the engines'
// sequential passes over an update stream, sized to the run's stream
// buffer (see alignedChunk); it is valid until the next call. ScanStored
// takes its edge chunks from the scratch too.
func (rt *Runtime) UpdateChunk() []graph.Update {
	return chunk(&rt.scratch.updChunk, alignedChunk(rt.Opts.StreamBufSize/graph.UpdateBytes))
}

// Winners returns a pass's run-owned winner table over n vertices, all
// NoVertex (no candidate yet), valid until the next call. It holds each
// vertex's parent once a pass has found it, the first frontier parent the
// pass meets.
func (rt *Runtime) Winners(n int) []graph.VertexID {
	best := chunk(&rt.scratch.bestParent, n)
	for i := range best {
		best[i] = graph.NoVertex
	}
	return best
}

// Verts is vertex state from vertex Lo on: BFS level (NoLevel =
// unvisited) and parent. The paper pin and GraphChi hold one partition's
// at a time: the Verts InitVerts and LoadVerts return is backed by
// run-owned arrays and stays valid only until the next call of either.
// Every other streaming run holds every vertex's, its answer (kernel.tree).
type Verts struct {
	Lo     graph.VertexID
	Level  []uint32
	Parent []graph.VertexID
}

// NoLevel marks an unvisited vertex in a Verts array and on disk.
const NoLevel = uint32(0xFFFFFFFF)

// vertRecBytes is the on-disk size of one vertex record (level, parent).
const vertRecBytes = 8

type vertRec struct {
	level  uint32
	parent graph.VertexID
}

func getVertRec(b []byte) vertRec {
	u := graph.GetUpdate(b) // same layout: two little-endian uint32
	return vertRec{level: uint32(u.Dst), parent: u.Parent}
}

func putVertRec(b []byte, rec vertRec) {
	graph.PutUpdate(b, graph.Update{Dst: graph.VertexID(rec.level), Parent: rec.parent})
}

// partVerts points the run's Verts at partition p, contents arbitrary.
func (rt *Runtime) partVerts(p int) *Verts {
	lo, hi := rt.Parts.Interval(p)
	// Intervals differ by at most one vertex and partition 0 is a widest.
	widest := int(rt.Parts.Size(0))
	rt.verts = Verts{Lo: lo,
		Level:  chunk(&rt.scratch.level, widest)[:hi-lo],
		Parent: chunk(&rt.scratch.parent, widest)[:hi-lo]}
	return &rt.verts
}

// vertRecChunk is the run-owned decode/encode chunk for a vertex file
// of n records (see alignedChunk).
func (rt *Runtime) vertRecChunk(n int) []vertRec {
	return chunk(&rt.scratch.vertRecs, min(n, alignedChunk(rt.Opts.StreamBufSize/vertRecBytes)))
}

// InitVerts returns a fresh all-unvisited vertex state for partition p.
func (rt *Runtime) InitVerts(p int) *Verts {
	v := rt.partVerts(p)
	for i := range v.Level {
		v.Level[i] = NoLevel
		v.Parent[i] = graph.NoVertex
	}
	rt.Compute(float64(len(v.Level)) * rt.Costs.PerVertex)
	return v
}

// LoadVerts reads partition p's vertex-state file into memory.
func (rt *Runtime) LoadVerts(p int) (*Verts, error) {
	name := rt.VertexFile(p)
	rt.AwaitFile(name)
	sc, err := stream.NewScanner(rt.Vol, name, rt.MainTiming(), rt.Opts.StreamBufSize, vertRecBytes, getVertRec)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	v := rt.partVerts(p)
	n := len(v.Level)
	recs := rt.vertRecChunk(n)
	for i := 0; i < n; {
		k, err := sc.NextChunk(recs[:min(len(recs), n-i)])
		if err != nil {
			return nil, err
		}
		if k == 0 {
			return nil, fmt.Errorf("xstream: vertex file %s truncated at record %d of %d", name, i, n)
		}
		for j, rec := range recs[:k] {
			v.Level[i+j] = rec.level
			v.Parent[i+j] = rec.parent
		}
		i += k
	}
	rt.Compute(float64(n) * rt.Costs.PerVertex)
	return v, nil
}

// SaveVerts writes partition p's vertex state back to disk ("the updated
// vertices of each partition should be saved back to disk after each
// iteration", §II-A).
func (rt *Runtime) SaveVerts(p int, v *Verts) error {
	name := rt.VertexFile(p)
	w, err := stream.NewWriter(rt.Vol, name, rt.MainTiming(), rt.Opts.StreamBufSize, vertRecBytes, putVertRec)
	if err != nil {
		return err
	}
	w.SetAsync() // write-behind; next LoadVerts barriers through AwaitFile
	recs := rt.vertRecChunk(len(v.Level))
	for i := 0; i < len(v.Level); i += len(recs) {
		k := min(len(recs), len(v.Level)-i)
		for j := range recs[:k] {
			recs[j] = vertRec{level: v.Level[i+j], parent: v.Parent[i+j]}
		}
		if err := w.AppendChunk(recs[:k]); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	rt.RegisterReady(name, w.LastOp())
	rt.Compute(float64(len(v.Level)) * rt.Costs.PerVertex)
	return nil
}

// MarkRoot marks the root vertex visited at level 0 if it falls in v.
func (rt *Runtime) MarkRoot(v *Verts) bool {
	root := rt.Opts.Root
	lo := v.Lo
	if uint64(root) < uint64(lo) || int(root-lo) >= len(v.Level) {
		return false
	}
	v.Level[root-lo] = 0
	v.Parent[root-lo] = root
	if rt.VisitedBits != nil {
		rt.VisitedBits.Set(root)
	}
	return true
}

// CollectResult assembles the final BFS tree from every partition's
// vertex file. It does not charge I/O time: dumping the result is
// outside the measured execution, like the paper's output step.
func (rt *Runtime) CollectResult() (*Result, error) {
	level, parent := rt.treeArrays()
	for p := 0; p < rt.Parts.P(); p++ {
		name := rt.VertexFile(p)
		b, err := stream.ReadAll(rt.Vol, name, rt.Retry)
		if err != nil {
			return nil, err
		}
		lo, hi := rt.Parts.Interval(p)
		if len(b) != int(hi-lo)*vertRecBytes {
			return nil, fmt.Errorf("xstream: vertex file %s has %d bytes, want %d", name, len(b), int(hi-lo)*vertRecBytes)
		}
		for i := 0; i < int(hi-lo); i++ {
			rec := getVertRec(b[i*vertRecBytes:])
			level[int(lo)+i], parent[int(lo)+i] = rec.level, rec.parent
		}
	}
	res := rt.answer(level, parent)
	for _, l := range res.Levels {
		if l != NoLevel {
			res.Visited++
		}
	}
	return res, nil
}

// treeArrays returns level and parent arrays over every vertex, contents
// arbitrary, for a run's answer in stored labels: fresh, or over a
// reordered store the run's scratch, which answer translates into fresh
// ones. Either way a run allocates one vertex-sized pair.
func (rt *Runtime) treeArrays() ([]uint32, []graph.VertexID) {
	n := int(rt.Meta.Vertices)
	if rt.Perm == nil {
		return make([]uint32, n), make([]graph.VertexID, n)
	}
	return chunk(&rt.scratch.level, n), chunk(&rt.scratch.parent, n)
}

// answer is the Result of a run whose tree is level and parent
// (treeArrays), in the caller's vertex labels.
func (rt *Runtime) answer(level []uint32, parent []graph.VertexID) *Result {
	p := rt.Perm
	if p == nil {
		return &Result{Levels: level, Parents: parent}
	}
	res := &Result{Levels: make([]uint32, len(level)), Parents: make([]graph.VertexID, len(parent))}
	for v, l := range level {
		par := parent[v]
		if par != graph.NoVertex {
			par = p.ToOrig(par)
		}
		o := p.ToOrig(graph.VertexID(v))
		res.Levels[o], res.Parents[o] = l, par
	}
	return res
}
