// Package core implements FastBFS, the paper's primary contribution: an
// edge-centric out-of-core BFS engine built by modifying X-Stream
// (internal/xstream) with
//
//  1. asynchronous graph trimming — during every scatter, edges whose
//     source vertex is already visited are eliminated; the surviving
//     edges are written to a per-partition *stay file* on a dedicated
//     writer thread, and the stay file replaces the partition's edge
//     file as next-iteration input (§II-C1);
//  2. cross-iteration latency hiding with cancellation — partition p's
//     stay write only has to finish by p's scatter in the *next*
//     iteration; if it is still not ready after a short grace period,
//     the write is cancelled and the previous input is re-read, which is
//     always correct because the stay list is a subset of it (§II-C2);
//  3. a configurable trim threshold — trimming can start several
//     iterations late, or once enough of the graph has converged, to
//     avoid rewriting a nearly-whole graph for nothing on
//     high-diameter inputs (§II-C3);
//  4. coarse-grained selective scheduling — partitions that received no
//     updates are skipped entirely in the next iteration (§II-C3);
//  5. two-disk I/O scheduling — in two-disk mode the stay-out stream and
//     the update streams live on the second disk, and the stay-in /
//     stay-out roles switch disks every iteration so the big sequential
//     read and the big sequential write never share a spindle (§IV-C3).
//
// The trim rule used here is "eliminate iff the source vertex is
// visited", which is equivalent to the paper's "eliminate if processing
// generated an update" when the input is the immediately previous stay
// list, and remains correct when a cancellation forces re-reading an
// older input (see DESIGN.md).
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
	"fastbfs/internal/xstream"
)

// EngineName identifies FastBFS in metrics and file prefixes.
const EngineName = "fastbfs"

// Options configures a FastBFS run. Base holds the X-Stream-inherited
// settings (root, memory budget, threads, buffers, simulation).
type Options struct {
	Base xstream.Options

	// TrimStartIteration delays trimming until the given iteration
	// ("the easiest way to avoid this squander of resources is to start
	// the graph trimming several iterations later", §II-C3).
	TrimStartIteration int
	// TrimVisitedFraction additionally requires that at least this
	// fraction of vertices be visited before trimming starts ("till the
	// stay list shrinks to a relatively small proportion").
	TrimVisitedFraction float64
	// DisableTrimming turns the stay-file mechanism off entirely
	// (ablation: FastBFS degenerates to X-Stream plus selective
	// scheduling).
	DisableTrimming bool
	// DisableSelectiveScheduling makes every partition load, gather and
	// scatter every iteration, as X-Stream does (ablation).
	DisableSelectiveScheduling bool

	// StayBufSize and StayBufCount size the stay writer's private edge
	// buffers (§III: "the edge buffer count and size are made tunable").
	// Defaults: the stream buffer size, and 8 buffers.
	StayBufSize  int
	StayBufCount int

	// GracePeriod is how long (virtual seconds) a scatter waits for its
	// partition's late stay file before cancelling (§II-C2). Default
	// 50 ms.
	GracePeriod float64
	// GraceWall is the wall-clock grace period in real-disk mode.
	// Default 50 ms.
	GraceWall time.Duration

	// ResidencyBudget is the resident-partition cache's byte budget: a
	// partition whose trimmed input fits its fair share (budget /
	// partitions) is promoted into RAM and never touches the device
	// again (see DESIGN.md §8). 0 consults the FASTBFS_RESIDENCY
	// environment variable and otherwise leaves the cache off;
	// ResidencyOff forces it off; ResidencyUnbounded removes the limit.
	ResidencyBudget int64

	// CheckpointVol, when non-nil, enables crash-consistent
	// checkpointing: after every completed iteration a manifest is
	// atomically persisted to this volume (DESIGN.md §10). Checkpointed
	// runs keep their working files (Cleanup would delete the state a
	// resume needs), pin the residency cache off (RAM-resident edge sets
	// do not survive a crash), take the streaming path even when the
	// graph fits in memory, and write vertex state under per-iteration
	// generation names so a crash mid-iteration never clobbers the
	// state the last manifest points at.
	CheckpointVol storage.Volume
	// Resume restarts from CheckpointVol's manifest: the run skips the
	// partition-split pass, seeds engine state from the manifest and
	// continues at the iteration after the last completed one. With no
	// manifest present the run is simply fresh; a corrupt or mismatched
	// manifest fails with errs.ErrCorrupted.
	Resume bool
}

// SetDefaults fills unset fields.
func (o *Options) SetDefaults() {
	o.Base.SetDefaults(EngineName)
	if o.StayBufSize == 0 {
		o.StayBufSize = o.Base.StreamBufSize
	}
	if o.StayBufCount == 0 {
		o.StayBufCount = 8
	}
	if o.GracePeriod == 0 {
		o.GracePeriod = 0.05
	}
	if o.GraceWall == 0 {
		o.GraceWall = 50 * time.Millisecond
	}
	if o.ResidencyBudget == 0 {
		if s := os.Getenv("FASTBFS_RESIDENCY"); s != "" {
			if b, err := ParseResidencyBudget(s); err == nil {
				o.ResidencyBudget = b
			}
		}
	}
}

// Result is the FastBFS output (same shape as X-Stream's).
type Result = xstream.Result

// Run executes FastBFS over the stored graph graphName on vol.
func Run(vol storage.Volume, graphName string, opts Options) (*Result, error) {
	return RunContext(context.Background(), vol, graphName, opts)
}

// RunContext is Run with a cancellation context: ctx is checked at
// iteration and partition boundaries and inside the stay writer's grace
// wait, so a cancelled query abandons its scatter, discards pending stay
// files and removes its working files instead of running to completion.
func RunContext(ctx context.Context, vol storage.Volume, graphName string, opts Options) (*Result, error) {
	opts.SetDefaults()
	if err := resolveDirectionPolicy(&opts); err != nil {
		return nil, err
	}
	if opts.CheckpointVol != nil {
		// A resumable run must leave its working files behind: Cleanup
		// would delete the very state the manifest names.
		opts.Base.KeepFiles = true
	}
	rt, err := xstream.NewRuntimeContext(ctx, vol, graphName, opts.Base)
	if err != nil {
		return nil, err
	}
	defer rt.Cleanup()
	if rt.Meta.Weighted {
		return nil, fmt.Errorf("fastbfs: %w: BFS takes unweighted graphs; %s is weighted", errs.ErrBadOptions, graphName)
	}
	if rt.InMemory() && opts.CheckpointVol == nil {
		// The in-memory fast path has no durable intermediate state to
		// checkpoint; checkpointed runs always stream.
		return runInMemory(rt, opts)
	}
	e := &engine{rt: rt, opts: opts}
	return e.run()
}

// partState tracks one partition's edge input and pending stay write.
type partState struct {
	// input is the current edge-input file; inputTiming carries the
	// device it lives on (the "stay stream in" side).
	input       string
	inputTiming stream.Timing
	// fallback, when non-empty, is the input this partition's current
	// (adopted-stay) input replaced. It is kept until the adopted file
	// survives one full scatter read — its frame checksums then prove
	// the background write was neither torn nor bit-flipped — and a
	// corruption detected before that falls back to it, which is safe
	// because the stay list is a subset of the input it replaced.
	fallback       string
	fallbackTiming stream.Timing
	// pending is the stay file written during this partition's previous
	// scatter, still owned by the background writer.
	pending       *stream.StayFile
	pendingTiming stream.Timing
	// stayBroken marks a partition whose stay writes failed permanently:
	// trimming is degraded off for it (each scatter would otherwise burn
	// a grace wait and a cancellation on a write that cannot succeed).
	stayBroken bool
	// vertexFile is the partition's current vertex-state file. It is the
	// fixed VertexFile name normally, and a per-iteration generation
	// name under checkpointing (see vertexGenFile).
	vertexFile string
	// resident, when non-nil, holds this partition's live edge set in
	// RAM: the partition was promoted by the residency cache and its
	// scatters no longer touch the device (DESIGN.md §8). Promotion is
	// monotone, so resident never reverts to nil.
	resident *stream.Resident
	// updates is the number of updates routed to this partition by the
	// last scatter phase; selective scheduling skips the partition when
	// it is zero.
	updates int64
	// frontier is the number of vertices newly discovered in this
	// partition's last gather (the partition's share of the frontier).
	frontier uint64
	// visitedCount is the running number of visited vertices in this
	// partition, maintained by every gather, root mark and bottom-up
	// pass; the bottom-up skip rule reads it instead of the vertex file.
	visitedCount uint64
}

type engine struct {
	rt    *xstream.Runtime
	opts  Options
	sw    *stream.StayWriter
	pool  *stream.ScatterPool
	parts []partState
	resd  *stream.Residency

	tr  *obs.Tracer
	ctr obs.EngineCounters

	// ds is the direction heuristic state; dir the bottom-up working
	// state, allocated at the first switch (see direction.go). filter
	// carries every scatter's updates into the shuffler and totals the
	// current top-down iteration's wave (xstream/filter.go).
	ds     *xstream.DirState
	dir    *dirRun
	filter *xstream.UpdateFilter

	// ck is the checkpoint writer (nil when not checkpointing);
	// graveyard holds deletions deferred until the next manifest no
	// longer references the files.
	ck        *checkpointer
	graveyard []string

	visited       uint64
	cancellations int
	skipped       int
	trimmed       int64
	stayCorrupt   int
	stayDisabled  int
	resumed       int // iterations restored from a manifest (0 = fresh)
}

// mainTiming and auxTiming mirror the Runtime helpers.
func (e *engine) mainTiming() stream.Timing { return e.rt.MainTiming() }
func (e *engine) auxTiming() stream.Timing  { return e.rt.AuxTiming() }

// otherTiming returns the device the stay-out stream should use: a
// dedicated stay disk when configured, otherwise the opposite disk from
// t in two-disk mode (the per-iteration role switch); with one disk it
// is t itself.
func (e *engine) otherTiming(t stream.Timing) stream.Timing {
	sim := e.rt.Opts.Sim
	if sim == nil {
		return t
	}
	if sim.StayDisk != nil {
		return e.stayDiskTiming()
	}
	if sim.AuxDisk == nil {
		return t
	}
	if t.Device == sim.AuxDisk {
		return e.mainTiming()
	}
	return e.auxTiming()
}

// stayDiskTiming is the stream timing of the dedicated stay disk.
func (e *engine) stayDiskTiming() stream.Timing {
	return stream.Timing{Clock: e.rt.Clock, Device: e.rt.Opts.Sim.StayDisk, Retry: e.rt.Retry, Bufs: e.rt.Bufs}
}

func (e *engine) run() (*Result, error) {
	run := metrics.Run{Engine: EngineName, SwitchIteration: -1}
	e.tr = e.rt.Tracer()
	e.ctr = obs.NewEngineCounters(e.tr)
	e.pool = e.rt.NewScatterPool(e.ctr)
	dir, fellBack, err := e.rt.ResolveDirection()
	if err != nil {
		return nil, err
	}
	if fellBack {
		run.DirectionFallback = true
		e.ctr.DirectionFallbacks.Add(1)
	}
	e.ds = xstream.NewDirState(e.rt, dir)
	e.ctr.SwitchIteration.Set(-1)
	budget := e.opts.ResidencyBudget
	if e.opts.CheckpointVol != nil {
		// A promoted partition's live edge set exists only in RAM and
		// would be lost at a crash; checkpointed runs keep every
		// partition on the device.
		budget = ResidencyOff
		e.ck = &checkpointer{vol: e.opts.CheckpointVol}
	}
	e.resd = stream.NewResidency(budget, e.rt.Parts.P())
	runSpan := e.tr.Span("run").Attr("partitions", int64(e.rt.Parts.P()))
	if e.resd != nil {
		runSpan.Attr("residency_budget", e.opts.ResidencyBudget)
	}

	e.parts = make([]partState, e.rt.Parts.P())
	for p := range e.parts {
		e.parts[p].input = e.rt.EdgeFile(p)
		e.parts[p].inputTiming = e.mainTiming()
		e.parts[p].vertexFile = e.rt.VertexFile(p)
	}

	var man *checkpointManifest
	if e.ck != nil && e.opts.Resume {
		m, err := e.ck.load()
		if err != nil {
			return nil, err
		}
		man = m
	}
	startIter := 0
	if man != nil {
		if err := e.seedFromManifest(man, &run); err != nil {
			return nil, err
		}
		startIter = man.Iteration + 1
		runSpan.Attr("resumed_iterations", int64(startIter))
	}

	prep := runSpan.Child("load")
	if man == nil {
		// Resume skips the partition-split pass: the per-partition edge
		// (or stay) inputs the manifest names are already on the volume.
		if _, err := e.rt.Prepare(); err != nil {
			return nil, err
		}
	}
	prep.Attr("edges", int64(e.rt.Meta.Edges)).End()
	e.filter = e.rt.NewUpdateFilter(e.ctr)
	e.sw = stream.NewStayWriter(e.rt.Vol, e.opts.StayBufSize, e.opts.StayBufCount)
	e.sw.SetContext(e.rt.Context())
	e.sw.WaitCounter = e.ctr.BufferWaits
	defer e.sw.Shutdown()
	defer e.drainPending()

	maxIter := e.rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(e.rt.Meta.Vertices) + 1
	}
	if man != nil && man.Done {
		// The checkpointed run had already converged; skip straight to
		// collecting its recorded vertex state.
		maxIter = startIter
	}

	prevBottom := false
	for iter := startIter; iter < maxIter; iter++ {
		// Iteration iter consumes update set iterIn(iter) and produces
		// the other one (the two sets' roles switch every iteration).
		in, out := iterIn(iter), 1-iterIn(iter)
		if err := e.rt.Checkpoint(); err != nil {
			return nil, err
		}
		bottom := e.ds.Decide(iter)
		if bottom != prevBottom {
			e.ctr.DirectionSwitches.Add(1)
		}
		if bottom {
			newly, err := e.bottomUpIteration(iter, in, prevBottom, &run, runSpan)
			if err != nil {
				return nil, err
			}
			prevBottom = true
			if newly == 0 {
				break
			}
			continue
		}
		// A top-down iteration right after a bottom-up one has no update
		// files to gather: the bottom-up pass already formed this level's
		// frontier in the vertex state (and seeded each partition's
		// update/frontier counts for selective scheduling).
		skipGather := prevBottom
		prevBottom = false
		e.filter.Wave = xstream.Wave{}
		itSpan := runSpan.Child("iteration").SetIter(iter)
		e.ctr.Iteration.Set(int64(iter))
		trimNow := e.trimActive(iter)
		sh, err := stream.NewShuffler(e.rt.Vol, e.rt.Parts, e.auxTiming(), e.rt.Opts.StreamBufSize,
			func(p int) string { return e.rt.UpdateFile(out, p) })
		if err != nil {
			return nil, err
		}
		sh.SetAsync() // update streams are write-behind with a gather barrier
		itRow := metrics.Iteration{Index: iter, TrimActive: trimNow}

		for p := 0; p < e.rt.Parts.P(); p++ {
			if err := e.rt.Checkpoint(); err != nil {
				sh.Abort()
				return nil, err
			}
			if err := e.iteratePartition(p, iter, trimNow, skipGather, sh, &itRow, itSpan); err != nil {
				sh.Abort()
				return nil, err
			}
		}

		wave := e.filter.Wave
		itRow.Filtered = wave.Filtered()
		shs := itSpan.Child("shuffle")
		if err := sh.Close(); err != nil {
			return nil, err
		}
		shs.Attr("updates", wave.Written).End()
		for p, c := range sh.Counts() {
			e.parts[p].updates = c
		}
		var shBytes int64
		for _, b := range sh.BytesPerPartition() {
			shBytes += b
		}
		e.rt.BytesWritten += shBytes
		for p, op := range sh.LastOps() {
			e.rt.RegisterReady(e.rt.UpdateFile(out, p), op)
		}

		itRow.Frontier = itRow.NewlyVisited
		if iter == 0 {
			itRow.Frontier = 1
		}
		if skipGather {
			itRow.Frontier = e.dir.carryFrontier
		}
		// The scatter emits one update per frontier out-edge — frontier
		// vertices were unvisited until now, so trimming never dropped
		// their edges — making the emitted count, taken before the update
		// filter, exactly this frontier's out-degree sum.
		e.ds.RecordFrontier(itRow.Frontier, float64(wave.Emitted), !skipGather)
		e.ds.RecordScatter(wave.Emitted, float64(wave.CandDeg))
		run.Iterations = append(run.Iterations, itRow)
		e.ctr.Frontier.Set(int64(itRow.Frontier))
		e.ctr.BytesRead.Set(e.rt.BytesRead)
		e.ctr.BytesWritten.Set(e.rt.BytesWritten)
		itSpan.Attr("frontier", int64(itRow.Frontier)).
			Attr("new", int64(itRow.NewlyVisited)).
			Attr("edges", itRow.EdgesStreamed).
			Attr("stay_edges", itRow.StayEdges).
			Attr("filtered", itRow.Filtered).End()
		e.tr.EmitCounters()

		if iter > 0 && !skipGather {
			for p := 0; p < e.rt.Parts.P(); p++ {
				e.removeLater(e.rt.UpdateFile(in, p))
			}
		}

		// Nothing written means no partition has anything to gather: the
		// traversal is done, whatever the frontier still emitted at visited
		// vertices. Iteration complete: persist the manifest (atomic), then
		// the deletions deferred while the previous manifest still
		// referenced their files become safe.
		done := wave.Written == 0
		if err := e.writeManifest(iter, done, &run); err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	runSpan.Attr("visited", int64(e.visited)).End()
	e.tr.EmitCounters()

	res, err := e.rt.CollectResultFrom(func(p int) string { return e.parts[p].vertexFile })
	if err != nil {
		return nil, err
	}
	res.Visited = e.visited
	run.Visited = e.visited
	run.Cancellations = e.cancellations
	run.Skipped = e.skipped
	run.TrimmedEdges = e.trimmed
	run.StayCorruptions = e.stayCorrupt
	run.StayDisabledParts = e.stayDisabled
	run.Resumed = e.resumed
	if e.ck != nil {
		run.Checkpoints = e.ck.written
	}
	run.BottomUpIterations = int(e.ds.BottomUpIters)
	run.DirectionSwitches = int(e.ds.Switches)
	run.SwitchIteration = e.ds.SwitchIteration
	run.StayBufferWaits = e.sw.BufferWaits()
	run.ResidentParts = e.resd.ResidentParts()
	run.ResidentBytes = e.resd.Bytes()
	run.ResidentScans = e.resd.Scans()
	run.ResidentBytesSaved = e.resd.SavedBytes()
	e.rt.FinishMetrics(&run)
	res.Metrics = run
	return res, nil
}

// loadVerts and saveVerts read and write partition p's vertex state
// through its current file name. Under checkpointing each save opens a
// new per-iteration generation and the superseded file is deleted only
// after the next manifest (which names the new generation) is durable —
// a crash mid-iteration therefore never clobbers the state the last
// manifest points at.
func (e *engine) loadVerts(p int) (*xstream.Verts, error) {
	return e.rt.LoadVertsFile(p, e.parts[p].vertexFile)
}

func (e *engine) saveVerts(p, iter int, v *xstream.Verts) error {
	st := &e.parts[p]
	name := st.vertexFile
	if e.ck != nil {
		name = e.vertexGenFile(iter, p)
	}
	if err := e.rt.SaveVertsFile(p, name, v); err != nil {
		return err
	}
	if name != st.vertexFile {
		e.removeLater(st.vertexFile)
		st.vertexFile = name
	}
	return nil
}

// markStayBroken degrades a partition to untrimmed scatters after a
// permanent stay-write failure: the stay file is an optimization, and a
// partition whose stay writes cannot succeed would otherwise burn a
// grace wait and a cancellation every iteration.
func (e *engine) markStayBroken(st *partState) {
	if st.stayBroken {
		return
	}
	st.stayBroken = true
	e.stayDisabled++
	e.ctr.StayDisabled.Set(int64(e.stayDisabled))
}

// dropFallback releases the superseded input once the adopted stay file
// has survived one full verified read. After a corruption fallback the
// fallback IS the current input again, in which case only the
// bookkeeping is cleared.
func (e *engine) dropFallback(st *partState) {
	if st.fallback == "" {
		return
	}
	if st.fallback != st.input {
		e.removeLater(st.fallback)
	}
	st.fallback, st.fallbackTiming = "", stream.Timing{}
}

// iteratePartition runs partition p's share of one iteration: gather the
// updates addressed to it, then scatter its edge input (adopting or
// cancelling the pending stay file), writing a new stay file if trimming
// is active.
func (e *engine) iteratePartition(p, iter int, trimNow, skipGather bool, sh *stream.Shuffler, itRow *metrics.Iteration, itSpan *obs.Span) error {
	st := &e.parts[p]
	rootHere := iter == 0 && e.rt.Parts.Contains(p, e.rt.Opts.Root)

	// Selective scheduling (§II-C3): a partition with no incoming
	// updates and no frontier has nothing to do this iteration.
	idle := iter > 0 && st.updates == 0 || iter == 0 && !rootHere
	if idle && !e.opts.DisableSelectiveScheduling && iter > 0 {
		st.frontier = 0
		itRow.SkippedPartitions++
		e.skipped++
		e.ctr.Skipped.Add(1)
		return nil
	}

	// A promoted partition's edges live in RAM: no stay file to resolve,
	// no device input to open (DESIGN.md §8).
	if st.resident != nil {
		return e.iterateResident(p, iter, skipGather, sh, itRow, itSpan)
	}

	// Resolve and open the scatter input ahead of the gather: the
	// pending stay file's adopt-or-cancel decision happens as the
	// partition's processing starts (§II-C2), and the opened scanner's
	// read-ahead overlaps the update streaming. The grace wait for a
	// late stay write is time spent on the stay mechanism, hence the
	// stay-write span.
	sws := itSpan.Child("stay-write").SetPart(p)
	input, inputTiming := e.resolveInput(p, itRow)
	sws.End()
	lds := itSpan.Child("load").SetPart(p)
	e.rt.AwaitFile(input)
	edgeScan, err := stream.NewEdgeScanner(e.rt.Vol, input, inputTiming, e.rt.Opts.StreamBufSize)
	if err != nil {
		return err
	}
	edgeScan.Prefetch(e.rt.Opts.PrefetchBuffers)

	var v *xstream.Verts
	if iter == 0 {
		v = e.rt.InitVerts(p)
		if e.rt.MarkRoot(v) {
			st.frontier = 1
			st.visitedCount++
			e.visited++
			e.ctr.Visited.Add(1)
			itRow.NewlyVisited++
		} else {
			st.frontier = 0
		}
		lds.End()
	} else {
		v, err = e.loadVerts(p)
		lds.End()
		if err != nil {
			edgeScan.Close()
			return err
		}
		if !skipGather {
			gs := itSpan.Child("gather").SetPart(p)
			newly, applied, err := e.gather(v, e.rt.UpdateFile(iterIn(iter), p), uint32(iter), nil)
			gs.Attr("applied", applied).End()
			if err != nil {
				edgeScan.Close()
				return err
			}
			e.ctr.UpdatesApplied.Add(applied)
			e.ctr.Visited.Add(int64(newly))
			st.frontier = newly
			st.visitedCount += newly
			e.visited += newly
			itRow.NewlyVisited += newly
			itRow.Updates += applied
		}
	}

	// Scatter only when this partition holds frontier vertices (unless
	// the ablation disables selective scheduling).
	doScatter := st.frontier > 0 || e.opts.DisableSelectiveScheduling
	if doScatter {
		for {
			err := e.scatterInput(st, p, iter, trimNow, sh, itRow, itSpan, edgeScan, v)
			if err == nil {
				break
			}
			// A corrupted adopted stay file — a torn or bit-flipped
			// background write caught by its frame checksums — is
			// recoverable while the input it replaced is still on the
			// volume: re-reading that superset is the cancellation
			// fallback taken late (§II-C2). Updates already shuffled from
			// the corrupt file's readable prefix are re-emitted by the
			// wider re-scatter — frontier edges keep their relative order
			// in both files, so the prefix's claims are the re-scatter's
			// own first updates and the filter drops the repeats; with the
			// filter off the first-wins gather makes them harmless.
			if !errors.Is(err, errs.ErrCorrupted) || st.fallback == "" {
				return err
			}
			e.removeLater(st.input)
			st.input, st.inputTiming = st.fallback, st.fallbackTiming
			st.fallback, st.fallbackTiming = "", stream.Timing{}
			e.stayCorrupt++
			e.cancellations++ // a late cancellation of the stay adoption
			itRow.Cancelled++
			e.ctr.Cancellations.Add(1)
			e.ctr.StayCorrupt.Add(1)
			edgeScan, err = stream.NewEdgeScanner(e.rt.Vol, st.input, st.inputTiming, e.rt.Opts.StreamBufSize)
			if err != nil {
				return err
			}
			edgeScan.Prefetch(e.rt.Opts.PrefetchBuffers)
		}
		// The input survived a full read — its checksummed frames
		// verified end to end — so the superseded fallback can go.
		e.dropFallback(st)
	} else {
		// The speculative input open is abandoned; Close cancels its
		// read-ahead with a device refund.
		edgeScan.Close()
		if iter > 0 {
			itRow.SkippedPartitions++
			e.skipped++
			e.ctr.Skipped.Add(1)
		}
	}

	// Save vertex state when it changed (gather applied something or
	// this is the initializing iteration). A skip-gather iteration
	// never modifies vertex state: the bottom-up pass that formed this
	// frontier already saved it.
	if iter == 0 || st.frontier > 0 && !skipGather || e.opts.DisableSelectiveScheduling {
		svs := itSpan.Child("load").SetPart(p)
		err := e.saveVerts(p, iter, v)
		svs.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// scatterInput runs one scatter attempt over st.input: pick the trim
// sink (a stay file, or a residency capture when the whole input fits
// the cache's fair share), stream the input through the worker pool and
// finalize the sink. The scanner is consumed and closed in all cases.
// When trimming is active the surviving edges need a sink. If the
// capture path wins, this scatter promotes the partition: the stays are
// captured in RAM instead of a stay file, so there is no async write,
// no grace race and no possible cancellation for this partition ever
// again.
func (e *engine) scatterInput(st *partState, p, iter int, trimNow bool, sh *stream.Shuffler, itRow *metrics.Iteration, itSpan *obs.Span, edgeScan *stream.Scanner[graph.Edge], v *xstream.Verts) error {
	var sink edgeSink
	var stay *stream.StayFile
	var capture *stream.Resident
	var reserved int64
	if trimNow && !st.stayBroken {
		if sz := edgeScan.Size(); e.resd.TryReserve(sz) {
			reserved = sz
			capture = stream.NewResident(sz / graph.EdgeBytes)
			sink = capture
		} else {
			stayTiming := e.otherTiming(st.inputTiming)
			f, err := e.sw.BeginCodec(e.rt.StayFile(iter, p), stayTiming, e.rt.Codec)
			switch {
			case err == nil:
				stay = f
				sink = stay
				st.pendingTiming = stayTiming
			case errors.Is(err, errs.ErrIOFailed):
				// Could not even create the stay file: degrade this
				// partition to untrimmed scatters instead of failing the
				// run.
				e.markStayBroken(st)
			default:
				edgeScan.Close()
				return err
			}
		}
	}
	ss := itSpan.Child("scatter").SetPart(p)
	scanned, stayed, err := e.scatter(v, edgeScan, uint32(iter), sh, sink)
	ss.Attr("edges", scanned).Attr("stayed", stayed)
	if err != nil {
		ss.End()
		if stay != nil {
			stay.Close()
			stay.Discard()
		}
		e.resd.Release(reserved)
		return err
	}
	itRow.EdgesStreamed += scanned
	if stay != nil {
		if err := stay.Close(); err != nil {
			ss.End()
			return err
		}
		st.pending = stay
		itRow.StayEdges += stayed
		e.trimmed += scanned - stayed
		e.ctr.StayEdges.Add(stayed)
		e.ctr.StayBytes.Add(stayed * graph.EdgeBytes)
	}
	if capture != nil {
		// Promotion: the live edge set is now in RAM; the on-device
		// input is gone for good. The stay write that a device run
		// would have issued is traffic saved.
		e.resd.Commit(reserved, capture.Bytes())
		e.resd.NoteSavedWrite(stayed * graph.EdgeBytes)
		st.resident = capture
		e.removeLater(st.input)
		st.input, st.inputTiming = "", stream.Timing{}
		itRow.StayEdges += stayed
		e.trimmed += scanned - stayed
		e.ctr.Promotions.Add(1)
		e.ctr.ResidentParts.Set(e.resd.ResidentParts())
		e.ctr.ResidentBytes.Set(e.resd.Bytes())
		ss.Attr("promote", 1)
	}
	ss.End()
	return nil
}

// iterIn maps an iteration to the update-stream set it consumes.
func iterIn(iter int) int {
	if iter%2 == 1 {
		return 1
	}
	return 0
}

// resolveInput decides partition p's edge input for this scatter: adopt
// the pending stay file if its background write is (or will shortly be)
// done, otherwise cancel it and fall back to the previous input — the
// paper's grace-and-cancel policy (§II-C2).
func (e *engine) resolveInput(p int, itRow *metrics.Iteration) (string, stream.Timing) {
	st := &e.parts[p]
	f := st.pending
	if f == nil {
		return st.input, st.inputTiming
	}
	st.pending = nil
	adopt := false
	var useErr error
	if clock := e.rt.Clock; clock != nil {
		if f.ReadyAt() <= clock.Now()+e.opts.GracePeriod {
			clock.WaitUntil(f.ReadyAt())
			if err := f.Use(); err == nil {
				adopt = true
			} else {
				useErr = err
			}
		}
	} else {
		ok, err := f.TryUse(e.opts.GraceWall)
		if ok && err == nil {
			adopt = true
		} else if err != nil {
			useErr = err
		}
	}
	if !adopt {
		f.Discard()
		e.cancellations++
		itRow.Cancelled++
		e.ctr.Cancellations.Add(1)
		if useErr != nil {
			// The background write failed outright (not merely late):
			// further stay writes for this partition would fail the same
			// way, so degrade trimming off for it.
			e.markStayBroken(st)
		}
		return st.input, st.inputTiming
	}
	if st.input != f.Name() {
		// The stay file replaces the previous input ("FastBFS replaces
		// the previous files ... with the new stay files", §II-A) — but
		// the replaced file is kept as a fallback until the adopted one
		// survives a full checksummed read (dropFallback); a torn or
		// bit-flipped stay write detected before that falls back to it.
		st.fallback, st.fallbackTiming = st.input, st.inputTiming
	}
	// The adopted stay file's device bytes are the write amount trimming
	// really added (cancelled writes were refunded on the device
	// timeline; delta stays count their encoded size).
	e.rt.BytesWritten += f.DeviceBytes()
	st.input = f.Name()
	st.inputTiming = st.pendingTiming
	return st.input, st.inputTiming
}

// gather streams partition updates and marks unvisited destinations.
// onNew, when non-nil, is called for each newly visited vertex (the
// bottom-up transition pass uses it to build its frontier bitmap).
func (e *engine) gather(v *xstream.Verts, updFile string, level uint32, onNew func(graph.VertexID)) (newly uint64, applied int64, err error) {
	e.rt.AwaitFile(updFile)
	sc, err := stream.NewUpdateScanner(e.rt.Vol, updFile, e.auxTiming(), e.rt.Opts.StreamBufSize)
	if err != nil {
		return 0, 0, err
	}
	defer sc.Close()
	sc.Prefetch(e.rt.Opts.PrefetchBuffers)
	chunk := e.rt.UpdateChunk()
	for {
		n, err := sc.NextChunk(chunk)
		if err != nil {
			return newly, applied, err
		}
		if n == 0 {
			break
		}
		for _, u := range chunk[:n] {
			applied++
			i := int(u.Dst - v.Lo)
			if i < 0 || i >= len(v.Level) {
				return newly, applied, fmt.Errorf("fastbfs: update %v outside partition [%d,%d)", u, v.Lo, int(v.Lo)+len(v.Level))
			}
			if v.Level[i] == xstream.NoLevel {
				v.Level[i] = level
				v.Parent[i] = u.Parent
				newly++
				if e.rt.VisitedBits != nil {
					e.rt.VisitedBits.Set(u.Dst)
				}
				if onNew != nil {
					onNew(u.Dst)
				}
			}
		}
	}
	e.rt.BytesRead += sc.BytesRead()
	e.rt.Compute(float64(applied) * e.rt.Costs.GatherPerUpdate)
	return newly, applied, nil
}

// edgeSink receives the edges that survive the trim rule during a
// scatter: a *stream.StayFile on the device path, a *stream.Resident
// when the scatter is promoting the partition into the residency cache.
type edgeSink interface {
	Append(graph.Edge) error
}

// scatter streams the edge input through the worker pool: frontier
// sources emit updates through the run's update filter; when stay is
// non-nil, edges with unvisited sources are appended to it (the trim rule
// — a visited source can never produce a future update). Workers only
// classify; the filter's claims, the shuffler and the stay file (whose
// buffer hand-offs interact with the virtual clock) stay on the engine
// thread, fed in chunk order, so file bytes and timing are identical for
// any worker count.
func (e *engine) scatter(v *xstream.Verts, sc *stream.Scanner[graph.Edge], iter uint32, sh *stream.Shuffler, stay edgeSink) (scanned, stayed int64, err error) {
	defer sc.Close()
	var written int64
	lo, n := v.Lo, len(v.Level)
	trim := stay != nil
	f := e.filter
	classify := func(edges []graph.Edge, out *stream.Shard) {
		for _, edge := range edges {
			out.Scanned++
			i := int(edge.Src - lo)
			if i < 0 || i >= n {
				out.Err = fmt.Errorf("fastbfs: edge %v outside partition [%d,%d)", edge, lo, int(lo)+n)
				return
			}
			if v.Level[i] == iter {
				f.Emit(out, edge)
			}
			if trim && v.Level[i] == xstream.NoLevel {
				out.Stays = append(out.Stays, edge)
				out.Stayed++
			}
		}
	}
	merge := func(s *stream.Shard) error {
		scanned += s.Scanned
		stayed += s.Stayed
		e.ctr.Edges.Add(s.Scanned)
		w, err := f.Flush(s, sh)
		written += w
		if err != nil {
			return err
		}
		for _, edge := range s.Stays {
			if err := stay.Append(edge); err != nil {
				return err
			}
		}
		return nil
	}
	if err := e.pool.RunScanner(sc, classify, merge); err != nil {
		return scanned, stayed, err
	}
	e.rt.BytesRead += sc.BytesRead()
	work := float64(scanned)*e.rt.Costs.ScatterPerEdge + float64(written)*e.rt.Costs.AppendPerUpdate
	if trim {
		work += float64(stayed) * e.rt.Costs.AppendPerStay
	}
	e.rt.Compute(work)
	return scanned, stayed, nil
}

// iterateResident is iteratePartition for a promoted partition: the
// gather is unchanged (updates still stream from the device), but the
// scatter reads the resident edge slice and trims it in place. There is
// no stay file, so no adopt-or-cancel decision and no stay-write span.
func (e *engine) iterateResident(p, iter int, skipGather bool, sh *stream.Shuffler, itRow *metrics.Iteration, itSpan *obs.Span) error {
	st := &e.parts[p]
	lds := itSpan.Child("load").SetPart(p)
	v, err := e.loadVerts(p)
	lds.End()
	if err != nil {
		return err
	}
	if !skipGather {
		gs := itSpan.Child("gather").SetPart(p)
		newly, applied, err := e.gather(v, e.rt.UpdateFile(iterIn(iter), p), uint32(iter), nil)
		gs.Attr("applied", applied).End()
		if err != nil {
			return err
		}
		e.ctr.UpdatesApplied.Add(applied)
		e.ctr.Visited.Add(int64(newly))
		st.frontier = newly
		st.visitedCount += newly
		e.visited += newly
		itRow.NewlyVisited += newly
		itRow.Updates += applied
	}

	if st.frontier > 0 || e.opts.DisableSelectiveScheduling {
		ss := itSpan.Child("scatter").SetPart(p).Attr("resident", 1)
		scanned, stayed, err := e.scatterResident(v, st.resident, uint32(iter), sh)
		ss.Attr("edges", scanned).Attr("stayed", stayed).End()
		if err != nil {
			return err
		}
		itRow.EdgesStreamed += scanned
		itRow.StayEdges += stayed
		e.trimmed += scanned - stayed
		e.ctr.ResidentScans.Add(1)
		e.ctr.ResidentBytes.Set(e.resd.Bytes())
	} else {
		itRow.SkippedPartitions++
		e.skipped++
		e.ctr.Skipped.Add(1)
	}

	if st.frontier > 0 && !skipGather || e.opts.DisableSelectiveScheduling {
		svs := itSpan.Child("load").SetPart(p)
		err := e.saveVerts(p, iter, v)
		svs.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// scatterResident scatters a promoted partition from RAM through the
// same worker pool. The device read is replaced by a serial
// memory-bandwidth charge on the virtual clock, and trimming becomes an
// in-place compaction of the resident slice: merged chunks append their
// survivors at indices strictly below any chunk still being classified
// (the merge frontier trails the dispatch frontier), so workers never
// see a mutated edge. No stay file is written — the avoided write is
// counted as device traffic saved.
func (e *engine) scatterResident(v *xstream.Verts, res *stream.Resident, iter uint32, sh *stream.Shuffler) (scanned, stayed int64, err error) {
	edges := res.Edges()
	kept := edges[:0]
	var written int64
	lo, n := v.Lo, len(v.Level)
	f := e.filter
	classify := func(chunk []graph.Edge, out *stream.Shard) {
		for _, edge := range chunk {
			out.Scanned++
			i := int(edge.Src - lo)
			if i < 0 || i >= n {
				out.Err = fmt.Errorf("fastbfs: edge %v outside partition [%d,%d)", edge, lo, int(lo)+n)
				return
			}
			if v.Level[i] == iter {
				f.Emit(out, edge)
			}
			if v.Level[i] == xstream.NoLevel {
				out.Stays = append(out.Stays, edge)
				out.Stayed++
			}
		}
	}
	merge := func(s *stream.Shard) error {
		scanned += s.Scanned
		stayed += s.Stayed
		e.ctr.Edges.Add(s.Scanned)
		w, err := f.Flush(s, sh)
		written += w
		if err != nil {
			return err
		}
		kept = append(kept, s.Stays...)
		return nil
	}
	scannedBytes := int64(len(edges)) * graph.EdgeBytes
	if err := e.pool.RunSlice(edges, classify, merge); err != nil {
		return scanned, stayed, err
	}
	e.rt.RAMScan(scannedBytes)
	e.resd.NoteScan(scannedBytes)
	freed := res.Bytes() - int64(len(kept))*graph.EdgeBytes
	res.Replace(kept)
	e.resd.Shrink(freed)
	e.resd.NoteSavedWrite(stayed * graph.EdgeBytes)
	e.rt.Compute(float64(scanned)*e.rt.Costs.ScatterPerEdge +
		float64(written)*e.rt.Costs.AppendPerUpdate +
		float64(stayed)*e.rt.Costs.AppendPerStay)
	return scanned, stayed, nil
}

// trimActive applies the trim-threshold policy (§II-C3).
func (e *engine) trimActive(iter int) bool {
	if e.opts.DisableTrimming {
		return false
	}
	if iter < e.opts.TrimStartIteration {
		return false
	}
	if e.opts.TrimVisitedFraction > 0 {
		frac := float64(e.visited) / float64(e.rt.Meta.Vertices)
		if frac < e.opts.TrimVisitedFraction {
			return false
		}
	}
	return true
}

// drainPending resolves stay files still owned by the writer when the
// run ends (their partitions never scattered again). It waits for each
// background write to settle before discarding, so whether the file was
// published (and then removed) never races with the writer goroutine —
// keeping end-of-run volume contents deterministic.
func (e *engine) drainPending() {
	for p := range e.parts {
		if f := e.parts[p].pending; f != nil {
			f.Use()
			f.Discard()
			e.parts[p].pending = nil
		}
	}
}

// runInMemory reuses X-Stream's in-memory fast path with an in-memory
// trim policy: after each iteration, edges whose source is already
// visited (level below the next frontier's) are dropped — NoLevel is the
// maximum uint32, so "keep iff level[src] >= next frontier level" keeps
// exactly the unvisited and just-discovered sources.
func runInMemory(rt *xstream.Runtime, opts Options) (*Result, error) {
	if opts.DisableTrimming {
		return xstream.RunInMemory(rt, EngineName, nil)
	}
	next := uint32(0)
	trim := func(level []uint32) (uint32, bool) {
		next++
		if int(next)-1 < opts.TrimStartIteration {
			return 0, false
		}
		if opts.TrimVisitedFraction > 0 {
			var visited uint64
			for _, l := range level {
				if l != xstream.NoLevel {
					visited++
				}
			}
			if float64(visited)/float64(rt.Meta.Vertices) < opts.TrimVisitedFraction {
				return 0, false
			}
		}
		return next, true
	}
	return xstream.RunInMemory(rt, EngineName, trim)
}
