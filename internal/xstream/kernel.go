package xstream

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// This file is the one out-of-core BFS loop (DESIGN.md §19). The paper
// builds FastBFS "as a modification of X-Stream", and so does this
// package: X-Stream is the loop below run under the zero Policy, FastBFS
// (internal/core) the same loop with trimming, selective scheduling and
// checkpointing switched on. bottomup.go holds the loop's bottom-up
// iterations, split.go its passes over the stored edge file, checkpoint.go
// its manifest and resume.
//
// The trim rule is "eliminate iff the source vertex is visited", which is
// equivalent to the paper's "eliminate if processing generated an update"
// when the input is the immediately previous stay list, and remains
// correct when a cancellation forces re-reading an older input (see
// DESIGN.md).

// Policy is what an engine adds to X-Stream's loop: a plain value,
// resolved once by the engine's front-end (core.Options for FastBFS) and
// never consulted for defaults or the environment again. The zero Policy
// adds nothing — every partition is streamed whole every iteration.
type Policy struct {
	// Trim turns the stay-file mechanism on (§II-C1): a scatter rewrites the
	// edges whose source is still unvisited and the rewrite replaces the
	// partition's input. Which scatters do is TrimActive's rule.
	// TrimStartIteration and TrimVisitedFraction are the paper's static
	// threshold (§II-C3); left at zero, the rule counts edges instead.
	Trim                bool
	TrimStartIteration  int
	TrimVisitedFraction float64
	// SelectiveScheduling skips a partition that received no updates, and
	// the scatter of one that holds no frontier vertex (§II-C3).
	SelectiveScheduling bool

	// StayBufSize and StayBufCount size the stay writer's private edge
	// buffers; GracePeriod is how long, in seconds of the run's clock
	// (simulated or wall), a scatter waits for its partition's late stay
	// file before cancelling it (§II-C2). Read only when Trim is set.
	StayBufSize  int
	StayBufCount int
	GracePeriod  float64

	// CheckpointVol, when non-nil, makes a streaming run keep a log of
	// every level it forms and persist a manifest naming them after every
	// iteration; Resume restarts from that manifest (DESIGN.md §10,
	// checkpoint.go). A run on the in-memory path ignores both.
	CheckpointVol storage.Volume
	Resume        bool
}

// TrimEveryIteration as Policy.TrimStartIteration is the paper's default
// threshold: every scatter trims, from the first iteration on. Zero leaves
// the threshold unset, which hands the decision to the edge counts.
const TrimEveryIteration = -1

// UnknownEdges stands for an edge count nobody took.
const UnknownEdges int64 = -1

// static reports whether the paper's threshold is set, and so decides.
func (p Policy) static() bool { return p.TrimStartIteration != 0 || p.TrimVisitedFraction > 0 }

// TrimActive is the trim rule, the one both regimes ask just before they
// would rewrite their edges: whether doing so pays. input is the number of
// edges the rewrite has to read and live how many of them it keeps — the
// out-degree sum of the still-unvisited sources, since a visited source's
// edges are all a trim ever drops. A rewrite costs live edges written and
// saves input-live edges of the next read, so it pays once it at least
// halves its input; both files are in the run's working codec, so counting
// edges is counting bytes. A caller with no counts (UnknownEdges: the
// one-shot run, whose trim writes nothing, and the reverse stay chain)
// trims. The split of the stored file asks it in its own terms (split.go).
//
// With the paper's static threshold set (§II-C3) the counts are not
// consulted: trimming starts at an iteration, once a fraction of the
// vertices is visited. The streaming loop asks that as iteration iter
// starts, the in-memory loop after its gather.
func (p Policy) TrimActive(iter int, visited, vertices uint64, live, input int64) bool {
	if !p.Trim {
		return false
	}
	if p.static() {
		return iter >= p.TrimStartIteration && (p.TrimVisitedFraction <= 0 ||
			float64(visited)/float64(vertices) >= p.TrimVisitedFraction)
	}
	return live < 0 || input < 0 || 2*live <= input
}

// RunPolicy is the entry sequence every engine built on the kernel
// shares: defaults, runtime, the unweighted-graph check, then the
// in-memory path or the streaming loop under pol. engine names the run in
// metrics, working-file prefix, manifest and error text.
func RunPolicy(ctx context.Context, vol storage.Volume, graphName, engine string, opts Options, pol Policy) (*Result, error) {
	opts.SetDefaults(engine)
	rt, err := NewRuntimeContext(ctx, vol, graphName, opts)
	if err != nil {
		return nil, err
	}
	defer rt.Cleanup()
	if rt.Meta.Weighted {
		return nil, fmt.Errorf("%s: %w: BFS takes unweighted graphs; %s is weighted", engine, errs.ErrBadOptions, graphName)
	}
	if rt.InMemory() {
		return newKernel(rt, engine, pol).runInMemory()
	}
	return newKernel(rt, engine, pol).runStreaming()
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
	// updates is the number of updates routed to this partition by the
	// last scatter phase; selective scheduling skips the partition when
	// it is zero.
	updates int64
	// frontier is the number of vertices newly discovered in this
	// partition's last gather (the partition's share of the frontier).
	frontier uint64
	// visitedCount is the running number of visited vertices in this
	// partition, maintained by every gather, root mark and bottom-up
	// pass (see visit); the bottom-up skip rule reads it instead of the
	// vertex file.
	visitedCount uint64
	// inputEdges is the number of edges in input — the split's count, then
	// each adopted stay file's — and fallbackEdges that of fallback. live is
	// the out-degree sum of the partition's still-unvisited vertices, kept
	// while the run has a degree table: what a trimming scatter of any of
	// the partition's inputs keeps, known before the scan starts. The trim
	// rule weighs them (Policy.TrimActive); each is UnknownEdges when nobody
	// counted it.
	inputEdges, fallbackEdges, live int64
}

// visit books n newly visited vertices of the partition, whose
// out-degrees sum to deg (0 without a degree table).
func (st *partState) visit(n uint64, deg int64) {
	st.visitedCount += n
	if st.live >= 0 {
		st.live -= deg
	}
}

// kernel is one BFS run on either regime: runStreaming (below) out of
// core, runInMemory (engine.go) when the graph fits the budget.
type kernel struct {
	rt  *Runtime
	pol Policy

	// run is the measurement record, and the only place the run's totals
	// live: the loop counts straight into it (visited vertices, skips,
	// cancellations, trimmed edges, iteration rows), and the live counters
	// are published from it (publish).
	run metrics.Run

	sw    *stream.StayWriter // nil unless pol.Trim
	pool  *stream.ScatterPool
	parts []partState

	tr *obs.Tracer

	// ds is the direction heuristic state; dir the frontier bitmaps and
	// the bottom-up and stored passes' working state (bottomup.go,
	// split.go). filter carries every scatter's updates into the shuffler
	// and totals the current top-down iteration's wave (filter.go).
	ds     *DirState
	dir    *dirRun
	filter *UpdateFilter
	// stored is set while the stored edge file is every partition's input:
	// a FastBFS run that trims by the counts, until its split pass (split.go).
	// index is that file's degree index, when the run loaded it (openIndex).
	stored bool
	index  *storedIndex

	// logs is set for a run whose vertex state is the RAM bitmaps and one
	// log per level (logFile) — a run that trims by the counts or
	// checkpoints; the paper pin keeps §II-A's vertex files. Logs 0 to
	// levels-1 hold the tree's levels 1 to levels (collectLogs).
	logs   bool
	levels int

	// ck is the checkpoint volume (nil when not checkpointing).
	ck storage.Volume
}

// newKernel sets up what both regimes share: the record, named for the
// engine, and the tracer; runStreaming adds the scatter pool.
func newKernel(rt *Runtime, engine string, pol Policy) *kernel {
	return &kernel{rt: rt, pol: pol, run: metrics.Run{Engine: engine, SwitchIteration: -1}, tr: rt.Tracer()}
}

// otherTiming returns the device the stay-out stream should use: a
// dedicated stay disk when configured, otherwise the opposite disk from
// t in two-disk mode (the per-iteration role switch, §IV-C3); with one
// disk it is t itself.
func (e *kernel) otherTiming(t stream.Timing) stream.Timing {
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
		return e.rt.MainTiming()
	}
	return e.rt.AuxTiming()
}

// stayDiskTiming is the stream timing of the dedicated stay disk.
func (e *kernel) stayDiskTiming() stream.Timing {
	return stream.Timing{Clock: e.rt.Clock, Device: e.rt.Opts.Sim.StayDisk, Retry: e.rt.Retry, Bufs: e.rt.Bufs}
}

func (e *kernel) runStreaming() (*Result, error) {
	dir, fellBack, err := e.rt.ResolveDirection()
	if err != nil {
		return nil, err
	}
	e.run.DirectionFallback = fellBack
	e.ds = NewDirState(e.rt, dir)
	// The scratch's scatter worker pool, with the shards and chunk buffers
	// of the runs before it; a shard holds a slot per partition. A chunk is
	// the stream buffer's edge capacity, so chunk boundaries line up with
	// scanner refills and depend only on the buffer size, never on the
	// worker count, keeping output bytes deterministic.
	e.pool = e.rt.scratch.ScatterPool(e.rt.Opts.ScatterWorkers, e.rt.Opts.StreamBufSize/graph.EdgeBytes, e.rt.Parts.P())
	e.pool.ChunkCounter = e.tr.Counter(obs.CtrScatterChunks)
	e.pool.BusyCounter = e.tr.Counter(obs.CtrScatterBusyNs)
	e.pool.FaultHook = e.rt.Opts.FaultHook
	e.tr.Counter(obs.CtrScatterWorkers).Set(int64(e.pool.Workers()))
	runSpan := e.tr.Span("run").Attr("partitions", int64(e.rt.Parts.P()))

	e.parts = make([]partState, e.rt.Parts.P())
	for p := range e.parts {
		e.parts[p] = partState{input: e.rt.EdgeFile(p), inputTiming: e.rt.MainTiming(),
			inputEdges: UnknownEdges, fallbackEdges: UnknownEdges, live: UnknownEdges}
	}
	counting := e.pol.Trim && !e.pol.static()
	if counting {
		e.rt.allocOutDeg() // the trim rule weighs edge counts
	}
	e.rt.allocBitmaps()
	e.dir = e.newDirRun()

	var man *checkpointManifest
	if e.pol.CheckpointVol != nil {
		e.ck = e.pol.CheckpointVol
		e.rt.keepLogs = true
		if !e.pol.Resume {
			// This run's logs overwrite the old one's: its manifest goes first.
			e.ck.Remove(manifestName)
		} else if man, err = loadManifest(e.ck); err != nil {
			return nil, fmt.Errorf("%s: %w", e.run.Engine, err)
		}
	}
	e.logs = counting || e.ck != nil

	// A run that trims by the counts splits when the split pays (split.go),
	// if its working files share the stored file's codec, so that the rule's
	// edge counts are bytes; the rest split up front. A resumed run goes back
	// to its stored phase if it had not split: β still prices a stored pass.
	e.stored = counting && e.rt.Codec == e.rt.Meta.EdgeCodec() && (man == nil || man.Dir.StoredPrice > 0)
	startIter := 0
	switch {
	case man != nil:
		if err := e.resume(man); err != nil {
			return nil, err
		}
		startIter = man.Iteration + 1
		runSpan.Attr("resumed_iterations", int64(startIter))
	case e.stored:
		e.ds.StoredPrice = float64(e.rt.Meta.Edges)
		if err := e.openIndex(); err != nil {
			return nil, err
		}
	default:
		prep := runSpan.Child("load")
		counts, err := e.rt.Prepare()
		if err != nil {
			return nil, err
		}
		for p := range e.parts {
			e.parts[p].inputEdges = counts[p]
			if e.rt.OutDeg != nil {
				e.parts[p].live = counts[p] // nothing visited yet
			}
		}
		prep.Attr("edges", int64(e.rt.Meta.Edges)).End()
	}
	e.filter = e.rt.NewUpdateFilter(dir)
	if e.pol.Trim {
		e.sw = stream.NewStayWriter(e.rt.Vol, e.pol.StayBufSize, e.pol.StayBufCount)
		e.sw.SetContext(e.rt.Context())
		defer e.sw.Shutdown()
		defer e.drainPending()
	}

	maxIter := e.rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(e.rt.Meta.Vertices) + 1
	}
	// prevBottom is whether the last iteration went bottom-up; formed,
	// whether it formed this one's frontier without an update file (a
	// bottom-up or a stored pass, or a resume), leaving nothing to gather.
	prevBottom, formed := false, false
	if man != nil {
		prevBottom, formed = man.Dir.Mode == DirectionBottomUp, true
		if man.Done {
			maxIter = startIter // the run had converged: only collect
		}
	}
	for iter := startIter; iter < maxIter; iter++ {
		if err := e.rt.Checkpoint(); err != nil {
			return nil, err
		}
		e.filter.Wave = Wave{}
		bottom, stored := e.ds.Decide(iter), e.stored
		var done bool
		switch {
		case bottom:
			var newly uint64
			newly, err = e.bottomUpIteration(iter, formed, runSpan)
			done = newly == 0
		case stored:
			done, err = e.storedIteration(iter, iter+1 == maxIter, prevBottom, runSpan)
		default:
			done, err = e.topDownIteration(iter, formed, prevBottom, runSpan)
		}
		if err != nil {
			return nil, err
		}
		prevBottom, formed = bottom, bottom || stored
		// The iteration's level is logged: persist the manifest (atomic).
		if err := e.writeManifest(iter, done); err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	// A stay file still pending is discarded before the record is taken:
	// the volume has counted its writes by then, as Discard waits for them,
	// and its device has refunded the share it had not yet written.
	e.drainPending()
	// A cancel a short query's last writes outlast is seen before the collect.
	if err := e.rt.Checkpoint(); err != nil {
		return nil, err
	}
	if e.logs {
		return e.finish(runSpan, e.collectLogs)
	}
	return e.finish(runSpan, e.rt.CollectResult)
}

// topDownIteration runs top-down iteration iter over the partitions'
// inputs: each gathers the updates the last scatter wrote it, unless a
// pass formed this frontier without them (skipGather; wasBottom says a
// bottom-up one), then scatters. It reports whether the traversal is done:
// nothing written means no partition has anything to gather, whatever the
// frontier still emitted at visited vertices.
func (e *kernel) topDownIteration(iter int, skipGather, wasBottom bool, runSpan *obs.Span) (done bool, err error) {
	itSpan := runSpan.Child("iteration").SetIter(iter)
	if !skipGather {
		e.dir.frontier.Clear() // the gathers set this iteration's frontier
	}
	// Asked without counts, the trim rule says whether this iteration
	// trims at all; a scatter that would write then asks for its partition.
	trimNow := e.pol.TrimActive(iter, e.run.Visited, e.rt.Meta.Vertices, UnknownEdges, UnknownEdges)
	sh, err := stream.NewShuffler(e.rt.Vol, e.rt.Parts, e.rt.AuxTiming(), e.rt.Opts.StreamBufSize,
		func(p int) string { return e.updFile(iter, p) })
	if err != nil {
		return false, err
	}
	sh.SetAsync() // update streams are write-behind with a gather barrier
	itRow := metrics.Iteration{Index: iter, TrimActive: trimNow}
	e.bookCarried(&itRow)

	for p := 0; p < e.rt.Parts.P(); p++ {
		if err := e.rt.Checkpoint(); err != nil {
			sh.Abort()
			return false, err
		}
		if err := e.iteratePartition(p, iter, trimNow, skipGather, sh, &itRow, itSpan); err != nil {
			sh.Abort()
			return false, err
		}
	}

	e.levels = iter
	wave := e.filter.Wave
	itRow.Filtered = wave.Filtered()
	shs := itSpan.Child("shuffle")
	if err := sealWriters(e.rt, sh.WriterSet); err != nil {
		return false, err
	}
	shs.Attr("updates", wave.Written).End()
	for p, c := range sh.Counts() {
		e.parts[p].updates = c
	}

	itRow.Frontier = itRow.NewlyVisited // iteration 0's: the root
	if skipGather {
		itRow.Frontier = e.dir.carryFrontier
	}
	// The scatter emits one update per frontier out-edge — frontier
	// vertices were unvisited until now, so trimming never dropped
	// their edges — making the emitted count, taken before the update
	// filter, exactly this frontier's out-degree sum. Only a bottom-up
	// pass formed (and recorded) it before this iteration.
	e.ds.RecordFrontier(itRow.Frontier, float64(wave.Emitted), !wasBottom)
	e.ds.RecordScatter(wave.Emitted, float64(wave.CandDeg))
	e.endIteration(itRow, itSpan)
	if !skipGather {
		e.dropUpdates(iter)
	}
	return wave.Written == 0, nil
}

// updFile is the update file iteration iter's scatter writes for partition
// p, and iteration iter+1 gathers: in a run that keeps logs, the log of the
// level it forms (whose first record per vertex is the winner), else one of
// the two update sets whose roles switch every iteration, so the gather's
// input is never the scatter's output (§III).
func (e *kernel) updFile(iter, p int) string {
	if e.logs {
		return e.logFile(iter, p)
	}
	return e.rt.UpdateFile((iter+1)%2, p)
}

// dropUpdates removes the update files iteration iter gathered, unless
// they are logs.
func (e *kernel) dropUpdates(iter int) {
	if iter == 0 || e.logs {
		return
	}
	for p := range e.parts {
		e.rt.Vol.Remove(e.updFile(iter-1, p))
	}
}

// endIteration files a finished iteration's row, closes its span with the
// row's fields attached and publishes the record, in either direction and
// either regime.
func (e *kernel) endIteration(itRow metrics.Iteration, itSpan *obs.Span) {
	e.run.Iterations = append(e.run.Iterations, itRow)
	itSpan.Attr("frontier", int64(itRow.Frontier)).Attr("new", int64(itRow.NewlyVisited)).
		Attr("edges", itRow.EdgesStreamed).Attr("filtered", itRow.Filtered).
		Attr("stay_edges", itRow.StayEdges).Attr("stay_predicted", itRow.StayPredicted).End()
	e.publish()
}

// publish brings the record's run-level fields kept elsewhere during the
// run up to date — the direction state's tallies, the stay writer's
// waits — and publishes the record to the live counters, with the
// updates the last row wrote that no gather has applied yet.
func (e *kernel) publish() {
	if ds := e.ds; ds != nil {
		e.run.BottomUpIterations, e.run.DirectionSwitches, e.run.SwitchIteration = int(ds.BottomUpIters), int(ds.Switches), ds.SwitchIteration
	}
	if e.sw != nil {
		e.run.StayBufferWaits = e.sw.BufferWaits()
	}
	var unapplied int64
	if e.filter != nil {
		unapplied = e.filter.Wave.Written
	}
	e.rt.Publish(&e.run, unapplied)
}

// finish ends a run whose loop is over: it closes the run span, has
// collect assemble the BFS tree — outside the span, like the paper's
// output step — completes the record with the runtime's timing and
// device totals, and publishes it.
func (e *kernel) finish(runSpan *obs.Span, collect func() (*Result, error)) (*Result, error) {
	runSpan.Attr("visited", int64(e.run.Visited)).End()
	res, err := collect()
	if err != nil {
		return nil, err
	}
	res.Visited = e.run.Visited
	e.rt.FinishMetrics(&e.run)
	e.publish()
	res.Metrics = e.run
	return res, nil
}

// collectLogs assembles the BFS tree of a run that keeps logs: the root at
// level 0, its own parent, then the logs in level order, where a vertex's
// first record sets its level and parent — in original labels, read through
// a reordered graph's permutation. Like CollectResult it charges no time. A
// log that is missing, or logs that reach fewer vertices than the run
// visited, are errs.ErrCorrupted.
func (e *kernel) collectLogs() (*Result, error) {
	rt, n := e.rt, e.rt.Meta.Vertices
	orig := func(v graph.VertexID) graph.VertexID { return v }
	if rt.Perm != nil {
		orig = rt.Perm.ToOrig
	}
	res := &Result{Levels: make([]uint32, n), Parents: make([]graph.VertexID, n), Visited: 1}
	for i := range res.Levels {
		res.Levels[i], res.Parents[i] = NoLevel, graph.NoVertex
	}
	root := orig(rt.Opts.Root)
	res.Levels[root], res.Parents[root] = 0, root
	chunk := rt.UpdateChunk()
	for j := 0; j < e.levels; j++ {
		for p := range e.parts {
			sc, err := stream.NewUpdateScanner(rt.Vol, e.logFile(j, p), stream.Timing{Retry: rt.Retry, Bufs: rt.Bufs}, rt.Opts.StreamBufSize)
			for k := -1; err == nil && k != 0; {
				k, err = sc.NextChunk(chunk)
				for _, u := range chunk[:k] {
					if uint64(u.Dst) >= n || uint64(u.Parent) >= n {
						err = fmt.Errorf("%w: update %v past the vertices", errs.ErrCorrupted, u)
					} else if v := orig(u.Dst); res.Levels[v] == NoLevel {
						res.Levels[v], res.Parents[v] = uint32(j)+1, orig(u.Parent)
						res.Visited++
					}
				}
			}
			if sc != nil {
				sc.Close()
			}
			if errors.Is(err, storage.ErrNotExist) {
				err = fmt.Errorf("%w: %w", errs.ErrCorrupted, err)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: level log %s: %w", e.run.Engine, e.logFile(j, p), err)
			}
		}
	}
	if res.Visited < e.run.Visited {
		return nil, fmt.Errorf("%s: %w: the level logs reach %d vertices, the run visited %d", e.run.Engine, errs.ErrCorrupted, res.Visited, e.run.Visited)
	}
	return res, nil
}

// loadVerts and saveVerts read and write partition p's vertex state,
// traced as load spans.
func (e *kernel) loadVerts(p int, itSpan *obs.Span) (*Verts, error) {
	lds := itSpan.Child("load").SetPart(p)
	defer lds.End()
	return e.rt.LoadVerts(p)
}

func (e *kernel) saveVerts(p int, v *Verts, itSpan *obs.Span) error {
	svs := itSpan.Child("load").SetPart(p)
	defer svs.End()
	return e.rt.SaveVerts(p, v)
}

// skip books a partition bypassed by selective scheduling.
func (e *kernel) skip(itRow *metrics.Iteration) {
	itRow.SkippedPartitions++
	e.run.Skipped++
}

// markStayBroken degrades a partition to untrimmed scatters after a
// permanent stay-write failure: the stay file is an optimization, and a
// partition whose stay writes cannot succeed would otherwise burn a
// grace wait and a cancellation every iteration.
func (e *kernel) markStayBroken(broken *bool) {
	if *broken {
		return
	}
	*broken = true
	e.run.StayDisabledParts++
}

// dropFallback releases the superseded input once the adopted stay file
// has survived one full verified read. After a corruption fallback the
// fallback IS the current input again, in which case only the
// bookkeeping is cleared.
func (e *kernel) dropFallback(st *partState) {
	if st.fallback == "" {
		return
	}
	if st.fallback != st.input {
		e.rt.Vol.Remove(st.fallback)
	}
	st.fallback, st.fallbackTiming = "", stream.Timing{}
}

// iteratePartition runs partition p's share of one top-down iteration:
// gather the updates addressed to it, then scatter its edge input from
// the device, adopting or cancelling the pending stay file and writing a
// new one if trimming is active.
func (e *kernel) iteratePartition(p, iter int, trimNow, skipGather bool, sh *stream.Shuffler, itRow *metrics.Iteration, itSpan *obs.Span) error {
	st := &e.parts[p]

	// Selective scheduling (§II-C3): a partition that received no updates
	// has no frontier and nothing to do this iteration.
	if e.pol.SelectiveScheduling && iter > 0 && st.updates == 0 {
		st.frontier = 0
		e.skip(itRow)
		return nil
	}

	// Resolve and open the scatter input ahead of the gather: the
	// pending stay file's adopt-or-cancel decision happens as the
	// partition's processing starts (§II-C2), and the opened scanner's
	// read-ahead overlaps the update streaming. The grace wait for a
	// late stay write is time spent on the stay mechanism, hence the
	// stay-write span — a phase of runs that have the mechanism, so an
	// X-Stream trace never shows it.
	if e.pol.Trim {
		sws := itSpan.Child("stay-write").SetPart(p)
		e.resolvePending(st, itRow)
		sws.End()
	}
	lds := itSpan.Child("load").SetPart(p)
	edgeScan, err := e.openInput(st)
	if err != nil {
		return err
	}

	// The paper pin's vertex file, started at iteration 0 (DESIGN.md §5);
	// a run that keeps logs has its state in the bitmaps.
	var v *Verts
	switch {
	case e.logs:
	case iter == 0:
		v = e.rt.InitVerts(p)
		e.rt.MarkRoot(v)
	default:
		v, err = e.rt.LoadVerts(p)
	}
	lds.End()
	if iter == 0 && p == e.rt.Parts.Of(e.rt.Opts.Root) {
		e.markRoot(itRow)
	} else if err == nil && iter > 0 && !skipGather {
		_, err = e.gatherInto(p, iter, v, itRow, itSpan)
	}
	if err != nil {
		edgeScan.Close()
		return err
	}

	// Scatter only when this partition holds frontier vertices; without
	// selective scheduling every partition scatters every iteration, as
	// X-Stream does.
	switch {
	case st.frontier == 0 && e.pol.SelectiveScheduling:
		// The speculative input open is abandoned; Close cancels its
		// read-ahead, which no refill started, so it moved nothing.
		edgeScan.Close()
		if iter > 0 {
			e.skip(itRow)
		}
	default:
		err = e.scatterDevice(st, p, iter, trimNow, sh, itRow, itSpan, edgeScan)
	}
	if err != nil {
		return err
	}

	// Save vertex state when it changed (gather applied something or
	// this is the initializing iteration). A skip-gather iteration
	// never modifies vertex state: the bottom-up pass that formed this
	// frontier already saved it.
	if v != nil && (iter == 0 || st.frontier > 0 && !skipGather || !e.pol.SelectiveScheduling) {
		return e.saveVerts(p, v, itSpan)
	}
	return nil
}

// markRoot visits the root, iteration 0's frontier, in the bitmaps and
// its partition's counts.
func (e *kernel) markRoot(itRow *metrics.Iteration) {
	root := e.rt.Opts.Root
	e.rt.VisitedBits.Set(root)
	e.dir.frontier.Set(root)
	st := &e.parts[e.rt.Parts.Of(root)]
	st.frontier = 1
	st.visit(1, e.rt.outDegree(root))
	e.run.Visited++
	itRow.NewlyVisited++
}

// openInput opens partition st's current edge input with the configured
// read-ahead, first waiting out the file's write-behind barrier if one is
// pending.
func (e *kernel) openInput(st *partState) (*stream.Scanner[graph.Edge], error) {
	e.rt.AwaitFile(st.input)
	sc, err := stream.NewEdgeScanner(e.rt.Vol, st.input, st.inputTiming, e.rt.Opts.StreamBufSize)
	if err != nil {
		return nil, err
	}
	sc.Prefetch(e.rt.Opts.PrefetchBuffers)
	return sc, nil
}

// gatherInto applies the update file iteration iter consumes for
// partition p (to its loaded vertex state v, in the paper pin), and books
// what the gather found: the partition's share of the new frontier — whose
// out-degree sum it returns, 0 without a degree table — and the run's
// visited and update totals.
func (e *kernel) gatherInto(p, iter int, v *Verts, itRow *metrics.Iteration, itSpan *obs.Span) (deg int64, err error) {
	gs := itSpan.Child("gather").SetPart(p)
	newly, deg, applied, err := e.gather(p, v, e.updFile(iter-1, p), uint32(iter))
	gs.Attr("applied", applied).End()
	if err != nil {
		return 0, err
	}
	st := &e.parts[p]
	st.frontier = newly
	st.visit(newly, deg)
	e.run.Visited += newly
	itRow.NewlyVisited += newly
	itRow.Updates += applied // generated by the previous iteration's scatter
	return deg, nil
}

// scatterDevice scatters partition p from its on-device input. A
// corrupted adopted stay file — a torn or bit-flipped background write
// caught by its frame checksums — is recoverable while the input it
// replaced is still on the volume: re-reading that superset is the
// cancellation fallback taken late (§II-C2). Updates already shuffled
// from the corrupt file's readable prefix are re-emitted by the wider
// re-scatter — frontier edges keep their relative order in both files, so
// the prefix's claims are the re-scatter's own first updates and the
// filter drops the repeats; with the filter off the first-wins gather
// makes them harmless.
func (e *kernel) scatterDevice(st *partState, p, iter int, trimNow bool, sh *stream.Shuffler, itRow *metrics.Iteration, itSpan *obs.Span, edgeScan *stream.Scanner[graph.Edge]) error {
	for {
		err := e.scatterInput(st, p, iter, trimNow, sh, itRow, itSpan, edgeScan)
		if err == nil {
			break
		}
		if !errors.Is(err, errs.ErrCorrupted) || st.fallback == "" {
			return err
		}
		e.rt.Vol.Remove(st.input)
		st.input, st.inputTiming, st.inputEdges = st.fallback, st.fallbackTiming, st.fallbackEdges
		st.fallback, st.fallbackTiming = "", stream.Timing{}
		e.run.StayCorruptions++
		e.run.Cancellations++ // a late cancellation of the stay adoption
		itRow.Cancelled++
		if edgeScan, err = e.openInput(st); err != nil {
			return err
		}
	}
	// The input survived a full read — its checksummed frames verified
	// end to end — so the superseded fallback can go.
	e.dropFallback(st)
	return nil
}

// scatterInput runs one scatter attempt over st.input: open the stay file
// when the trim rule finds, on this partition's counts, that writing one
// pays, stream the input through the worker pool and finalize the stay
// file. The scanner is consumed and closed in all cases.
func (e *kernel) scatterInput(st *partState, p, iter int, trimNow bool, sh *stream.Shuffler, itRow *metrics.Iteration, itSpan *obs.Span, edgeScan *stream.Scanner[graph.Edge]) error {
	var stay *stream.StayFile
	if trimNow && !st.stayBroken && e.pol.TrimActive(iter, e.run.Visited, e.rt.Meta.Vertices, st.live, st.inputEdges) {
		stayTiming := e.otherTiming(st.inputTiming)
		f, err := e.sw.BeginCodec(e.rt.StayFile(iter, p), stayTiming, e.rt.Codec)
		switch {
		case err == nil:
			stay = f
			st.pendingTiming = stayTiming
		case errors.Is(err, errs.ErrIOFailed):
			// Could not even create the stay file: degrade this
			// partition to untrimmed scatters instead of failing the
			// run.
			e.markStayBroken(&st.stayBroken)
		default:
			edgeScan.Close()
			return err
		}
	}
	ss := itSpan.Child("scatter").SetPart(p)
	defer ss.End()
	scanned, stayed, err := e.scatter(p, sh, stay, edgeScan)
	edgeScan.Close()
	ss.Attr("edges", scanned).Attr("stayed", stayed)
	if st.live >= 0 {
		// The trim decision's log entry: what the rule weighed against the
		// input's edges, beside what the scan then kept.
		ss.Attr("live", st.live)
	}
	if err != nil {
		if stay != nil {
			stay.Close()
			stay.Discard()
		}
		return err
	}
	itRow.EdgesStreamed += scanned
	if stay == nil {
		return nil
	}
	if err := stay.Close(); err != nil {
		return err
	}
	st.pending = stay
	// stayed of the scanned edges survived. A known live count is what the
	// rule predicted before the scan, and the row gets both: a miss is for
	// the record's reader to see (and the suites to fail on), never the
	// query's problem — the survivors just counted are the live edges.
	itRow.StayEdges += stayed
	e.run.TrimmedEdges += scanned - stayed
	if st.live >= 0 {
		itRow.StayPredicted += st.live
		st.live = stayed
	}
	return nil
}

// bookStays books a pass that kept stayed of its scanned edges in files.
func (e *kernel) bookStays(itRow *metrics.Iteration, scanned, stayed int64) {
	itRow.StayEdges += stayed
	e.run.TrimmedEdges += scanned - stayed
}

// resolvePending decides what becomes of the stay file st's previous
// scatter left with the background writer: adopt it as the partition's
// input if its write is (or will shortly be) done, otherwise cancel it
// and keep the previous input — the paper's grace-and-cancel policy
// (§II-C2).
func (e *kernel) resolvePending(st *partState, itRow *metrics.Iteration) {
	f := st.pending
	if f == nil {
		return
	}
	st.pending = nil
	adopt := false
	var useErr error
	if clock := e.rt.Clock; clock != nil {
		if f.ReadyAt() <= clock.Now()+e.pol.GracePeriod {
			clock.WaitUntil(f.ReadyAt())
			if err := f.Use(); err == nil {
				adopt = true
			} else {
				useErr = err
			}
		}
	} else {
		ok, err := f.TryUse(time.Duration(e.pol.GracePeriod * float64(time.Second)))
		if ok && err == nil {
			adopt = true
		} else if err != nil {
			useErr = err
		}
	}
	if !adopt {
		f.Discard()
		e.run.Cancellations++
		itRow.Cancelled++
		if useErr != nil {
			// The background write failed outright (not merely late):
			// further stay writes for this partition would fail the same
			// way, so degrade trimming off for it.
			e.markStayBroken(&st.stayBroken)
		}
		return
	}
	if st.input != f.Name() {
		// The stay file replaces the previous input ("FastBFS replaces
		// the previous files ... with the new stay files", §II-A) — but
		// the replaced file is kept as a fallback until the adopted one
		// survives a full checksummed read (dropFallback); a torn or
		// bit-flipped stay write detected before that falls back to it.
		st.fallback, st.fallbackTiming, st.fallbackEdges = st.input, st.inputTiming, st.inputEdges
	}
	st.input, st.inputTiming, st.inputEdges = f.Name(), st.pendingTiming, f.Count()
}

// gather streams partition p's updates from updFile and visits their
// unvisited destinations: each joins the visited set and the frontier and,
// in the paper pin's vertex state v, takes level and the update's parent.
// It returns how many did and, when the run has a degree table, their
// out-degree sum.
func (e *kernel) gather(p int, v *Verts, updFile string, level uint32) (newly uint64, deg, applied int64, err error) {
	e.rt.AwaitFile(updFile)
	sc, err := stream.NewUpdateScanner(e.rt.Vol, updFile, e.rt.AuxTiming(), e.rt.Opts.StreamBufSize)
	if err != nil {
		return 0, 0, 0, err
	}
	defer sc.Close()
	sc.Prefetch(e.rt.Opts.PrefetchBuffers)
	lo, hi := e.rt.Parts.Interval(p)
	visited, front := e.rt.VisitedBits, e.dir.frontier
	chunk := e.rt.UpdateChunk()
	for {
		n, err := sc.NextChunk(chunk)
		if err != nil {
			return newly, deg, applied, err
		}
		if n == 0 {
			break
		}
		for _, u := range chunk[:n] {
			applied++
			if u.Dst < lo || u.Dst >= hi {
				return newly, deg, applied, fmt.Errorf("%s: %w: update %v outside partition [%d,%d)", e.run.Engine, errs.ErrCorrupted, u, lo, hi)
			}
			if !visited.Claim(u.Dst) {
				continue
			}
			front.Set(u.Dst)
			newly++
			deg += e.rt.outDegree(u.Dst)
			if v != nil {
				v.Level[u.Dst-lo], v.Parent[u.Dst-lo] = level, u.Parent
			}
		}
	}
	e.rt.Compute(float64(applied) * e.rt.Costs.GatherPerUpdate)
	return newly, deg, applied, nil
}

// scatter streams partition p's edges from edgeScan through the worker
// pool. Frontier sources emit updates through the run's update filter;
// when stay is non-nil it receives, chunk by chunk, the edges with
// unvisited sources (the trim rule — a visited source can never produce a
// future update). Workers only classify, on the bitmaps (frontier test,
// visited test, partition routing); the filter's claims, the shuffler and
// the stay file (its buffer hand-offs interact with the virtual clock)
// stay on the engine thread, fed in chunk order, so file bytes, timing and
// all accounting are identical for any worker count (see
// internal/stream/parallel.go).
func (e *kernel) scatter(p int, sh *stream.Shuffler, stay *stream.StayFile, edgeScan *stream.Scanner[graph.Edge]) (scanned, stayed int64, err error) {
	var written int64
	lo, hi := e.rt.Parts.Interval(p)
	front, visited := e.dir.frontier, e.rt.VisitedBits
	trim := stay != nil
	f := e.filter
	classify := func(edges []graph.Edge, out *stream.Shard) {
		for _, edge := range edges {
			out.Scanned++
			if edge.Src < lo || edge.Src >= hi {
				out.Err = fmt.Errorf("%s: edge %v outside partition [%d,%d)", e.run.Engine, edge, lo, hi)
				return
			}
			if front.Get(edge.Src) {
				f.Emit(out, edge)
			}
			if trim && !visited.Get(edge.Src) {
				out.Stays = append(out.Stays, edge)
				out.Stayed++
			}
		}
	}
	merge := func(s *stream.Shard) error {
		scanned += s.Scanned
		stayed += s.Stayed
		w, err := f.Flush(s, sh)
		written += w
		if err != nil || !trim {
			return err
		}
		return stay.AppendChunk(s.Stays)
	}
	if err := e.pool.RunScanner(edgeScan, classify, merge); err != nil {
		return scanned, stayed, err
	}
	e.rt.Compute(float64(scanned)*e.rt.Costs.ScatterPerEdge +
		float64(written)*e.rt.Costs.AppendPerUpdate +
		float64(stayed)*e.rt.Costs.AppendPerStay)
	return scanned, stayed, nil
}

// drainPending resolves stay files still owned by the writer when the
// run ends (their partitions never scattered again). It waits for each
// background write to settle before discarding, so whether the file was
// published (and then removed) never races with the writer goroutine —
// keeping end-of-run volume contents deterministic.
func (e *kernel) drainPending() {
	for p := range e.parts {
		if f := e.parts[p].pending; f != nil {
			f.Use()
			f.Discard()
			e.parts[p].pending = nil
		}
	}
}
