package xstream

import (
	"context"
	"fmt"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// EngineName identifies X-Stream in metrics and file prefixes.
const EngineName = "xstream"

// Run executes X-Stream BFS over the stored graph graphName on vol.
//
// The loop implements X-Stream's staged scatter/gather: for each
// partition in each iteration, the gather of iteration i and the scatter
// of iteration i+1 run back-to-back on the same loaded vertex set,
// halving vertex-file traffic ("the up-to-date vertices generated in the
// gather phase of last iteration could be immediately used as the input
// for the scatter phase of the next iteration", §III). Two update-stream
// sets alternate roles per iteration so the gather's input is never
// tainted by the scatter's output.
//
// X-Stream streams the full edge set of every partition every iteration
// — it "indiscriminately traverses the whole graph in every iteration to
// exploit sequential disk bandwidth" (§IV-B1). That is the baseline
// behaviour FastBFS improves on.
func Run(vol storage.Volume, graphName string, opts Options) (*Result, error) {
	return RunContext(context.Background(), vol, graphName, opts)
}

// RunContext is Run bound to a cancellation context: the engine polls
// ctx at iteration and partition boundaries and returns an error
// wrapping errs.ErrCancelled once it is done, with every working file
// and stream buffer released.
func RunContext(ctx context.Context, vol storage.Volume, graphName string, opts Options) (*Result, error) {
	opts.SetDefaults(EngineName)
	rt, err := NewRuntimeContext(ctx, vol, graphName, opts)
	if err != nil {
		return nil, err
	}
	defer rt.Cleanup()
	if rt.Meta.Weighted {
		return nil, fmt.Errorf("xstream: BFS takes unweighted graphs; %s is weighted: %w", graphName, errs.ErrBadOptions)
	}
	if rt.InMemory() {
		return RunInMemory(rt, EngineName, nil)
	}
	return runStreaming(rt)
}

func runStreaming(rt *Runtime) (*Result, error) {
	run := metrics.Run{Engine: EngineName, SwitchIteration: -1}
	tr := rt.Tracer()
	ctr := obs.NewEngineCounters(tr)
	pool := rt.NewScatterPool(ctr)
	dir, fellBack, err := rt.ResolveDirection()
	if err != nil {
		return nil, err
	}
	if fellBack {
		run.DirectionFallback = true
		ctr.DirectionFallbacks.Add(1)
	}
	ds := NewDirState(rt, dir)
	ctr.SwitchIteration.Set(-1)
	runSpan := tr.Span("run").Attr("partitions", int64(rt.Parts.P()))
	prep := runSpan.Child("load")
	if _, err := rt.Prepare(); err != nil {
		return nil, err
	}
	prep.Attr("edges", int64(rt.Meta.Edges)).End()
	filter := rt.NewUpdateFilter(ctr)

	maxIter := rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(rt.Meta.Vertices) + 1
	}

	in, out := 0, 1 // update stream set roles, switched per iteration
	var visited uint64
	// Frontier bitmaps for bottom-up iterations (allocated at the first
	// switch): frontier holds the current level's vertices, next
	// collects the level being formed. carryFrontier is the size of a
	// frontier formed by a bottom-up pass, carried into the next
	// iteration's metrics (and the skip-gather scatter).
	var frontier, next *Bitset
	var carryFrontier uint64
	// unvisitedIn tracks each partition's still-unvisited vertex count
	// during a bottom-up streak (recounted by every transition pass):
	// a partition with none can produce no candidate and is skipped
	// wholesale — no vertex load, no reverse scan.
	var unvisitedIn []int64
	prevBottom := false

	for iter := 0; iter < maxIter; iter++ {
		if err := rt.Checkpoint(); err != nil {
			return nil, err
		}
		bottom := ds.Decide(iter)
		if bottom != prevBottom {
			ctr.DirectionSwitches.Add(1)
		}
		itSpan := runSpan.Child("iteration").SetIter(iter)
		ctr.Iteration.Set(int64(iter))

		if bottom {
			if frontier == nil {
				frontier = NewBitset(rt.Meta.Vertices)
				next = NewBitset(rt.Meta.Vertices)
				unvisitedIn = make([]int64, rt.Parts.P())
				ctr.SwitchIteration.Set(int64(ds.SwitchIteration))
			}
			itRow := metrics.Iteration{Index: iter, BottomUp: true}
			if !prevBottom {
				// Transition pass: the previous top-down iteration left
				// update files; gather them normally (forming this
				// level the top-down way) while building its frontier
				// bitmap for the in-edge pass below and recounting each
				// partition's unvisited vertices for the skip rule.
				frontier.Clear()
				var aNewly uint64
				var aDeg float64
				for p := 0; p < rt.Parts.P(); p++ {
					if err := rt.Checkpoint(); err != nil {
						return nil, err
					}
					lds := itSpan.Child("load").SetPart(p)
					v, err := rt.LoadVerts(p)
					lds.End()
					if err != nil {
						return nil, err
					}
					gs := itSpan.Child("gather").SetPart(p)
					newly, applied, err := gather(rt, v, rt.UpdateFile(in, p), uint32(iter))
					gs.Attr("applied", applied).End()
					if err != nil {
						return nil, err
					}
					unvisitedIn[p] = 0
					for i, lv := range v.Level {
						if lv == uint32(iter) {
							vid := v.Lo + graph.VertexID(i)
							frontier.Set(vid)
							aDeg += float64(rt.OutDeg[vid])
						} else if lv == NoLevel {
							unvisitedIn[p]++
						}
					}
					if newly > 0 {
						svs := itSpan.Child("load").SetPart(p)
						err = rt.SaveVerts(p, v)
						svs.End()
						if err != nil {
							return nil, err
						}
					}
					ctr.UpdatesApplied.Add(applied)
					ctr.Visited.Add(int64(newly))
					itRow.NewlyVisited += newly
					itRow.Updates += applied
					aNewly += newly
				}
				visited += aNewly
				ds.RecordFrontier(aNewly, aDeg, true)
				itRow.Frontier = aNewly
			} else {
				itRow.Frontier = carryFrontier
			}

			if !rt.revReady {
				// First bottom-up pass: split the reverse-edge input now
				// — lazy, so a run that never switches pays nothing for
				// it, and late, so the visited filter (which the
				// transition gather just extended) drops as many dead
				// in-edges as possible.
				rs := itSpan.Child("reverse-split")
				if err := rt.EnsureReverse(); err != nil {
					return nil, err
				}
				rs.End()
			}

			next.Clear()
			newly, scanned, skipped, degSum, err := bottomUpPass(rt, pool, ctr, frontier, next, unvisitedIn, uint32(iter), itSpan)
			if err != nil {
				return nil, err
			}
			visited += newly
			ds.RecordFrontier(newly, degSum, true)
			ctr.BottomUpIters.Add(1)
			itRow.SkippedPartitions = skipped
			run.Skipped += skipped
			ctr.Skipped.Add(int64(skipped))
			itRow.NewlyVisited += newly
			itRow.EdgesStreamed += scanned
			carryFrontier = newly
			frontier, next = next, frontier

			run.Iterations = append(run.Iterations, itRow)
			ctr.Frontier.Set(int64(itRow.Frontier))
			ctr.BytesRead.Set(rt.BytesRead)
			ctr.BytesWritten.Set(rt.BytesWritten)
			itSpan.Attr("frontier", int64(itRow.Frontier)).
				Attr("new", int64(itRow.NewlyVisited)).
				Attr("edges", itRow.EdgesStreamed).
				Attr("bottomup", 1).End()
			tr.EmitCounters()
			if !prevBottom && iter > 0 {
				for p := 0; p < rt.Parts.P(); p++ {
					rt.Vol.Remove(rt.UpdateFile(in, p))
				}
			}
			in, out = out, in
			prevBottom = true
			if newly == 0 {
				break
			}
			continue
		}

		// A top-down iteration right after a bottom-up one has no update
		// files to gather: the bottom-up pass already formed this level's
		// frontier in the vertex state.
		skipGather := prevBottom
		prevBottom = false
		filter.Wave = Wave{}
		sh, err := stream.NewShuffler(rt.Vol, rt.Parts, rt.AuxTiming(), rt.Opts.StreamBufSize,
			func(p int) string { return rt.UpdateFile(out, p) })
		if err != nil {
			return nil, err
		}
		sh.SetAsync() // update streams are write-behind with a gather barrier
		itRow := metrics.Iteration{Index: iter}

		for p := 0; p < rt.Parts.P(); p++ {
			if err := rt.Checkpoint(); err != nil {
				sh.Abort()
				return nil, err
			}
			// Open the scatter input ahead of the gather so its
			// read-ahead overlaps the update streaming (the prototype's
			// "several stream buffers for reading edges and writing
			// updates", §III).
			lds := itSpan.Child("load").SetPart(p)
			edgeScan, err := openEdgeScanner(rt, rt.EdgeFile(p))
			if err != nil {
				sh.Abort()
				return nil, err
			}
			var v *Verts
			if iter == 0 {
				v = rt.InitVerts(p)
				if rt.MarkRoot(v) {
					itRow.NewlyVisited++
					visited++
					ctr.Visited.Add(1)
				}
				lds.End()
			} else {
				v, err = rt.LoadVerts(p)
				lds.End()
				if err != nil {
					edgeScan.Close()
					sh.Abort()
					return nil, err
				}
				if !skipGather {
					gs := itSpan.Child("gather").SetPart(p)
					newly, applied, err := gather(rt, v, rt.UpdateFile(in, p), uint32(iter))
					gs.Attr("applied", applied).End()
					if err != nil {
						edgeScan.Close()
						sh.Abort()
						return nil, err
					}
					ctr.UpdatesApplied.Add(applied)
					ctr.Visited.Add(int64(newly))
					itRow.NewlyVisited += newly
					itRow.Updates += applied // updates applied this iteration were generated last iteration
					visited += newly
				}
			}
			// X-Stream scatters every partition unconditionally.
			ss := itSpan.Child("scatter").SetPart(p)
			scanned, emitted, err := scatter(rt, pool, v, edgeScan, uint32(iter), sh, filter, ctr)
			ss.Attr("edges", scanned).Attr("emitted", emitted).End()
			if err != nil {
				sh.Abort()
				return nil, err
			}
			itRow.EdgesStreamed += scanned
			svs := itSpan.Child("load").SetPart(p)
			err = rt.SaveVerts(p, v)
			svs.End()
			if err != nil {
				sh.Abort()
				return nil, err
			}
		}
		itRow.Frontier = itRow.NewlyVisited
		if iter == 0 {
			itRow.Frontier = 1
		}
		if skipGather {
			itRow.Frontier = carryFrontier
		}
		wave := filter.Wave
		itRow.Filtered = wave.Filtered()
		shs := itSpan.Child("shuffle")
		if err := sh.Close(); err != nil {
			return nil, err
		}
		shs.Attr("updates", wave.Written).End()
		rt.BytesWritten += shufflerBytes(sh)
		for p, op := range sh.LastOps() {
			rt.RegisterReady(rt.UpdateFile(out, p), op)
		}
		// The scatter emits one update per frontier out-edge, so the
		// emitted count — taken before the filter — is exactly this
		// frontier's out-degree sum.
		ds.RecordFrontier(itRow.Frontier, float64(wave.Emitted), !skipGather)
		ds.RecordScatter(wave.Emitted, float64(wave.CandDeg))
		run.Iterations = append(run.Iterations, itRow)
		ctr.Frontier.Set(int64(itRow.Frontier))
		ctr.BytesRead.Set(rt.BytesRead)
		ctr.BytesWritten.Set(rt.BytesWritten)
		itSpan.Attr("frontier", int64(itRow.Frontier)).
			Attr("new", int64(itRow.NewlyVisited)).
			Attr("edges", itRow.EdgesStreamed).
			Attr("filtered", itRow.Filtered).End()
		tr.EmitCounters()

		// Delete the consumed update set and switch roles.
		if iter > 0 && !skipGather {
			for p := 0; p < rt.Parts.P(); p++ {
				rt.Vol.Remove(rt.UpdateFile(in, p))
			}
		}
		in, out = out, in

		// Nothing written means nothing to gather: the traversal is done,
		// whatever the frontier still emitted at visited vertices.
		if wave.Written == 0 {
			break
		}
	}
	runSpan.Attr("visited", int64(visited)).End()
	tr.EmitCounters()

	res, err := rt.CollectResult()
	if err != nil {
		return nil, err
	}
	res.Visited = visited
	run.Visited = visited
	run.BottomUpIterations = int(ds.BottomUpIters)
	run.DirectionSwitches = int(ds.Switches)
	run.SwitchIteration = ds.SwitchIteration
	rt.FinishMetrics(&run)
	res.Metrics = run
	return res, nil
}

// bottomUpPass runs one bottom-up iteration over every partition:
// stream the partition's reverse-edge file, and for each still-unvisited
// vertex keep the winning frontier parent (see direction.go for the
// byte-identity winner rule). Newly visited vertices get level iter+1
// and their bits in next. A partition whose unvisited count has reached
// zero is skipped wholesale — it can yield no candidate, so neither its
// vertex file nor its reverse stream is touched — and a scanned
// partition that discovered nothing skips its vertex write-back.
// Classification runs on the pool's workers against read-only vertex
// state; winners are resolved at merge (chunk order) and applied only
// after the pool drains, so the pass is race-free and byte-identical
// for any worker count.
func bottomUpPass(rt *Runtime, pool *stream.ScatterPool, ctr obs.EngineCounters, frontier, next *Bitset, unvisitedIn []int64, iter uint32, itSpan *obs.Span) (newly uint64, scanned int64, skipped int, degSum float64, err error) {
	for p := 0; p < rt.Parts.P(); p++ {
		if err := rt.Checkpoint(); err != nil {
			return newly, scanned, skipped, degSum, err
		}
		if unvisitedIn[p] == 0 {
			skipped++
			continue
		}
		lds := itSpan.Child("load").SetPart(p)
		v, err := rt.LoadVerts(p)
		lds.End()
		if err != nil {
			return newly, scanned, skipped, degSum, err
		}
		bs := itSpan.Child("bottomup").SetPart(p)
		n, sc, dg, err := bottomUpPartition(rt, pool, ctr, v, p, frontier, next, iter)
		bs.Attr("new", int64(n)).Attr("edges", sc).End()
		if err != nil {
			return newly, scanned, skipped, degSum, err
		}
		newly += n
		scanned += sc
		degSum += dg
		unvisitedIn[p] -= int64(n)
		if n > 0 {
			svs := itSpan.Child("load").SetPart(p)
			err = rt.SaveVerts(p, v)
			svs.End()
			if err != nil {
				return newly, scanned, skipped, degSum, err
			}
		}
	}
	return newly, scanned, skipped, degSum, nil
}

// bottomUpPartition scans one partition's reverse-edge file against the
// frontier bitmap. Candidates (unvisited vertex, frontier in-neighbor)
// are routed by the in-neighbor's partition; the merge keeps, per
// vertex, the candidate with the smallest source partition, first seen
// winning ties — exactly the parent top-down's first-update-wins gather
// would have picked.
func bottomUpPartition(rt *Runtime, pool *stream.ScatterPool, ctr obs.EngineCounters, v *Verts, p int, frontier, next *Bitset, iter uint32) (newly uint64, scanned int64, degSum float64, err error) {
	rt.AwaitFile(rt.RevEdgeFile(p))
	sc, err := stream.NewEdgeScanner(rt.Vol, rt.RevEdgeFile(p), rt.MainTiming(), rt.Opts.StreamBufSize)
	if err != nil {
		return 0, 0, 0, err
	}
	defer sc.Close()
	sc.Prefetch(rt.Opts.PrefetchBuffers)
	lo, n := v.Lo, len(v.Level)
	bestPart, bestParent := rt.Winners(n)
	var candidates int64
	classify := func(edges []graph.Edge, out *stream.Shard) {
		for _, r := range edges {
			out.Scanned++
			i := int(r.Src - lo)
			if i < 0 || i >= n {
				out.Err = fmt.Errorf("xstream: reverse edge %v outside partition [%d,%d)", r, lo, int(lo)+n)
				return
			}
			if v.Level[i] == NoLevel && frontier.Get(r.Dst) {
				pu := rt.Parts.Of(r.Dst)
				out.ByPart[pu] = append(out.ByPart[pu], graph.Update{Dst: r.Src, Parent: r.Dst})
				out.Emitted++
			}
		}
	}
	merge := func(s *stream.Shard) error {
		scanned += s.Scanned
		candidates += s.Emitted
		ctr.Edges.Add(s.Scanned)
		for pu, cands := range s.ByPart {
			for _, c := range cands {
				i := int(c.Dst - lo)
				if bestPart[i] < 0 || int32(pu) < bestPart[i] {
					bestPart[i] = int32(pu)
					bestParent[i] = c.Parent
				}
			}
		}
		return nil
	}
	if err := pool.RunScanner(sc, classify, merge); err != nil {
		return newly, scanned, degSum, err
	}
	rt.BytesRead += sc.BytesRead()
	for i := range bestPart {
		if bestPart[i] >= 0 {
			v.Level[i] = iter + 1
			v.Parent[i] = bestParent[i]
			vid := lo + graph.VertexID(i)
			next.Set(vid)
			rt.VisitedBits.Set(vid)
			newly++
			degSum += float64(rt.OutDeg[vid])
		}
	}
	ctr.Visited.Add(int64(newly))
	rt.Compute(float64(scanned)*rt.Costs.ScatterPerEdge +
		float64(candidates)*rt.Costs.GatherPerUpdate +
		float64(newly)*rt.Costs.PerVertex)
	return newly, scanned, degSum, nil
}

// shufflerBytes sums bytes flushed by a shuffler's writers.
func shufflerBytes(sh *stream.Shuffler) int64 {
	var n int64
	for _, c := range sh.BytesPerPartition() {
		n += c
	}
	return n
}

// gather streams partition p's update file and applies updates: an
// unvisited destination becomes visited at `level` with the update's
// parent. Returns (newly visited, updates applied).
func gather(rt *Runtime, v *Verts, updFile string, level uint32) (newly uint64, applied int64, err error) {
	rt.AwaitFile(updFile)
	sc, err := stream.NewUpdateScanner(rt.Vol, updFile, rt.AuxTiming(), rt.Opts.StreamBufSize)
	if err != nil {
		return 0, 0, err
	}
	defer sc.Close()
	sc.Prefetch(rt.Opts.PrefetchBuffers)
	chunk := rt.UpdateChunk()
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
				return newly, applied, fmt.Errorf("xstream: update %v outside partition [%d,%d)", u, v.Lo, int(v.Lo)+len(v.Level))
			}
			if v.Level[i] == NoLevel {
				v.Level[i] = level
				v.Parent[i] = u.Parent
				newly++
				if rt.VisitedBits != nil {
					rt.VisitedBits.Set(u.Dst)
				}
			}
		}
	}
	rt.BytesRead += sc.BytesRead()
	rt.Compute(float64(applied) * rt.Costs.GatherPerUpdate)
	return newly, applied, nil
}

// openEdgeScanner opens an edge input with the configured read-ahead,
// first waiting out the file's write-behind barrier if one is pending.
func openEdgeScanner(rt *Runtime, name string) (*stream.Scanner[graph.Edge], error) {
	rt.AwaitFile(name)
	sc, err := stream.NewEdgeScanner(rt.Vol, name, rt.MainTiming(), rt.Opts.StreamBufSize)
	if err != nil {
		return nil, err
	}
	sc.Prefetch(rt.Opts.PrefetchBuffers)
	return sc, nil
}

// scatter streams a partition's edge input through the worker pool;
// edges whose source is in the current frontier (level == iter) emit an
// update to the destination through the run's update filter.
// Classification (frontier test, visited test, partition routing) runs
// on pool workers; the scanner, the filter's claims and the shuffler's
// writers stay on the engine thread, and shards merge in chunk order, so
// the update files and all accounting are identical for any worker count
// (see internal/stream/parallel.go). The iteration's emitted, written and
// candidate out-degree totals accumulate in f.Wave.
func scatter(rt *Runtime, pool *stream.ScatterPool, v *Verts, sc *stream.Scanner[graph.Edge], iter uint32, sh *stream.Shuffler, f *UpdateFilter, ctr obs.EngineCounters) (scanned, emitted int64, err error) {
	defer sc.Close()
	var written int64
	lo, n := v.Lo, len(v.Level)
	classify := func(edges []graph.Edge, out *stream.Shard) {
		for _, e := range edges {
			out.Scanned++
			i := int(e.Src - lo)
			if i < 0 || i >= n {
				out.Err = fmt.Errorf("xstream: edge %v outside partition [%d,%d)", e, lo, int(lo)+n)
				return
			}
			if v.Level[i] == iter {
				f.Emit(out, e)
			}
		}
	}
	merge := func(s *stream.Shard) error {
		scanned += s.Scanned
		emitted += s.Emitted
		ctr.Edges.Add(s.Scanned)
		w, err := f.Flush(s, sh)
		written += w
		return err
	}
	if err := pool.RunScanner(sc, classify, merge); err != nil {
		return scanned, emitted, err
	}
	rt.BytesRead += sc.BytesRead()
	rt.Compute(float64(scanned)*rt.Costs.ScatterPerEdge + float64(written)*rt.Costs.AppendPerUpdate)
	return scanned, emitted, nil
}

// TrimPolicy is the in-memory path's trimming hook. RunInMemory calls it
// once after every iteration's gather with the current levels; ok asks
// for a trim pass that drops every live edge whose source level is below
// floor. X-Stream passes a nil policy and rescans everything.
type TrimPolicy func(level []uint32) (floor uint32, ok bool)

// loadOneShot builds the single-use PreparedGraph of a run that was not
// handed a resident one (the CLI and library path): the edge load goes
// through the run's own timing, so it is charged to BytesRead and the
// simulation clock exactly like the streaming load it replaces.
func (rt *Runtime) loadOneShot() (*PreparedGraph, error) {
	pg := &PreparedGraph{Meta: rt.Meta, Perm: rt.Perm,
		Budget: rt.Opts.MemoryBudget, Need: InMemoryNeed(rt.Meta)}
	n, err := pg.loadEdges(rt.Vol, rt.MainTiming(), rt.Opts.StreamBufSize)
	if err != nil {
		return nil, err
	}
	rt.BytesRead += n
	return pg, nil
}

// RunInMemory is the fast path when the whole graph fits the memory
// budget: pure in-memory iterations over a PreparedGraph's resident edge
// list (the paper's Fig. 9 cliff at 4 GB). A run handed a resident
// Options.Prepared iterates over the shared list and reads nothing from
// the device; any other run loads a one-shot list first. The shared list
// is never written: the first trim pass copies its survivors into the
// run's scratch and later passes compact that copy in place. engineName
// labels the metrics record.
func RunInMemory(rt *Runtime, engineName string, trim TrimPolicy) (*Result, error) {
	run := metrics.Run{Engine: engineName, SwitchIteration: -1}
	tr := rt.Tracer()
	ctr := obs.NewEngineCounters(tr)
	runSpan := tr.Span("run").Attr("in_memory", 1)
	lds := runSpan.Child("load")
	pg := rt.Opts.Prepared
	if !pg.Resident() {
		var err error
		if pg, err = rt.loadOneShot(); err != nil {
			return nil, err
		}
	}
	ctr.BytesRead.Set(rt.BytesRead)
	lds.Attr("edges", int64(len(pg.edges))).End()

	scratch := rt.scratch
	// edges is the live edge list. A shared list stays untouched: its
	// first trim pass moves the survivors into scratch (private from then
	// on). A one-shot list is this run's alone and is compacted in place
	// from the first pass.
	edges, private := pg.edges, pg != rt.Opts.Prepared
	updates := scratch.Updates[:0]
	defer func() { scratch.Updates = updates }()

	level := make([]uint32, rt.Meta.Vertices)
	parent := make([]graph.VertexID, rt.Meta.Vertices)
	for i := range level {
		level[i] = NoLevel
		parent[i] = graph.NoVertex
	}
	rt.Compute(float64(rt.Meta.Vertices) * rt.Costs.PerVertex)
	level[rt.Opts.Root] = 0
	parent[rt.Opts.Root] = rt.Opts.Root
	visited := uint64(1)
	ctr.Visited.Add(1)

	maxIter := rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(rt.Meta.Vertices) + 1
	}
	// The in-memory path has no destination partitions to route by, so
	// the pool's shards hold a single slot; chunk-order merge still
	// reproduces the sequential update order exactly.
	pool := scratch.ScatterPool(rt.Opts.ScatterWorkers, rt.Opts.StreamBufSize/graph.EdgeBytes, 1)
	pool.ChunkCounter = ctr.ScatterChunks
	pool.BusyCounter = ctr.ScatterBusyNs
	pool.FaultHook = rt.Opts.FaultHook
	ctr.ScatterWorkers.Set(int64(pool.Workers()))
	for iter := uint32(0); int(iter) < maxIter; iter++ {
		if err := rt.Checkpoint(); err != nil {
			return nil, err
		}
		itSpan := runSpan.Child("iteration").SetIter(int(iter))
		ctr.Iteration.Set(int64(iter))
		itRow := metrics.Iteration{Index: int(iter), Frontier: 0}
		ss := itSpan.Child("scatter")
		updates = updates[:0]
		err := pool.RunSlice(edges, func(chunk []graph.Edge, out *stream.Shard) {
			for _, e := range chunk {
				if level[e.Src] == iter {
					out.ByPart[0] = append(out.ByPart[0], graph.Update{Dst: e.Dst, Parent: e.Src})
				}
			}
		}, func(s *stream.Shard) error {
			updates = append(updates, s.ByPart[0]...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		itRow.EdgesStreamed = int64(len(edges))
		ctr.Edges.Add(int64(len(edges)))
		ctr.UpdatesEmitted.Add(int64(len(updates)))
		rt.RAMScan(int64(len(edges)) * graph.EdgeBytes)
		rt.Compute(float64(len(edges))*rt.Costs.ScatterPerEdge + float64(len(updates))*rt.Costs.AppendPerUpdate)
		ss.Attr("edges", int64(len(edges))).Attr("emitted", int64(len(updates))).End()
		gs := itSpan.Child("gather")
		var newly uint64
		for _, u := range updates {
			if level[u.Dst] == NoLevel {
				level[u.Dst] = iter + 1
				parent[u.Dst] = u.Parent
				newly++
			}
		}
		rt.Compute(float64(len(updates)) * rt.Costs.GatherPerUpdate)
		gs.Attr("applied", int64(len(updates))).End()
		ctr.UpdatesApplied.Add(int64(len(updates)))
		ctr.Visited.Add(int64(newly))
		visited += newly
		itRow.Updates = int64(len(updates))
		itRow.NewlyVisited = newly
		if trim != nil {
			ts := itSpan.Child("stay-write")
			before := len(edges)
			if floor, ok := trim(level); ok {
				live := edges[:0]
				if !private {
					live, private = scratch.Survivors(before), true
				}
				for _, e := range edges {
					if level[e.Src] >= floor {
						live = append(live, e)
					}
				}
				edges = live
			}
			kept := len(edges)
			itRow.StayEdges = int64(kept)
			itRow.TrimActive = true
			run.TrimmedEdges += int64(before - kept)
			rt.Compute(float64(before) * rt.Costs.AppendPerStay)
			ts.Attr("stay_edges", int64(kept)).End()
			ctr.StayEdges.Add(int64(kept))
		}
		run.Iterations = append(run.Iterations, itRow)
		ctr.Frontier.Set(int64(newly))
		itSpan.Attr("frontier", int64(itRow.Frontier)).
			Attr("new", int64(newly)).
			Attr("edges", itRow.EdgesStreamed).End()
		tr.EmitCounters()
		if len(updates) == 0 {
			break
		}
	}
	runSpan.Attr("visited", int64(visited)).End()
	tr.EmitCounters()

	res := &Result{Levels: level, Parents: parent, Visited: visited}
	rt.TranslateResult(res)
	run.Visited = visited
	rt.FinishMetrics(&run)
	res.Metrics = run
	return res, nil
}
