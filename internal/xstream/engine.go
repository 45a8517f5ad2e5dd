package xstream

import (
	"context"

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
// The loop (kernel.go, under the zero Policy) implements X-Stream's
// staged scatter/gather: for each
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
	return RunPolicy(ctx, vol, graphName, EngineName, opts, Policy{})
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
