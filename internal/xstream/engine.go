package xstream

import (
	"context"

	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
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

// runInMemory is the fast path when the whole graph fits the memory
// budget: pure in-memory iterations over a PreparedGraph's resident edge
// list (the paper's Fig. 9 cliff at 4 GB). A run handed a resident
// Options.Prepared iterates over the shared list and reads nothing from
// the device; any other run loads a one-shot list first. Of the policy
// only trimming applies: an iteration the trim threshold admits drops,
// after its gather, every edge whose source is already visited — level
// below the next frontier's; NoLevel is the maximum uint32, so "keep iff
// level[src] > iter" keeps exactly the unvisited and just-discovered
// sources. The shared list is never written: the first trim pass copies
// its survivors into the run's scratch and later passes compact that copy
// in place.
func (e *kernel) runInMemory() (*Result, error) {
	rt := e.rt
	runSpan := e.tr.Span("run").Attr("in_memory", 1)
	lds := runSpan.Child("load")
	pg := rt.Opts.Prepared
	if !pg.Resident() {
		// The CLI and library path: a single-use list, loaded through the
		// run's own timing, so it is charged to BytesRead and the simulation
		// clock exactly like the streaming load it replaces.
		pg = &PreparedGraph{Meta: rt.Meta, Perm: rt.Perm, Budget: rt.Opts.MemoryBudget, Need: InMemoryNeed(rt.Meta)}
		n, err := pg.loadEdges(rt.Vol, rt.MainTiming(), rt.Opts.StreamBufSize)
		if err != nil {
			return nil, err
		}
		rt.BytesRead += n
	}
	e.ctr.BytesRead.Set(rt.BytesRead)
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
	e.run.Visited = 1
	e.ctr.Visited.Add(1)

	maxIter := rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(rt.Meta.Vertices) + 1
	}
	frontier := uint64(1) // the vertices at level iter: what iteration iter scatters
	for iter := uint32(0); int(iter) < maxIter; iter++ {
		if err := rt.Checkpoint(); err != nil {
			return nil, err
		}
		itSpan := runSpan.Child("iteration").SetIter(int(iter))
		e.ctr.Iteration.Set(int64(iter))
		itRow := metrics.Iteration{Index: int(iter), Frontier: frontier, EdgesStreamed: int64(len(edges))}
		ss := itSpan.Child("scatter")
		updates = updates[:0]
		// Chunk-order merge reproduces the sequential update order exactly.
		err := e.pool.RunSlice(edges, func(chunk []graph.Edge, out *stream.Shard) {
			for _, edge := range chunk {
				if level[edge.Src] == iter {
					out.ByPart[0] = append(out.ByPart[0], graph.Update{Dst: edge.Dst, Parent: edge.Src})
				}
			}
		}, func(s *stream.Shard) error {
			updates = append(updates, s.ByPart[0]...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		itRow.Updates = int64(len(updates))
		e.ctr.Edges.Add(itRow.EdgesStreamed)
		e.ctr.UpdatesEmitted.Add(itRow.Updates)
		rt.RAMScan(itRow.EdgesStreamed * graph.EdgeBytes)
		rt.Compute(float64(len(edges))*rt.Costs.ScatterPerEdge + float64(len(updates))*rt.Costs.AppendPerUpdate)
		ss.Attr("edges", itRow.EdgesStreamed).Attr("emitted", itRow.Updates).End()
		gs := itSpan.Child("gather")
		for _, u := range updates {
			if level[u.Dst] == NoLevel {
				level[u.Dst] = iter + 1
				parent[u.Dst] = u.Parent
				itRow.NewlyVisited++
			}
		}
		rt.Compute(float64(len(updates)) * rt.Costs.GatherPerUpdate)
		gs.Attr("applied", itRow.Updates).End()
		e.ctr.UpdatesApplied.Add(itRow.Updates)
		e.ctr.Visited.Add(int64(itRow.NewlyVisited))
		e.run.Visited += itRow.NewlyVisited
		frontier = itRow.NewlyVisited
		if e.pol.TrimActive(int(iter), e.run.Visited, rt.Meta.Vertices) {
			ts := itSpan.Child("stay-write")
			live := edges[:0]
			if !private {
				live, private = scratch.Survivors(len(edges)), true
			}
			for _, edge := range edges {
				if level[edge.Src] > iter {
					live = append(live, edge)
				}
			}
			edges = live
			itRow.StayEdges = int64(len(edges))
			itRow.TrimActive = true
			e.run.TrimmedEdges += itRow.EdgesStreamed - itRow.StayEdges
			rt.Compute(float64(itRow.EdgesStreamed) * rt.Costs.AppendPerStay)
			ts.Attr("stay_edges", itRow.StayEdges).End()
			e.ctr.StayEdges.Add(itRow.StayEdges)
		}
		e.endIteration(itRow, itSpan)
		if len(updates) == 0 {
			break
		}
	}
	return e.finish(runSpan, func() (*Result, error) {
		res := &Result{Levels: level, Parents: parent}
		rt.TranslateResult(res)
		return res, nil
	})
}
