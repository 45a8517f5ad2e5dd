package xstream

import (
	"context"

	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
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
// budget (the paper's Fig. 9 cliff at 4 GB). A run handed a resident
// Options.Prepared traverses its out- and in-lists (runIndexed) and reads
// nothing from the device. Any other run — the CLI, the library — loads
// the out-lists alone (loadCSR) and, at every level, walks the sources in
// id order and scatters the list of each one at that level: an in-half
// costs a pass over the lists, which a run used once never repays. The
// out-lists are the stored edge list in stored order, so the first update
// to reach a vertex comes from its earliest stored in-edge, and it wins.
// Of the policy only trimming applies, and only to the record: an
// iteration the trim threshold admits drops, after its gather, every edge
// whose source is already visited, which is every edge a level up to this
// one scattered — the list a later level would scan is E less the
// updates emitted so far.
func (e *kernel) runInMemory() (*Result, error) {
	rt := e.rt
	if pg := rt.Opts.Prepared; pg.Resident() {
		return e.runIndexed(pg.g, DirectionAuto)
	}
	runSpan := e.tr.Span("run").Attr("in_memory", 1)
	lds := runSpan.Child("load")
	// Loaded through the run's own timing, so the lists are charged to the
	// main disk exactly like the streaming load they replace.
	g, _, err := loadCSR(rt.Vol, rt.Meta, rt.MainTiming(), rt.Opts.StreamBufSize)
	if err != nil {
		return nil, err
	}
	lds.Attr("edges", int64(len(g.out))).End()

	level, parent := e.plantRoot()

	maxIter := rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(rt.Meta.Vertices) + 1
	}
	frontier := uint64(1) // the vertices at level iter: what iteration iter scatters
	live, emitted := int64(len(g.out)), int64(0)
	for iter := uint32(0); int(iter) < maxIter; iter++ {
		if err := rt.Checkpoint(); err != nil {
			return nil, err
		}
		if rt.Opts.FaultHook != nil {
			rt.Opts.FaultHook() // same chaos seam as a scatter chunk
		}
		itSpan := runSpan.Child("iteration").SetIter(int(iter))
		itRow := metrics.Iteration{Index: int(iter), Frontier: frontier, EdgesStreamed: live}
		ss := itSpan.Child("scatter")
		for u, l := range level {
			if l != iter {
				continue
			}
			list := g.out[g.outOff[u]:g.outOff[u+1]]
			itRow.Updates += int64(len(list))
			for _, v := range list {
				if level[v] == NoLevel {
					level[v], parent[v] = iter+1, graph.VertexID(u)
					itRow.NewlyVisited++
				}
			}
		}
		emitted += itRow.Updates
		rt.RAMScan(itRow.EdgesStreamed * graph.EdgeBytes)
		rt.Compute(float64(live)*rt.Costs.ScatterPerEdge + float64(itRow.Updates)*rt.Costs.AppendPerUpdate)
		ss.Attr("edges", itRow.EdgesStreamed).Attr("emitted", itRow.Updates).End()
		gs := itSpan.Child("gather")
		rt.Compute(float64(itRow.Updates) * rt.Costs.GatherPerUpdate)
		gs.Attr("applied", itRow.Updates).End()
		e.run.Visited += itRow.NewlyVisited
		frontier = itRow.NewlyVisited
		if e.pol.TrimActive(int(iter), e.run.Visited, rt.Meta.Vertices, UnknownEdges, UnknownEdges) {
			ts := itSpan.Child("stay-write")
			live = int64(len(g.out)) - emitted
			itRow.StayEdges = live
			itRow.TrimActive = true
			e.run.TrimmedEdges += itRow.EdgesStreamed - itRow.StayEdges
			rt.Compute(float64(itRow.EdgesStreamed) * rt.Costs.AppendPerStay)
			ts.Attr("stay_edges", itRow.StayEdges).End()
		}
		e.endIteration(itRow, itSpan)
		if itRow.Updates == 0 {
			break
		}
	}
	return e.finishTree(runSpan, level, parent)
}

// plantRoot makes an in-memory run's result arrays — all a warmed
// resident query allocates — with nothing visited but the root, at level
// 0 and its own parent.
func (e *kernel) plantRoot() (level []uint32, parent []graph.VertexID) {
	rt := e.rt
	level = make([]uint32, rt.Meta.Vertices)
	parent = make([]graph.VertexID, rt.Meta.Vertices)
	for i := range level {
		level[i] = NoLevel
		parent[i] = graph.NoVertex
	}
	rt.Compute(float64(rt.Meta.Vertices) * rt.Costs.PerVertex)
	level[rt.Opts.Root], parent[rt.Opts.Root] = 0, rt.Opts.Root
	e.run.Visited = 1
	return level, parent
}

// finishTree ends an in-memory run: the arrays it worked on are the
// answer, once translated back to the caller's vertex labels.
func (e *kernel) finishTree(runSpan *obs.Span, level []uint32, parent []graph.VertexID) (*Result, error) {
	return e.finish(runSpan, func() (*Result, error) {
		res := &Result{Levels: level, Parents: parent}
		e.rt.TranslateResult(res)
		return res, nil
	})
}

// runIndexed is the in-memory path over a resident graph's adjacency
// index: a BFS from the run's root that examines only the adjacency it
// needs. A top-down level expands the frontier queue's out-lists; a
// bottom-up level scans each unvisited vertex's in-list against a bitmap
// of the frontier and stops at the first hit. conf is the direction
// policy — DirectionAuto for every real run, which picks per level by α
// and β on the exact frontier out-degree and unvisited in-degree sums
// (DirState.DecideExact); the pure policies are the tests' seam. One
// goroutine per run: the daemon's concurrency is across queries.
//
// Levels, parents and the row sequence are the one-shot run's. Its
// parent rule is first update wins, which picks the frontier in-neighbour
// whose edge sits earliest in the stored list; a vertex's in-list keeps
// stored order, so the first frontier vertex in it is that neighbour in
// either direction.
func (e *kernel) runIndexed(ix *csr, conf Direction) (*Result, error) {
	rt := e.rt
	runSpan := e.tr.Span("run").Attr("in_memory", 1).Attr("indexed", 1)
	level, parent := e.plantRoot()
	root := rt.Opts.Root

	scratch := rt.scratch
	frontier, next := append(scratch.queue[0][:0], root), scratch.queue[1]
	defer func() { scratch.queue = [2][]graph.VertexID{frontier, next} }()
	bits := &Bitset{w: scratch.Bitmap(len(level))}
	e.ds = NewDirState(rt, conf)
	// What the heuristic weighs: the out-degree sum of the frontier, all a
	// top-down level can expand, and the in-degree sum of the unvisited
	// vertices, all a bottom-up one can scan.
	frontierOut, unvisitedIn := ix.outDeg(root), rt.Meta.Edges-ix.inDeg(root)

	maxIter := rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(rt.Meta.Vertices) + 1
	}
	for iter := uint32(0); int(iter) < maxIter; iter++ {
		if err := rt.Checkpoint(); err != nil {
			return nil, err
		}
		if rt.Opts.FaultHook != nil {
			rt.Opts.FaultHook() // same chaos seam as a scatter chunk
		}
		itSpan := runSpan.Child("iteration").SetIter(int(iter))
		itRow := metrics.Iteration{Index: int(iter), Frontier: uint64(len(frontier))}
		if frontierOut == 0 {
			// Nothing leaves the frontier. The one-shot run learns that
			// from a level that emits no update; this is that closing row.
			e.endIteration(itRow, itSpan)
			break
		}
		itRow.BottomUp = e.ds.DecideExact(int(iter), itRow.Frontier, frontierOut, rt.Meta.Vertices-e.run.Visited, unvisitedIn)
		var examined uint64
		if itRow.BottomUp {
			ls := itSpan.Child("bottomup")
			next, examined = ix.bottomUp(frontier, next[:0], bits, level, parent, iter)
			ls.End()
		} else {
			ls := itSpan.Child("scatter")
			next, examined = ix.topDown(frontier, next[:0], level, parent, iter)
			ls.End()
		}
		itRow.EdgesStreamed = int64(examined)
		itRow.NewlyVisited = uint64(len(next))
		frontierOut = 0
		for _, v := range next {
			frontierOut += ix.outDeg(v)
			unvisitedIn -= ix.inDeg(v)
		}
		frontier, next = next, frontier
		e.run.Visited += itRow.NewlyVisited
		rt.RAMScan(itRow.EdgesStreamed * 4) // each entry charged as a vertex ID
		rt.Compute(float64(examined)*rt.Costs.ScatterPerEdge + float64(itRow.NewlyVisited)*rt.Costs.GatherPerUpdate)
		e.endIteration(itRow, itSpan)
	}
	return e.finishTree(runSpan, level, parent)
}
