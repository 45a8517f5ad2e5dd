// Package algo generalizes the edge-centric machinery to algorithms beyond
// BFS — the FastBFS paper's stated future work ("we intend to support more
// algorithms based on graph traversals", §VI).
//
// The engine is one BSP loop. Vertex state is an opaque 8-byte value whose
// meaning belongs to the Program, so BFS, connected components, PageRank,
// SSSP and multi-source reachability share it without type machinery. The
// values stay in RAM, two arrays from the run's scratch: an iteration
// scatters from the values it started with and folds each update straight
// into the next ones, in stored-edge order. Only the edges move. Out of
// core the loop reads the stored edge file once an iteration
// (xstream.ScanStored); over a resident xstream.PreparedGraph it walks the
// shared out-lists instead. Neither writes a working file.
package algo

import (
	"context"

	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Program defines an edge-centric vertex program over packed 8-byte
// vertex values and 8-byte update payloads.
type Program interface {
	// Name labels the program in metrics.
	Name() string
	// Init returns vertex v's initial value.
	Init(v graph.VertexID) uint64
	// Scatter inspects a source vertex's value when streaming one of its
	// out-edges in iteration iter, optionally emitting an update payload
	// for the destination. weight is the edge weight (1 for unweighted
	// graphs).
	Scatter(iter int, src graph.VertexID, srcVal uint64, dst graph.VertexID, weight float32) (payload uint64, emit bool)
	// BeginGather transforms a vertex value before updates are applied
	// in an iteration (e.g. zeroing a PageRank accumulator).
	BeginGather(iter int, val uint64) uint64
	// Apply folds one update payload into a vertex value, reporting
	// whether the value changed.
	Apply(iter int, val uint64, payload uint64) (uint64, bool)
	// EndGather transforms a vertex value after all updates of an
	// iteration were applied (e.g. PageRank's damping step). changed
	// reports whether the value differs meaningfully from the start of
	// the iteration; it feeds convergence detection.
	EndGather(iter int, val uint64) (uint64, bool)
	// Converged decides whether to stop after an iteration in which
	// `changes` vertex values changed and `emitted` updates were sent.
	Converged(iter int, changes uint64, emitted int64) bool
}

// DstApplier is an optional Program extension for programs that need
// the destination vertex when folding an update — BatchBFS records
// per-root parent trees in side arrays indexed by the vertex, which
// the packed 8-byte value cannot carry. When a Program implements it,
// the gather pass calls ApplyTo instead of Apply, with the same
// deterministic update order and value/changed contract.
type DstApplier interface {
	ApplyTo(iter int, dst graph.VertexID, val uint64, payload uint64) (uint64, bool)
}

// SourceFilter is an optional Program extension for programs whose
// Scatter emits only from vertices in a recognisable state — a BFS
// frontier, a distance or label that has just improved. Active reports
// whether a vertex holding val can emit in iteration iter; false
// promises Scatter returns emit == false for every out-edge of that
// vertex. The engine keeps the answers on a bitmap of one bit per vertex,
// small enough to stay in the nearest cache, and skips the edges of
// inactive sources without reading their values; Scatter still decides
// every edge of an active source, so no result and no count changes.
type SourceFilter interface {
	Active(iter int, val uint64) bool
}

// Result of a program run: the final packed value per vertex.
type Result struct {
	Values  []uint64
	Metrics metrics.Run
}

// Run executes a Program over a stored graph (see RunContext).
func Run(vol storage.Volume, graphName string, prog Program, opts xstream.Options) (*Result, error) {
	return RunContext(context.Background(), vol, graphName, prog, opts)
}

// RunContext is Run with a cancellation context: ctx is polled at every
// iteration and, out of core, at every chunk of the edge file, and a
// cancelled run returns errs.ErrCancelled with its scratch back on the
// free-list.
//
// An iteration scatters from cur, the values it started with, and folds
// every update into next, which BeginGather seeded, in stored-edge order:
// the source-sorted edge file streamed in place, or the resident out-lists
// walked source by source in id order, the same sequence. Each vertex
// therefore sees its updates in one order whatever the regime, the buffer
// size or Options.Partitions, which changes nothing here. The shared
// lists are only read; the two value arrays and the SourceFilter bitmap
// come from the run's scratch, 16 B and a bit a vertex outside the
// modelled budget, like the BFS kernel's tree.
func RunContext(ctx context.Context, vol storage.Volume, graphName string, prog Program, opts xstream.Options) (*Result, error) {
	opts.SetDefaults("algo_" + prog.Name())
	rt, err := xstream.NewRuntimeContext(ctx, vol, graphName, opts)
	if err != nil {
		return nil, err
	}
	defer rt.Cleanup()

	run := metrics.Run{Engine: prog.Name()}

	// Active reads a packed value, never a vertex id, so the filter is the
	// caller's program's own: taken before the relabelling wrapper.
	filter, _ := prog.(SourceFilter)
	if rt.Perm != nil {
		// Reordered dataset: translate every vertex id crossing the
		// Program boundary back to original labels (see permProgram).
		prog = newPermProgram(prog, rt.Perm)
	}

	applyTo := func(iter int, dst graph.VertexID, val, payload uint64) (uint64, bool) {
		return prog.Apply(iter, val, payload)
	}
	if da, ok := prog.(DstApplier); ok {
		applyTo = da.ApplyTo
	}

	// The resident out-lists, or nil: stream the stored file.
	var off []uint64
	var dsts []graph.VertexID
	var weights []float32
	pg := rt.Opts.Prepared
	resident := pg.Resident() && rt.InMemory()
	if resident {
		off, dsts, weights = pg.Out()
	}
	scratch := rt.Scratch()
	cur, next := scratch.ValuePair(int(rt.Meta.Vertices))
	for v := range cur {
		cur[v] = prog.Init(graph.VertexID(v))
	}
	var active []uint64 // nil without a filter; else bit v = cur[v] can emit
	if filter != nil {
		active = scratch.Bitmap(len(cur))
	}

	E := int64(rt.Meta.Edges)
	maxIter := rt.IterationCap()
	for iter := 0; iter < maxIter; iter++ {
		if err := rt.Checkpoint(); err != nil {
			return nil, err
		}
		if rt.Opts.FaultHook != nil {
			// The chaos seam the streaming engines expose through their
			// scatter pools. A panicking hook unwinds through the deferred
			// rt.Cleanup and is recovered by the serving layer's per-query
			// isolation.
			rt.Opts.FaultHook()
		}
		for v, val := range cur {
			next[v] = prog.BeginGather(iter, val)
		}
		for w := range active {
			var bits uint64
			for b, val := range cur[w*64 : min(w*64+64, len(cur))] {
				if filter.Active(iter, val) {
					bits |= 1 << uint(b)
				}
			}
			active[w] = bits
		}
		var emitted int64
		weight := float32(1)
		if resident {
			for u, val := range cur {
				if active != nil && active[u>>6]&(1<<(u&63)) == 0 {
					continue
				}
				for i := off[u]; i < off[u+1]; i++ {
					if weights != nil {
						weight = weights[i]
					}
					v := dsts[i]
					if payload, emit := prog.Scatter(iter, graph.VertexID(u), val, v, weight); emit {
						next[v], _ = applyTo(iter, v, next[v], payload)
						emitted++
					}
				}
			}
			// What a resident iteration is charged for the edges: a scan
			// of the list, whatever the program.
			rt.RAMScan(int64(len(dsts))*graph.EdgeBytes + int64(len(weights))*4)
		} else if _, err := xstream.ScanStored(rt.Vol, rt.Meta, rt.MainTiming(), rt.Opts.StreamBufSize, rt.Scratch(),
			func(es []graph.Edge, ws []float32) error {
				for i, e := range es {
					if active != nil && active[e.Src>>6]&(1<<(e.Src&63)) == 0 {
						continue
					}
					if ws != nil {
						weight = ws[i]
					}
					if payload, emit := prog.Scatter(iter, e.Src, cur[e.Src], e.Dst, weight); emit {
						next[e.Dst], _ = applyTo(iter, e.Dst, next[e.Dst], payload)
						emitted++
					}
				}
				return rt.Checkpoint()
			}); err != nil {
			return nil, err
		}
		var changes uint64
		for v, val := range next {
			nv, changed := prog.EndGather(iter, val)
			next[v] = nv
			if changed {
				changes++
			}
		}
		cur, next = next, cur
		rt.Compute(float64(E)*rt.Costs.ScatterPerEdge + float64(emitted)*rt.Costs.AppendPerUpdate +
			float64(emitted)*rt.Costs.GatherPerUpdate + float64(len(cur))*rt.Costs.PerVertex)
		run.Iterations = append(run.Iterations, metrics.Iteration{
			Index: iter, EdgesStreamed: E, Updates: emitted, NewlyVisited: changes})
		if prog.Converged(iter, changes, emitted) {
			break
		}
	}

	res := &Result{}
	if rt.Perm != nil {
		res.Values = graph.ReindexByPerm(rt.Perm, cur)
	} else {
		res.Values = append([]uint64(nil), cur...)
	}
	rt.FinishMetrics(&run)
	res.Metrics = run
	return res, nil
}
