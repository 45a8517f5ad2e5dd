// Package algo generalizes the edge-centric out-of-core machinery to
// algorithms beyond BFS — the FastBFS paper's stated future work ("we
// intend to support more algorithms based on graph traversals", §VI).
//
// The engine here is a plain (non-staged) X-Stream-style BSP loop: one
// full scatter pass over every partition's edges, then one full gather
// pass applying shuffled updates. Vertex state is an opaque 8-byte value
// whose meaning belongs to the Program; this keeps the on-disk format
// fixed while supporting BFS, connected components, PageRank and
// multi-source reachability without type machinery.
//
// A run handed a resident xstream.PreparedGraph under an in-memory
// budget runs the same loop in RAM instead (runResident).
package algo

import (
	"context"
	"encoding/binary"
	"fmt"

	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
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
// vertex. The in-memory regime keeps the answers on a bitmap of one bit
// per vertex and skips the edges of inactive sources without loading
// their values; Scatter still decides every edge of an active source,
// so no result and no count changes.
type SourceFilter interface {
	Active(iter int, val uint64) bool
}

// update is the on-disk update record: destination plus payload.
const updateRecBytes = 12

type updRec struct {
	dst     graph.VertexID
	payload uint64
}

func putUpdRec(b []byte, u updRec) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(u.dst))
	binary.LittleEndian.PutUint64(b[4:12], u.payload)
}

func getUpdRec(b []byte) updRec {
	return updRec{
		dst:     graph.VertexID(binary.LittleEndian.Uint32(b[0:4])),
		payload: binary.LittleEndian.Uint64(b[4:12]),
	}
}

// Result of a program run: the final packed value per vertex.
type Result struct {
	Values  []uint64
	Metrics metrics.Run
}

// Run executes a Program over a stored graph with X-Stream-style
// out-of-core streaming.
func Run(vol storage.Volume, graphName string, prog Program, opts xstream.Options) (*Result, error) {
	return RunContext(context.Background(), vol, graphName, prog, opts)
}

// RunContext is Run with a cancellation context: ctx is checked at
// iteration and partition boundaries in both the scatter and gather
// passes, and a cancelled run aborts its open update writers so no
// working files or stream buffers are left behind.
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

	if rt.Opts.Prepared.Resident() && rt.InMemory() {
		return runResident(rt, rt.Opts.Prepared, prog, filter, applyTo, run)
	}

	P := rt.Parts.P()
	vertexFile := func(p int) string { return fmt.Sprintf("%s_val_%d", rt.Opts.FilePrefix, p) }
	updFile := func(set, p int) string { return fmt.Sprintf("%s_u%d_%d", rt.Opts.FilePrefix, set, p) }
	edgeFile := func(p int) string { return fmt.Sprintf("%s_we_%d", rt.Opts.FilePrefix, p) }

	// NextChunk targets that divide the stream buffer: a chunk never
	// straddles a refill, so every device read stays where reading record
	// by record put it among the writes around it.
	wedges := make([]graph.WEdge, rt.ChunkLen(graph.WEdgeBytes))
	upds := make([]updRec, rt.ChunkLen(updateRecBytes))

	// Prepare: split the stored graph into per-partition weighted edge
	// files. Unweighted inputs get unit weights, so every Program runs
	// on either representation.
	if err := prepareWeighted(rt, edgeFile, wedges); err != nil {
		return nil, err
	}

	loadVals := func(p int) ([]uint64, error) {
		sc, err := stream.NewScanner(rt.Vol, vertexFile(p), rt.MainTiming(), rt.Opts.StreamBufSize, 8,
			func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) })
		if err != nil {
			return nil, err
		}
		defer sc.Close()
		vals := make([]uint64, rt.Parts.Size(p))
		n, err := sc.NextChunk(vals)
		if err != nil {
			return nil, err
		}
		if n < len(vals) {
			return nil, fmt.Errorf("algo: value file %s truncated", vertexFile(p))
		}
		return vals, nil
	}
	saveVals := func(p int, vals []uint64) error {
		w, err := stream.NewWriter(rt.Vol, vertexFile(p), rt.MainTiming(), rt.Opts.StreamBufSize, 8,
			func(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) })
		if err != nil {
			return err
		}
		if err := w.AppendChunk(vals); err != nil {
			w.Abort()
			return err
		}
		return w.Close()
	}

	// Initialize vertex values (partition 0 is a widest).
	initial := make([]uint64, rt.Parts.Size(0))
	for p := 0; p < P; p++ {
		lo, hi := rt.Parts.Interval(p)
		vals := initial[:hi-lo]
		for i := range vals {
			vals[i] = prog.Init(lo + graph.VertexID(i))
		}
		if err := saveVals(p, vals); err != nil {
			return nil, err
		}
	}

	maxIter := rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(rt.Meta.Vertices) + 1
	}

	// scatterPass streams every partition's edges once, shuffling what the
	// program emits into iteration iter's update files. Whatever writer is
	// still open when it returns — a cancelled or failed pass, a panicking
	// FaultHook — is aborted, so no early exit leaves a half-written update
	// file or a stream buffer behind.
	scatterPass := func(iter int, itRow *metrics.Iteration) (emitted int64, err error) {
		shuf, err := stream.OpenWriterSet(rt.Vol, P, func(p int) string { return updFile(0, p) },
			func(name string) (*stream.Writer[updRec], error) {
				return stream.NewWriter(rt.Vol, name, rt.AuxTiming(), rt.Opts.StreamBufSize, updateRecBytes, putUpdRec)
			})
		if err != nil {
			return 0, err
		}
		defer shuf.Abort()
		w := shuf.W
		for p := 0; p < P; p++ {
			if err := rt.Checkpoint(); err != nil {
				return 0, err
			}
			if rt.Opts.FaultHook != nil {
				// The chaos seam the streaming engines expose through their
				// scatter pools; the algo engine scatters serially, so the
				// hook fires here. A panicking hook unwinds through the
				// deferred rt.Cleanup (working files removed) and is
				// recovered by the serving layer's per-query isolation.
				rt.Opts.FaultHook()
			}
			vals, err := loadVals(p)
			if err != nil {
				return 0, err
			}
			lo, _ := rt.Parts.Interval(p)
			sc, err := stream.NewScanner(rt.Vol, edgeFile(p), rt.MainTiming(), rt.Opts.StreamBufSize, graph.WEdgeBytes, graph.GetWEdge)
			if err != nil {
				return 0, err
			}
			sc.Prefetch(rt.Opts.PrefetchBuffers)
			var scanned int64
			for {
				n, err := sc.NextChunk(wedges)
				if err != nil {
					sc.Close()
					return 0, err
				}
				if n == 0 {
					break
				}
				scanned += int64(n)
				for _, e := range wedges[:n] {
					payload, emit := prog.Scatter(iter, e.Src, vals[int(e.Src-lo)], e.Dst, e.Weight)
					if emit {
						if err := w[rt.Parts.Of(e.Dst)].Append(updRec{dst: e.Dst, payload: payload}); err != nil {
							sc.Close()
							return 0, err
						}
						emitted++
					}
				}
			}
			sc.Close()
			rt.Compute(float64(scanned)*rt.Costs.ScatterPerEdge + float64(emitted)*rt.Costs.AppendPerUpdate)
			itRow.EdgesStreamed += scanned
		}
		return emitted, shuf.Close()
	}

	for iter := 0; iter < maxIter; iter++ {
		if err := rt.Checkpoint(); err != nil {
			return nil, err
		}
		itRow := metrics.Iteration{Index: iter}
		emitted, err := scatterPass(iter, &itRow)
		if err != nil {
			return nil, err
		}
		itRow.Updates = emitted

		// Gather pass.
		var changes uint64
		for p := 0; p < P; p++ {
			if err := rt.Checkpoint(); err != nil {
				return nil, err
			}
			vals, err := loadVals(p)
			if err != nil {
				return nil, err
			}
			lo, _ := rt.Parts.Interval(p)
			for i := range vals {
				vals[i] = prog.BeginGather(iter, vals[i])
			}
			sc, err := stream.NewScanner(rt.Vol, updFile(0, p), rt.AuxTiming(), rt.Opts.StreamBufSize, updateRecBytes, getUpdRec)
			if err != nil {
				return nil, err
			}
			var applied int64
			for {
				n, err := sc.NextChunk(upds)
				if err != nil {
					sc.Close()
					return nil, err
				}
				if n == 0 {
					break
				}
				applied += int64(n)
				for _, u := range upds[:n] {
					i := int(u.dst - lo)
					vals[i], _ = applyTo(iter, u.dst, vals[i], u.payload)
				}
			}
			sc.Close()
			for i := range vals {
				nv, changed := prog.EndGather(iter, vals[i])
				vals[i] = nv
				if changed {
					changes++
				}
			}
			rt.Compute(float64(applied)*rt.Costs.GatherPerUpdate + float64(len(vals))*rt.Costs.PerVertex)
			if err := saveVals(p, vals); err != nil {
				return nil, err
			}
			rt.Vol.Remove(updFile(0, p))
		}
		itRow.NewlyVisited = changes
		run.Iterations = append(run.Iterations, itRow)

		if prog.Converged(iter, changes, emitted) {
			break
		}
	}

	// Collect final values (uncharged, like the engines' result dump).
	res := &Result{Values: make([]uint64, rt.Meta.Vertices)}
	for p := 0; p < P; p++ {
		b, err := stream.ReadAll(rt.Vol, vertexFile(p), rt.Retry)
		if err != nil {
			return nil, err
		}
		lo, hi := rt.Parts.Interval(p)
		if len(b) != int(hi-lo)*8 {
			return nil, fmt.Errorf("algo: value file %s has %d bytes, want %d", vertexFile(p), len(b), int(hi-lo)*8)
		}
		for i := 0; i < int(hi-lo); i++ {
			res.Values[int(lo)+i] = binary.LittleEndian.Uint64(b[i*8:])
		}
	}
	if rt.Perm != nil {
		res.Values = graph.ReindexByPerm(rt.Perm, res.Values)
	}
	rt.FinishMetrics(&run)
	res.Metrics = run
	return res, nil
}

// runResident is RunContext's in-memory regime: the same BSP loop over
// the PreparedGraph's shared resident out-lists, walked source by source
// in id order — the stored edge list's order — with no device traffic.
// Scatter reads the values the iteration started with and every emitted
// update is folded straight into the next-values array, so there is no
// update file and no materialised update list — and because an
// out-of-core run at one partition applies its updates in exactly this
// order, the result is byte-identical to it. The shared lists are only
// read; the two value arrays and the bitmap come from the run's scratch.
//
// With a SourceFilter an inactive source is skipped, its whole list at
// once, on a test of a bitmap small enough to stay in the nearest cache.
// Without one every edge is a random read into a vertex-sized array, and
// in all but the one or two wide iterations of a traversal that read is
// the whole cost: the run time then follows whatever else is contending
// for the outer caches, run to run, where a sequential scan does not.
func runResident(rt *xstream.Runtime, pg *xstream.PreparedGraph, prog Program, filter SourceFilter,
	applyTo func(iter int, dst graph.VertexID, val, payload uint64) (uint64, bool), run metrics.Run) (*Result, error) {
	scratch := rt.Scratch()
	off, dst, weights := pg.Out()
	// What an iteration is charged: a scan of the edge list, whatever the
	// program.
	scanned := int64(len(dst))*graph.EdgeBytes + int64(len(weights))*4
	cur, next := scratch.ValuePair(int(rt.Meta.Vertices))
	for v := range cur {
		cur[v] = prog.Init(graph.VertexID(v))
	}
	var active []uint64 // nil without a filter; else bit v = cur[v] can emit
	if filter != nil {
		active = scratch.Bitmap(len(cur))
	}

	maxIter := rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(rt.Meta.Vertices) + 1
	}
	for iter := 0; iter < maxIter; iter++ {
		if err := rt.Checkpoint(); err != nil {
			return nil, err
		}
		if rt.Opts.FaultHook != nil {
			rt.Opts.FaultHook() // same chaos seam as the streaming scatter pass
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
		for u, val := range cur {
			if active != nil && active[u>>6]&(1<<(u&63)) == 0 {
				continue
			}
			for i := off[u]; i < off[u+1]; i++ {
				if weights != nil {
					weight = weights[i]
				}
				v := dst[i]
				if payload, emit := prog.Scatter(iter, graph.VertexID(u), val, v, weight); emit {
					next[v], _ = applyTo(iter, v, next[v], payload)
					emitted++
				}
			}
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
		rt.RAMScan(scanned)
		rt.Compute(float64(len(dst))*rt.Costs.ScatterPerEdge + float64(emitted)*rt.Costs.AppendPerUpdate +
			float64(emitted)*rt.Costs.GatherPerUpdate + float64(len(cur))*rt.Costs.PerVertex)
		run.Iterations = append(run.Iterations, metrics.Iteration{
			Index: iter, EdgesStreamed: int64(len(dst)), Updates: emitted, NewlyVisited: changes})
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

// prepareWeighted splits the stored graph (weighted or not) into
// per-partition weighted edge files; unweighted edges get weight 1. chunk
// is the run's weighted-edge NextChunk target.
func prepareWeighted(rt *xstream.Runtime, edgeFile func(int) string, chunk []graph.WEdge) error {
	tm := rt.MainTiming()
	outs, err := stream.OpenWriterSet(rt.Vol, rt.Parts.P(), edgeFile, func(name string) (*stream.Writer[graph.WEdge], error) {
		return stream.NewWriter(rt.Vol, name, tm, rt.Opts.StreamBufSize, graph.WEdgeBytes, graph.PutWEdge)
	})
	if err != nil {
		return err
	}
	defer outs.Abort() // whatever an error return leaves open
	name := graph.EdgeFileName(rt.Meta.Name)
	if rt.Meta.Weighted {
		var sc *stream.Scanner[graph.WEdge]
		if sc, err = stream.NewScanner(rt.Vol, name, tm, rt.Opts.StreamBufSize, graph.WEdgeBytes, graph.GetWEdge); err == nil {
			err = routeEdges(rt, sc, chunk, outs.W, func(e graph.WEdge) graph.WEdge { return e })
		}
	} else {
		var sc *stream.Scanner[graph.Edge]
		if sc, err = stream.NewEdgeScanner(rt.Vol, name, tm, rt.Opts.StreamBufSize); err == nil {
			err = routeEdges(rt, sc, rt.EdgeChunk(), outs.W, func(e graph.Edge) graph.WEdge { return graph.WEdge{Src: e.Src, Dst: e.Dst, Weight: 1} })
		}
	}
	if err != nil {
		return err
	}
	rt.Compute(float64(rt.Meta.Edges) * rt.Costs.ScatterPerEdge)
	return outs.Close()
}

// routeEdges is prepareWeighted's scan, chunk by aligned chunk: every
// record of sc, as the weighted edge wedge makes of it, checked and
// appended to its source's partition writer. It closes sc.
func routeEdges[T any](rt *xstream.Runtime, sc *stream.Scanner[T], chunk []T, outs []*stream.Writer[graph.WEdge], wedge func(T) graph.WEdge) error {
	defer sc.Close()
	for {
		n, err := sc.NextChunk(chunk)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		for _, rec := range chunk[:n] {
			e := wedge(rec)
			if e.Weight < 0 {
				return fmt.Errorf("algo: negative weight on %d->%d", e.Src, e.Dst)
			}
			if err := rt.Meta.CheckEdge(graph.Edge{Src: e.Src, Dst: e.Dst}); err != nil {
				return err
			}
			if err := outs[rt.Parts.Of(e.Src)].Append(e); err != nil {
				return err
			}
		}
	}
	return nil
}
