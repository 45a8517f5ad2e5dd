// Package graphchi is a from-scratch implementation of GraphChi's
// parallel sliding windows (PSW) execution model (Kyrola et al.,
// OSDI'12) specialized to BFS — the second baseline of the FastBFS
// paper's evaluation.
//
// GraphChi divides the vertices into P intervals and stores, for each
// interval, a *shard* containing every edge whose destination falls in
// the interval, sorted by source vertex. Because each shard is sorted by
// source, the out-edges of interval p form one contiguous *window* in
// every shard. Executing interval p loads its own shard fully (the
// memory shard) plus the p-window of every other shard, runs the
// vertex-centric update function, and writes modified windows back in
// place.
//
// The two costs the FastBFS paper holds against GraphChi both fall out
// of this structure: the preprocessing sort of every shard ("the
// computing-intensive sorting operation needed for every sharding is
// very time consuming", §I) and the re-reading of window data for most
// sliding shards on every pass ("its partitioning scheme would cause
// repeated edge reading and processing for most of the sliding
// shardings", §V-C).
//
// BFS here is vertex-centric label correcting: each edge carries the
// level of its source vertex as its value; a vertex's update function
// takes the minimum over its in-edge values plus one, and propagates its
// own level to its out-edges through the windows. Within a pass updates
// are asynchronous (visible to later intervals), as in GraphChi; at the
// fixpoint the values equal true BFS levels.
package graphchi

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"fastbfs/internal/disksim"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
	"fastbfs/internal/xstream"
)

// EngineName identifies GraphChi in metrics and file prefixes.
const EngineName = "graphchi"

// NoLevel mirrors the engines' unvisited sentinel.
const NoLevel = xstream.NoLevel

// shardRec is one edge with its value (the source's BFS level).
// On disk: three little-endian uint32 (src, dst, value).
type shardRec struct {
	src, dst graph.VertexID
	value    uint32
}

const shardRecBytes = 12

func putShardRec(b []byte, r shardRec) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(r.src))
	binary.LittleEndian.PutUint32(b[4:8], uint32(r.dst))
	binary.LittleEndian.PutUint32(b[8:12], r.value)
}

func getShardRec(b []byte) shardRec {
	return shardRec{
		src:   graph.VertexID(binary.LittleEndian.Uint32(b[0:4])),
		dst:   graph.VertexID(binary.LittleEndian.Uint32(b[4:8])),
		value: binary.LittleEndian.Uint32(b[8:12]),
	}
}

// Run executes GraphChi BFS over the stored graph graphName on vol,
// which must support ranged access (both Mem and OS volumes do).
func Run(vol storage.Volume, graphName string, opts xstream.Options) (*xstream.Result, error) {
	return RunContext(context.Background(), vol, graphName, opts)
}

// RunContext is Run with a cancellation context: ctx is checked at pass,
// interval and preprocessing-shard boundaries, so a cancelled query
// abandons the PSW run and its shard files are removed by Cleanup.
func RunContext(ctx context.Context, vol storage.Volume, graphName string, opts xstream.Options) (*xstream.Result, error) {
	opts.SetDefaults(EngineName)
	if _, ok := vol.(storage.RangeVolume); !ok {
		return nil, fmt.Errorf("graphchi: %w: volume does not support ranged access (PSW needs it)", errs.ErrBadOptions)
	}
	if opts.Partitions == 0 {
		// GraphChi's interval count is edge-bound: the memory shard —
		// an interval's full in-edge set — must fit the budget.
		m, err := graph.LoadMeta(vol, graphName)
		if err != nil {
			return nil, err
		}
		shardData := m.Edges * shardRecBytes
		p := int((shardData + opts.MemoryBudget - 1) / opts.MemoryBudget)
		if p < 1 {
			p = 1
		}
		vertexP := graph.PartitionsForMemory(m.Vertices, xstream.PerVertexMemBytes, opts.MemoryBudget)
		if vertexP > p {
			p = vertexP
		}
		opts.Partitions = p
	}
	rt, err := xstream.NewRuntimeContext(ctx, vol, graphName, opts)
	if err != nil {
		return nil, err
	}
	defer rt.Cleanup()
	if rt.Meta.Weighted {
		return nil, fmt.Errorf("graphchi: %w: BFS takes unweighted graphs; %s is weighted", errs.ErrBadOptions, graphName)
	}
	// The run's volume, so the record counts the windows and patches too.
	e := &engine{rt: rt, rv: rt.Vol.(storage.RangeVolume)}
	return e.run()
}

type engine struct {
	rt *xstream.Runtime
	rv storage.RangeVolume

	// windows[q][p] is the byte offset in shard q of the first record
	// whose source is in interval p; windows[q][P] is the shard size.
	windows [][]int64
}

func (e *engine) shardFile(q int) string {
	return fmt.Sprintf("%s_shard_%d", e.rt.Opts.FilePrefix, q)
}

// readWindow reads bytes [off, end) of shard q.
func (e *engine) readWindow(q int, off, end int64) ([]byte, error) {
	rr, err := stream.OpenRange(e.rv, e.shardFile(q), e.rt.Retry)
	if err != nil {
		return nil, err
	}
	defer rr.Close()
	data := make([]byte, end-off)
	_, err = rr.ReadAt(data, off)
	return data, err
}

func (e *engine) run() (*xstream.Result, error) {
	run := metrics.Run{Engine: EngineName}
	runSpan := e.rt.Tracer().Span("run").Attr("partitions", int64(e.rt.Parts.P()))

	pps := runSpan.Child("preprocess")
	if err := e.preprocess(); err != nil {
		return nil, err
	}
	pps.Attr("edges", int64(e.rt.Meta.Edges)).End()
	var preprocIOWait float64
	if e.rt.Clock != nil {
		run.PreprocTime = e.rt.Clock.Now()
		preprocIOWait = e.rt.Clock.IOWait()
	}

	// Initialize vertex state and the root.
	ini := runSpan.Child("load")
	P := e.rt.Parts.P()
	for p := 0; p < P; p++ {
		v := e.rt.InitVerts(p)
		if e.rt.MarkRoot(v) {
			run.Visited++
		}
		if err := e.rt.SaveVerts(p, v); err != nil {
			return nil, err
		}
	}
	// Seed the root's out-edges: set their value to 0 wherever they live.
	if err := e.seedRoot(); err != nil {
		return nil, err
	}
	ini.End()

	maxIter := e.rt.IterationCap()
	for pass := 0; pass < maxIter; pass++ {
		if err := e.rt.Checkpoint(); err != nil {
			return nil, err
		}
		itSpan := runSpan.Child("iteration").SetIter(pass)
		itRow := metrics.Iteration{Index: pass}
		changed := false
		for p := 0; p < P; p++ {
			if err := e.rt.Checkpoint(); err != nil {
				return nil, err
			}
			ch, scanned, newly, err := e.executeInterval(p, itSpan)
			if err != nil {
				return nil, err
			}
			changed = changed || ch
			itRow.EdgesStreamed += scanned
			itRow.NewlyVisited += newly
		}
		itRow.Frontier = itRow.NewlyVisited
		run.Iterations = append(run.Iterations, itRow)
		run.Visited += itRow.NewlyVisited
		itSpan.Attr("frontier", int64(itRow.Frontier)).
			Attr("new", int64(itRow.NewlyVisited)).
			Attr("edges", itRow.EdgesStreamed).End()
		e.rt.Publish(&run, 0)
		if !changed {
			break
		}
	}
	runSpan.End()

	res, err := e.rt.CollectResult()
	if err != nil {
		return nil, err
	}
	run.Visited = res.Visited
	e.rt.FinishMetrics(&run)
	e.rt.Publish(&run, 0)
	if e.rt.Clock != nil {
		// Report PSW execution time (and its iowait) net of sharding, as
		// the paper does ("even with the preprocessing costs excluded",
		// §IV-B1). Fig. 6's whole-run iowait ratio is reconstructed by
		// the bench harness from PreprocTime.
		run.ExecTime -= run.PreprocTime
		run.IOWait -= preprocIOWait
		run.PreprocIOWait = preprocIOWait
	}
	res.Metrics = run
	return res, nil
}

// preprocess builds the sorted shards: shuffle edges by destination
// interval, then sort each shard by source — GraphChi's expensive setup.
func (e *engine) preprocess() error {
	rt := e.rt
	P := rt.Parts.P()
	tm := rt.MainTiming()

	// Pass 1: shuffle by destination into unsorted shards.
	outs, err := stream.OpenWriterSet(rt.Vol, P, e.shardFile, func(name string) (*stream.Writer[shardRec], error) {
		return stream.NewWriter(rt.Vol, name, tm, rt.Opts.StreamBufSize, shardRecBytes, putShardRec)
	})
	if err != nil {
		return err
	}
	defer outs.Abort() // whatever an error return leaves open
	// An aligned chunk never straddles a refill: device reads stay where
	// reading edge by edge put them among the shard writes.
	if _, err := xstream.ScanStored(rt.Vol, rt.Meta, tm, rt.Opts.StreamBufSize, rt.Scratch(), func(edges []graph.Edge, _ []float32) error {
		for _, edge := range edges {
			if err := outs.W[rt.Parts.Of(edge.Dst)].Append(shardRec{src: edge.Src, dst: edge.Dst, value: NoLevel}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	rt.Compute(float64(rt.Meta.Edges) * rt.Costs.ScatterPerEdge)
	if err := outs.Close(); err != nil {
		return err
	}

	// Pass 2: sort each shard by source (read, in-memory sort, rewrite).
	e.windows = make([][]int64, P)
	for q := 0; q < P; q++ {
		if err := rt.Checkpoint(); err != nil {
			return err
		}
		data, err := stream.ReadAll(rt.Vol, e.shardFile(q), rt.Retry)
		if err != nil {
			return err
		}
		tm.Read(int64(len(data)), disksim.NewStreamID())
		n := len(data) / shardRecBytes
		recs := make([]shardRec, n)
		for i := range recs {
			recs[i] = getShardRec(data[i*shardRecBytes:])
		}
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].src < recs[j].src })
		rt.Compute(float64(n) * rt.Costs.SortPerEdge)
		for i := range recs {
			putShardRec(data[i*shardRecBytes:], recs[i])
		}
		if err := stream.WriteAll(rt.Vol, e.shardFile(q), data, rt.Retry); err != nil {
			return err
		}
		tm.WriteSync(int64(len(data)), disksim.NewStreamID())

		// Window index: first record of each source interval.
		offs := make([]int64, P+1)
		for p := 0; p < P; p++ {
			lo, _ := rt.Parts.Interval(p)
			i := sort.Search(n, func(i int) bool { return recs[i].src >= lo })
			offs[p] = int64(i) * shardRecBytes
		}
		offs[P] = int64(n) * shardRecBytes
		e.windows[q] = offs
	}
	return nil
}

// seedRoot writes value 0 onto every out-edge of the root, wherever the
// destination lives (uncharged: part of initialization, negligible).
func (e *engine) seedRoot() error {
	root := e.rt.Opts.Root
	pr := e.rt.Parts.Of(root)
	for q := 0; q < e.rt.Parts.P(); q++ {
		off, end := e.windows[q][pr], e.windows[q][pr+1]
		if off == end {
			continue
		}
		data, err := e.readWindow(q, off, end)
		if err != nil {
			return err
		}
		changed := false
		for i := 0; i+shardRecBytes <= len(data); i += shardRecBytes {
			r := getShardRec(data[i:])
			if r.src == root {
				r.value = 0
				putShardRec(data[i:], r)
				changed = true
			}
		}
		if changed {
			if err := e.rv.Patch(e.shardFile(q), off, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// executeInterval runs one PSW step: load the memory shard and the
// sliding windows, apply the vertex update function over the interval,
// and write back modified data.
func (e *engine) executeInterval(p int, itSpan *obs.Span) (changed bool, scanned int64, newly uint64, err error) {
	rt := e.rt
	tm := rt.MainTiming()
	P := rt.Parts.P()

	lds := itSpan.Child("load").SetPart(p)
	verts, err := rt.LoadVerts(p)
	if err != nil {
		return false, 0, 0, err
	}

	// Memory shard: all in-edges of interval p.
	memData, err := stream.ReadAll(rt.Vol, e.shardFile(p), rt.Retry)
	if err != nil {
		return false, 0, 0, err
	}
	tm.Read(int64(len(memData)), disksim.NewStreamID())
	nMem := len(memData) / shardRecBytes
	scanned += int64(nMem)
	lds.End()

	// Group in-edges by destination.
	inEdges := make(map[graph.VertexID][]int, nMem) // dst -> record indices
	for i := 0; i < nMem; i++ {
		r := getShardRec(memData[i*shardRecBytes:])
		inEdges[r.dst] = append(inEdges[r.dst], i)
	}

	// Vertex update functions, in id order; asynchronous within the
	// interval: improved levels are pushed onto in-memory out-edges
	// (records of the memory shard whose source is in p).
	ups := itSpan.Child("update").SetPart(p)
	lo, hi := rt.Parts.Interval(p)
	memChanged := false
	var memOutIdx map[graph.VertexID][]int // src-in-p -> record indices
	for v := lo; v < hi; v++ {
		idxs := inEdges[v]
		rt.Compute(rt.Costs.VertexUpdate + float64(len(idxs))*rt.Costs.EdgeVisit)
		best := NoLevel
		var parent graph.VertexID = graph.NoVertex
		for _, i := range idxs {
			r := getShardRec(memData[i*shardRecBytes:])
			if r.value != NoLevel && (best == NoLevel || r.value+1 < best) {
				best = r.value + 1
				parent = r.src
			}
		}
		vi := int(v - lo)
		if best != NoLevel && (verts.Level[vi] == NoLevel || best < verts.Level[vi]) {
			if verts.Level[vi] == NoLevel {
				newly++
			}
			verts.Level[vi] = best
			verts.Parent[vi] = parent
			changed = true
			// Push the new level to this vertex's out-edges inside the
			// memory shard (src==v records).
			if memOutIdx == nil {
				memOutIdx = make(map[graph.VertexID][]int)
				for i := 0; i < nMem; i++ {
					r := getShardRec(memData[i*shardRecBytes:])
					if r.src >= lo && r.src < hi {
						memOutIdx[r.src] = append(memOutIdx[r.src], i)
					}
				}
			}
			for _, i := range memOutIdx[v] {
				r := getShardRec(memData[i*shardRecBytes:])
				r.value = best
				putShardRec(memData[i*shardRecBytes:], r)
				memChanged = true
			}
		}
	}
	ups.End()

	// Sliding windows: push updated levels onto out-edges living in the
	// other shards. GraphChi reads every window each step — that is the
	// repeated edge reading the FastBFS paper calls out.
	wns := itSpan.Child("windows").SetPart(p)
	for q := 0; q < P; q++ {
		if q == p {
			continue
		}
		off, end := e.windows[q][p], e.windows[q][p+1]
		if off == end {
			continue
		}
		data, err := e.readWindow(q, off, end)
		if err != nil {
			return changed, scanned, newly, err
		}
		tm.Read(end-off, disksim.NewStreamID())
		n := len(data) / shardRecBytes
		scanned += int64(n)
		winChanged := false
		for i := 0; i < n; i++ {
			r := getShardRec(data[i*shardRecBytes:])
			lv := verts.Level[int(r.src-lo)]
			if r.value != lv {
				r.value = lv
				putShardRec(data[i*shardRecBytes:], r)
				winChanged = true
			}
		}
		rt.Compute(float64(n) * rt.Costs.EdgeVisit)
		if winChanged {
			if err := e.rv.Patch(e.shardFile(q), off, data); err != nil {
				return changed, scanned, newly, err
			}
			tm.WriteSync(end-off, disksim.NewStreamID())
		}
	}
	wns.End()

	// Write back the memory shard if its values changed.
	svs := itSpan.Child("load").SetPart(p)
	if memChanged {
		if err := e.rv.Patch(e.shardFile(p), 0, memData); err != nil {
			return changed, scanned, newly, err
		}
		tm.WriteSync(int64(len(memData)), disksim.NewStreamID())
	}
	if err := rt.SaveVerts(p, verts); err != nil {
		return changed, scanned, newly, err
	}
	svs.End()
	return changed, scanned, newly, nil
}
