package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"fastbfs/internal/algo"
	"fastbfs/internal/bfs"
	"fastbfs/internal/core"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
	"fastbfs/internal/xstream"
)

// Layer probes: after the timed phase of a traced run, each layer's
// public entry points are called directly on the workload's own stored
// graph, every call inside a benchmark-owned span. Cheap probes share a
// calibration pair (a group); engine-sized ones get their own.

// corePhases are the leaf phases obs.Summarize reports for the FastBFS
// engine; BENCHMARK.json declares one core.phase_share.* metric each.
var corePhases = []string{"load", "gather", "scatter", "shuffle", "stay-write", "bottomup", "reverse-split"}

// prober carries the values the probes produce.
type prober struct {
	e    *env
	vals map[string]float64
	// stored is the graph's edge list in stored order and labels, read
	// back through the stream layer.
	stored []graph.Edge
	parts  *graph.Partitioning
	sink   int // keeps the compiler from dropping a probe's only result
	err    error
}

// group brackets a batch of short probes with one calibration pair.
type group struct {
	e    *env
	cal0 float64
	cal1 float64
}

func (e *env) beginGroup() *group { return &group{e: e, cal0: e.calibrate()} }
func (g *group) end()             { g.cal1 = g.e.calibrate() }

// norm converts a wall time measured inside the group.
func (g *group) norm(wallS float64) float64 { return normalise(wallS, g.cal0, g.cal1) }

// timed runs fn inside a span and returns its wall seconds; the first
// error sticks and later probes are skipped.
func (p *prober) timed(name string, fn func() error) float64 {
	if p.err != nil {
		return 0
	}
	sp := p.e.rec.begin(name, 0, 0)
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	p.e.rec.end(sp)
	if err != nil {
		p.err = fmt.Errorf("%s: %w", name, err)
	}
	return wall
}

// timedNorm is timed with a calibration pair of its own.
func (p *prober) timedNorm(name string, fn func() error) float64 {
	g := p.e.beginGroup()
	wall := p.timed(name, fn)
	g.end()
	return g.norm(wall)
}

const (
	probeBuf   = stream.DefaultBufSize
	probeChunk = probeBuf / graph.EdgeBytes
)

// streamOptions are the engine options of the streaming probes: the
// out-of-core budget (8 partitions) whatever the workload, so serve
// workloads report the same layers.
func (p *prober) streamOptions(root graph.VertexID, prefix string) xstream.Options {
	return xstream.Options{
		Root:           root,
		MemoryBudget:   oocBudget,
		ScatterWorkers: p.e.wl.Workers,
		Direction:      p.e.wl.Direction,
		FilePrefix:     prefix,
	}
}

func (p *prober) removeProbeFiles() {
	for _, name := range p.e.leakedFiles() {
		p.e.vol.Remove(name)
	}
}

// probeStream covers internal/stream, internal/graph's codec and
// partition lookup, and internal/storage's raw throughput.
func (p *prober) probeStream() {
	e, vol := p.e, p.e.vol
	edges := float64(e.meta.Edges)
	nsPer := func(g *group, wall float64, n float64) float64 { return g.norm(wall) * 1e9 / n }
	storedCodec := string(e.meta.EdgeCodec())
	var err error
	if p.parts, err = graph.NewPartitioning(e.meta.Vertices, graph.PartitionsForMemory(e.meta.Vertices, xstream.PerVertexMemBytes, oocBudget)); err != nil {
		p.err = err
		return
	}
	defer p.removeProbeFiles()

	scanChunks := func(name string, keep bool) func() error {
		return func() error {
			sc, err := stream.NewEdgeScanner(vol, name, stream.Timing{}, probeBuf)
			if err != nil {
				return err
			}
			defer sc.Close()
			buf := make([]graph.Edge, probeChunk)
			for {
				n, err := sc.NextChunk(buf)
				if err != nil {
					return err
				}
				if n == 0 {
					return nil
				}
				if keep {
					p.stored = append(p.stored, buf[:n]...)
				}
			}
		}
	}
	writeEdges := func(name string, codec graph.Codec) func() error {
		return func() error {
			w, err := stream.NewCodecEdgeWriter(vol, name, stream.Timing{}, probeBuf, codec)
			if err != nil {
				return err
			}
			for _, ed := range p.stored {
				if err := w.Append(ed); err != nil {
					w.Abort()
					return err
				}
			}
			return w.Close()
		}
	}

	// The stored edge file, in its own codec, is read first; it also
	// yields the stored-order edge list every later probe streams.
	g := e.beginGroup()
	p.stored = make([]graph.Edge, 0, e.meta.Edges)
	p.timed("stream.Scanner.NextChunk("+storedCodec+", stored file)", scanChunks(graph.EdgeFileName(e.meta.Name), true))
	wWriteFixed := p.timed("stream.Writer.Append(fixed)", writeEdges("probe_edges_fixed", graph.CodecFixed))
	wWriteDelta := p.timed("stream.Writer.Append(delta)", writeEdges("probe_edges_delta", graph.CodecDelta))
	wScanFixed := p.timed("stream.Scanner.NextChunk(fixed)", scanChunks("probe_edges_fixed", false))
	wScanDelta := p.timed("stream.Scanner.NextChunk(delta)", scanChunks("probe_edges_delta", false))
	wNext := p.timed("stream.Scanner.Next(fixed)", func() error {
		sc, err := stream.NewEdgeScanner(vol, "probe_edges_fixed", stream.Timing{}, probeBuf)
		if err != nil {
			return err
		}
		defer sc.Close()
		for {
			_, ok, err := sc.Next()
			if err != nil || !ok {
				return err
			}
		}
	})
	g.end()
	if p.err != nil {
		return
	}
	if uint64(len(p.stored)) != e.meta.Edges {
		p.err = fmt.Errorf("stored edge file streamed %d edges, meta says %d", len(p.stored), e.meta.Edges)
		return
	}
	p.vals["stream.scan_ns_per_edge.fixed"] = nsPer(g, wScanFixed, edges)
	p.vals["stream.scan_ns_per_edge.delta"] = nsPer(g, wScanDelta, edges)
	p.vals["stream.scan_next_ns_per_edge"] = nsPer(g, wNext, edges)
	p.vals["stream.write_ns_per_edge.fixed"] = nsPer(g, wWriteFixed, edges)
	p.vals["stream.write_ns_per_edge.delta"] = nsPer(g, wWriteDelta, edges)
	if sz, err := vol.Size(graph.EdgeFileName(e.meta.Name)); err == nil {
		p.vals["graph.stored_bytes_per_edge"] = float64(sz) / edges
	} else {
		p.err = err
		return
	}

	// Scatter: the engines' classify step against a mid-traversal level
	// array (the reference BFS of root 0 frozen at level 2), through the
	// pool at one and two workers, then shuffle and stay writing alone.
	ref := &e.refs[0]
	level := p.storedLevels(ref)
	const cur = 2
	classify := func(es []graph.Edge, out *stream.Shard) {
		for _, ed := range es {
			switch l := level[ed.Src]; {
			case l == cur:
				d := p.parts.Of(ed.Dst)
				out.ByPart[d] = append(out.ByPart[d], graph.Update{Dst: ed.Dst, Parent: ed.Src})
				out.Emitted++
			case l > cur:
				out.Stays = append(out.Stays, ed)
				out.Stayed++
			}
		}
		out.Scanned += int64(len(es))
	}
	scatter := func(workers int) func() error {
		return func() error {
			pool := stream.NewScatterPool(workers, probeChunk, p.parts.P())
			sc, err := stream.NewEdgeScanner(vol, "probe_edges_fixed", stream.Timing{}, probeBuf)
			if err != nil {
				return err
			}
			defer sc.Close()
			var scanned int64
			err = pool.RunScanner(sc, classify, func(sh *stream.Shard) error {
				scanned += sh.Scanned
				return nil
			})
			if err == nil && uint64(scanned) != e.meta.Edges {
				err = fmt.Errorf("scattered %d of %d edges", scanned, e.meta.Edges)
			}
			return err
		}
	}
	g = e.beginGroup()
	wScat1 := p.timed("stream.ScatterPool.RunScanner(workers=1)", scatter(1))
	wScat2 := p.timed("stream.ScatterPool.RunScanner(workers=2)", scatter(2))
	wShuffle := p.timed("stream.Shuffler.Append", func() error {
		sh, err := stream.NewShuffler(vol, p.parts, stream.Timing{}, probeBuf, func(part int) string {
			return fmt.Sprintf("probe_upd_%d", part)
		})
		if err != nil {
			return err
		}
		for _, ed := range p.stored {
			if err := sh.Append(graph.Update{Dst: ed.Dst, Parent: ed.Src}); err != nil {
				sh.Abort()
				return err
			}
		}
		return sh.Close()
	})
	wStay := p.timed("stream.StayWriter begin/append/close/use", func() error {
		sw := stream.NewStayWriter(vol, probeBuf, 8)
		defer sw.Shutdown()
		f, err := sw.Begin("probe_stay", stream.Timing{})
		if err != nil {
			return err
		}
		for _, ed := range p.stored {
			if err := f.Append(ed); err != nil {
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		return f.Use()
	})
	wOf := p.timed("graph.Partitioning.Of", func() error {
		for _, ed := range p.stored {
			p.sink += p.parts.Of(ed.Src)
		}
		return nil
	})
	raw := graph.EdgesToBytes(p.stored)
	var enc []byte
	wEnc := p.timed("graph.EncodeDeltaBlocks", func() error {
		var err error
		enc, err = graph.EncodeDeltaBlocks(raw)
		return err
	})
	wDec := p.timed("graph.DecodeDeltaStream", func() error {
		dec, err := graph.DecodeDeltaStream(enc)
		if err == nil && len(dec) != len(raw) {
			err = fmt.Errorf("decoded %d bytes, want %d", len(dec), len(raw))
		}
		return err
	})
	wWrite := p.timed("storage.WriteAll", func() error { return storage.WriteAll(vol, "probe_blob", raw) })
	wRead := p.timed("storage.ReadAll", func() error {
		b, err := storage.ReadAll(vol, "probe_blob")
		if err == nil && len(b) != len(raw) {
			err = fmt.Errorf("read %d bytes, want %d", len(b), len(raw))
		}
		return err
	})
	g.end()
	if p.err != nil {
		return
	}
	p.vals["stream.scatter_ns_per_edge.w1"] = nsPer(g, wScat1, edges)
	p.vals["stream.scatter_ns_per_edge.w2"] = nsPer(g, wScat2, edges)
	p.vals["stream.shuffle_ns_per_update"] = nsPer(g, wShuffle, edges)
	p.vals["stream.stay_ns_per_edge"] = nsPer(g, wStay, edges)
	p.vals["graph.partition_of_ns"] = nsPer(g, wOf, edges)
	p.vals["graph.codec_encode_ns_per_edge"] = nsPer(g, wEnc, edges)
	p.vals["graph.codec_decode_ns_per_edge"] = nsPer(g, wDec, edges)
	mb := float64(len(raw)) / 1e6
	p.vals["storage.write_mb_per_s"] = mb / g.norm(wWrite)
	p.vals["storage.read_mb_per_s"] = mb / g.norm(wRead)
}

// storedLevels is ref's level array indexed by stored vertex label
// (the graph may have been reordered at store time).
func (p *prober) storedLevels(ref *refBFS) []uint8 {
	if !p.e.meta.Reordered {
		return ref.level
	}
	perm, err := graph.LoadPerm(p.e.vol, p.e.meta.Name, p.e.meta.Vertices)
	if err != nil {
		p.err = err
		return ref.level
	}
	out := make([]uint8, len(ref.level))
	for orig, l := range ref.level {
		out[perm.ToStored(graph.VertexID(orig))] = l
	}
	return out
}

// probeRuntime covers xstream.Runtime's shared scaffolding: the
// partition split every query pays, the vertex-file round trip and
// result collection.
func (p *prober) probeRuntime() {
	if p.err != nil {
		return
	}
	defer p.removeProbeFiles()
	opts := p.streamOptions(p.e.refs[0].root, "probe_rt")
	opts.SetDefaults("probe_rt")
	var prep []float64
	var rt *xstream.Runtime
	for i := 0; i < 3 && p.err == nil; i++ {
		prep = append(prep, p.timedNorm("xstream.Runtime.Prepare", func() error {
			var err error
			if rt, err = xstream.NewRuntime(p.e.vol, p.e.meta.Name, opts); err != nil {
				return err
			}
			_, err = rt.Prepare()
			return err
		}))
	}
	if p.err != nil {
		return
	}
	g := p.e.beginGroup()
	wVerts := p.timed("xstream.Runtime.SaveVerts+LoadVerts", func() error {
		for part := 0; part < rt.Parts.P(); part++ {
			v := rt.InitVerts(part)
			rt.MarkRoot(v)
			if err := rt.SaveVerts(part, v); err != nil {
				return err
			}
			if _, err := rt.LoadVerts(part); err != nil {
				return err
			}
		}
		return nil
	})
	wCollect := p.timed("xstream.Runtime.CollectResult", func() error {
		res, err := rt.CollectResult()
		if err == nil && res.Visited != 1 {
			err = fmt.Errorf("collected %d visited vertices from fresh state, want 1", res.Visited)
		}
		return err
	})
	g.end()
	rt.Cleanup()
	p.vals["xstream.prepare_norm_s"] = median(prep)
	p.vals["xstream.verts_roundtrip_ns_per_vertex"] = g.norm(wVerts) * 1e9 / float64(p.e.meta.Vertices)
	p.vals["xstream.collect_norm_s"] = g.norm(wCollect)
}

// probeEngines runs the FastBFS engine (streaming, with the existing
// Options.Tracer feeding an in-memory collector, and in memory), the
// X-Stream baseline and the reference BFS over the same probeRoots
// roots, and derives the engine counts and phase shares.
func (p *prober) probeEngines() {
	if p.err != nil {
		return
	}
	e := p.e
	ctx := context.Background()
	var coreS, xsS, memS, refS []float64
	var runs []metrics.Run
	phaseTotal := make(map[string]float64)
	var leafTotal, execTotal float64
	partitions := 0.0
	for i := 0; i < probeRoots && p.err == nil; i++ {
		ref := &e.refs[i]
		check := func(res *xstream.Result, err error) error {
			if err != nil {
				return err
			}
			return e.checkTree(ref, res.Levels, res.Parents, res.Visited)
		}
		// The three engine runs of a root share their boundary
		// calibrations: four readings instead of six.
		col := &obs.Collect{}
		var res *xstream.Result
		cal0 := e.calibrate()
		wCore := p.timed("core.RunContext", func() error {
			opts := core.Options{Base: p.streamOptions(ref.root, "")}
			opts.Base.Tracer = obs.New(col)
			var err error
			res, err = core.RunContext(ctx, e.vol, e.meta.Name, opts)
			return err
		})
		if p.err == nil {
			p.err = check(res, nil)
		}
		if p.err != nil {
			return
		}
		runs = append(runs, res.Metrics)
		events := col.Events()
		sum := obs.Summarize(events)
		for name, d := range sum.PhaseTotal {
			phaseTotal[name] += d
		}
		leafTotal += sum.LeafTotal
		execTotal += res.Metrics.ExecTime
		p.adoptEngineSpans(events)
		for _, ev := range events {
			if ev.Kind == obs.KindSpan && ev.Name == "run" {
				partitions = float64(ev.Attrs["partitions"])
			}
		}
		cal1 := e.calibrate()
		wXS := p.timed("xstream.RunContext", func() error {
			return check(xstream.RunContext(ctx, e.vol, e.meta.Name, p.streamOptions(ref.root, "")))
		})
		cal2 := e.calibrate()
		wMem := p.timed("core.RunContext(in memory)", func() error {
			opts := core.Options{Base: p.streamOptions(ref.root, "")}
			opts.Base.MemoryBudget = serveBudget
			return check(core.RunContext(ctx, e.vol, e.meta.Name, opts))
		})
		cal3 := e.calibrate()
		coreS = append(coreS, normalise(wCore, cal0, cal1))
		xsS = append(xsS, normalise(wXS, cal1, cal2))
		memS = append(memS, normalise(wMem, cal2, cal3))
	}
	g := e.beginGroup()
	for i := 0; i < probeRoots; i++ {
		ref := &e.refs[i]
		refS = append(refS, p.timed("bfs.RunCSR", func() error {
			if r := bfs.RunCSR(e.meta, e.csr, ref.root); r.Visited != ref.visited {
				return fmt.Errorf("reference BFS disagrees with itself on root %d", ref.root)
			}
			return nil
		}))
	}
	g.end()
	if p.err != nil {
		return
	}
	for i := range refS {
		refS[i] = g.norm(refS[i])
	}
	v := p.vals
	v["core.run_norm_s"] = median(coreS)
	v["xstream.run_norm_s"] = median(xsS)
	v["core.inmemory_run_norm_s"] = median(memS)
	v["bfs.reference_norm_s"] = median(refS)
	v["core.speedup_vs_xstream"] = median(xsS) / median(coreS)
	v["core.slowdown_vs_reference"] = median(coreS) / median(refS)
	v["xstream.prepare_share"] = v["xstream.prepare_norm_s"] / median(coreS)
	v["core.partitions"] = partitions
	v["bench.explained_share"] = leafTotal / execTotal
	for _, name := range corePhases {
		v["core.phase_share."+name] = phaseTotal[name] / leafTotal
		delete(phaseTotal, name)
	}
	for name := range phaseTotal {
		p.err = fmt.Errorf("engine trace has a leaf phase %q the benchmark does not declare", name)
	}

	n := float64(len(runs))
	perEdge := n * float64(e.meta.Edges)
	var iters, streamed, stay, trimmed, skipped, cancels, waits, bottom, retries, switchSum, switched float64
	for _, r := range runs {
		iters += float64(len(r.Iterations))
		for _, it := range r.Iterations {
			streamed += float64(it.EdgesStreamed)
			stay += float64(it.StayEdges)
		}
		trimmed += float64(r.TrimmedEdges)
		skipped += float64(r.Skipped)
		cancels += float64(r.Cancellations)
		waits += float64(r.StayBufferWaits)
		bottom += float64(r.BottomUpIterations)
		retries += float64(r.IORetries)
		if r.SwitchIteration >= 0 {
			switchSum += float64(r.SwitchIteration)
			switched++
		}
	}
	v["core.iterations"] = iters / n
	v["core.edges_streamed_per_edge"] = streamed / perEdge
	v["core.stay_edges_per_edge"] = stay / perEdge
	v["core.trimmed_edges_per_edge"] = trimmed / perEdge
	v["core.skipped_partitions"] = skipped / n
	v["core.stay_cancels"] = cancels
	v["core.stay_buffer_waits"] = waits
	v["core.bottomup_iterations"] = bottom / n
	v["core.io_retries"] = retries
	v["core.switch_iteration"] = -1
	if switched > 0 {
		v["core.switch_iteration"] = switchSum / switched
	}
}

// adoptEngineSpans copies the engine's own trace events of one probe
// run into the span file, under the benchmark's core.RunContext span
// that was just closed.
func (p *prober) adoptEngineSpans(events []obs.Event) {
	rec := p.e.rec
	if rec == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	parent := len(rec.spans) // the core.RunContext span
	base := rec.spans[parent-1].Start
	ids := make(map[int64]int)
	for _, ev := range events {
		if ev.Kind != obs.KindSpan {
			continue
		}
		id := len(rec.spans) + 1
		ids[ev.ID] = id
		rec.spans = append(rec.spans, span{ID: id, Name: "core/" + ev.Name, Parent: parent, Start: base + ev.Start, End: base + ev.Start + ev.Dur})
	}
	// Events arrive when spans end, children first: fix parents up once
	// every id is known.
	i := parent
	for _, ev := range events {
		if ev.Kind != obs.KindSpan {
			continue
		}
		if pid, ok := ids[ev.Parent]; ok {
			rec.spans[i].Parent = pid
		}
		i++
	}
}

// probeBatch runs algo.BatchBFS the way the service's batcher does, at
// the width the serve-batched workload produces (2) and at the
// batcher's limit (32).
func (p *prober) probeBatch() {
	if p.err != nil {
		return
	}
	e := p.e
	for _, width := range []int{2, 32} {
		roots := make([]graph.VertexID, width)
		for i := range roots {
			roots[i] = e.refs[i].root
		}
		var prog *algo.BatchBFS
		io0 := e.vol.Stats()
		normS := p.timedNorm(fmt.Sprintf("algo.RunContext(BatchBFS x%d)", width), func() error {
			var err error
			if prog, err = algo.NewBatchBFS(roots, e.meta.Vertices); err != nil {
				return err
			}
			opts := xstream.Options{MemoryBudget: serveBudget, ScatterWorkers: e.wl.Workers}
			_, err = algo.RunContext(context.Background(), e.vol, e.meta.Name, prog, opts)
			return err
		})
		if p.err != nil {
			return
		}
		io := e.vol.Stats().Sub(io0)
		for i := range roots {
			if err := e.checkTree(&e.refs[i], prog.LevelsOf(i), prog.ParentsOf(i), prog.VisitedOf(i)); err != nil {
				p.err = fmt.Errorf("BatchBFS x%d: %w", width, err)
				return
			}
		}
		name := fmt.Sprintf("algo.batchbfs%d_", width)
		p.vals[name+"norm_s_per_root"] = normS / float64(width)
		p.vals[name+"device_bytes_per_edge_per_root"] = float64(io.BytesRead+io.BytesWritten) / (float64(e.meta.Edges) * float64(width))
	}
}

// probeServe measures the service's own layers one request at a time:
// direct Submit against the HTTP round trip, cache hits, and the cost
// of encoding the per-vertex arrays. Serve workloads probe their own
// service; the ooc ones open serve-solo's configuration on their graph.
func (p *prober) probeServe() (lat []float64) {
	if p.err != nil {
		return nil
	}
	e := p.e
	if e.svc == nil {
		solo, err := findWorkload("serve-solo")
		if err != nil {
			p.err = err
			return nil
		}
		if e.svc, err = serve.New(e.vol, e.meta.Name, solo.serveConfig()); err != nil {
			p.err = err
			return nil
		}
	}
	if e.srv == nil {
		e.startServer()
	}
	ctx := context.Background()
	var submitW, httpW, hitW, directW, valuesW []float64
	var valueBytes int
	g := e.beginGroup()
	for i := 0; i < probeRoots/2; i++ {
		ref := &e.refs[i]
		submitW = append(submitW, p.timed("serve.Submit", func() error {
			res, err := e.svc.Submit(ctx, serve.Query{Root: ref.root, NoCache: true})
			if err == nil && res.Visited != ref.visited {
				err = fmt.Errorf("root %d: visited %d, reference %d", ref.root, res.Visited, ref.visited)
			}
			return err
		}))
		w, err := e.request(-1, 0, ref) // records its own span
		if err != nil && p.err == nil {
			p.err = err
		}
		httpW = append(httpW, w)
	}
	// Cache: one filling request, then hits over HTTP and by direct
	// Submit — their difference is what the HTTP layer costs a query
	// that does no other work — then hits that carry the level and
	// parent arrays.
	ref := &e.refs[0]
	post := func(body string, wantCached bool, into *[]float64) func() error {
		return func() error {
			w, status, reply, err := e.post(body)
			var qr queryReply
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			if err == nil {
				err = json.Unmarshal(reply, &qr)
			}
			if err == nil && (qr.Visited != ref.visited || qr.Cached != wantCached) {
				err = fmt.Errorf("visited %d cached %v, want %d %v", qr.Visited, qr.Cached, ref.visited, wantCached)
			}
			if into != nil {
				*into = append(*into, w)
			}
			valueBytes = len(reply)
			return err
		}
	}
	p.timed("http.POST /query (cache fill)", post(fmt.Sprintf(`{"root":%d}`, ref.root), false, nil))
	for i := 0; i < probeRoots; i++ {
		p.timed("http.POST /query (cache hit)", post(fmt.Sprintf(`{"root":%d}`, ref.root), true, &hitW))
		directW = append(directW, p.timed("serve.Submit (cache hit)", func() error {
			res, err := e.svc.Submit(ctx, serve.Query{Root: ref.root})
			if err == nil && !res.Cached {
				err = fmt.Errorf("root %d: direct Submit missed the cache", ref.root)
			}
			return err
		}))
	}
	for i := 0; i < probeRoots/2; i++ {
		p.timed("http.POST /query (cache hit, include_values)", post(fmt.Sprintf(`{"root":%d,"include_values":true}`, ref.root), true, &valuesW))
	}
	g.end()
	if p.err != nil {
		return nil
	}
	v := p.vals
	v["serve.submit_norm_s.p50"] = g.norm(median(submitW))
	v["serve.http_overhead_norm_s"] = g.norm(median(hitW) - median(directW))
	v["serve.cache_hit_norm_s.p50"] = g.norm(median(hitW))
	v["serve.encode_values_norm_s.p50"] = g.norm(median(valuesW))
	v["serve.response_bytes.values"] = float64(valueBytes)
	for i := range httpW {
		lat = append(lat, g.norm(httpW[i]))
	}
	return lat
}

// histQuantile merges the service's histograms called name with outcome
// ok and returns their q-quantile in seconds.
func histQuantile(tel obs.Telemetry, name string, q float64) float64 {
	var merged obs.HistogramSnapshot
	found := false
	for _, h := range tel.Histograms {
		if h.Name != name || h.Labels["outcome"] != serve.OutcomeOK {
			continue
		}
		if !found {
			merged, found = h, true
		} else {
			merged = merged.Merge(h)
		}
	}
	if !found {
		return 0
	}
	return merged.Quantile(q).Seconds()
}
