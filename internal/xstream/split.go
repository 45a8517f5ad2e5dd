package xstream

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"fastbfs/internal/disksim"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// This file holds the split pass (DESIGN.md §5, §12), the one pass that
// forms a level from a winner table, and can write each partition's input
// on the way. Forward, over the stored edge list, it is each top-down
// iteration of a FastBFS run that trims by the counts until writing the
// partitions pays (storedIteration); other runs split up front with
// Prepare. Reverse, it is a run's first bottom-up pass over the transposed
// graph (fusedFirstBottomUp) and each later one over a partition's reverse
// input (bottomUpPartition). Every pass keeps the first parent it meets,
// the winner top-down's gather would: the smallest-id frontier parent, as
// graph.StoreGraph sorts the edge list by source and the transposed graph
// by target and then by source, and every partition file is an
// order-preserving subsequence of its dataset file, whichever pass forms a
// level and whatever the partition count.

// passInput is what a split pass reads: sc, opened, under check's run
// checks, depth chunks classified ahead of the merge, holding total
// records. A sparse read (of a dataset file's ranges, sparseRuns) is
// checked against its ranges instead, and predicted is their bytes.
type passInput struct {
	sc        *stream.Scanner[graph.Edge]
	check     *runs
	depth     int
	total     int64
	sparse    bool
	predicted int64
}

// passStats is what a split pass counted: edges scanned, those it kept for
// classify (the rest belong to sources it does not want), the frontier's
// among them (emitted, before any filter), those to an unvisited vertex
// (candidates), vertices that won a parent (claims), edges written
// (stayed), the out-degree sum over the emitted edges' targets, and the
// bytes it read.
type passStats struct {
	scanned, kept, emitted, candidates, claims, stayed, candDeg, read int64
}

// splitDataset runs a split pass over a dataset file: without an index the
// stored edge file, whole; over one (ix), the ranges of the vertices want
// accepts when that pays (sparseRuns), else the whole file, keeping only
// those vertices' runs for classify.
func (e *kernel) splitDataset(iter int, ix *storedIndex, want func(graph.VertexID) bool, rev, dropWon bool, w []*stream.Writer[graph.Edge]) (in passInput, ps passStats, err error) {
	check := &runs{name: graph.EdgeFileName(e.rt.Meta.Name), verts: e.rt.Meta.Vertices, v: -1}
	in.check, in.depth, in.total = check, 2, int64(e.rt.Meta.Edges)
	if ix != nil {
		check.name, check.want, check.ix, in.total = ix.name, want, ix, ix.edges
		if check.ranges, in.predicted, in.sparse = ix.sparseRuns(want); !in.sparse {
			check.ranges = []stream.Range{{Len: ix.size}} // the whole file
		}
	}
	if in.sparse {
		in.sc, err = stream.NewRangeScanner(e.rt.Vol, check.name, e.rt.MainTiming(), e.rt.Opts.StreamBufSize, check.ranges, ix.magic)
	} else {
		in.sc, err = stream.NewEdgeScanner(e.rt.Vol, check.name, e.rt.MainTiming(), e.rt.Opts.StreamBufSize)
	}
	if err != nil {
		return in, ps, err
	}
	defer in.sc.Close()
	ps, err = e.splitPass(iter, in, rev, dropWon, w)
	return in, ps, err
}

// splitPass streams in against e.dir.frontier, resolving into e.dir.best
// the parent each unvisited vertex wins: a forward edge offers its
// destination its source, a record {target, source} (rev) its target its
// source. Workers classify against state the pass does not change; the
// engine thread merges each chunk in scan order, sparse or dense alike, so
// files and results are the same for any worker count. The merge claims
// all the chunk's winners first, then writes to w, by partition, each edge
// whose source (a record's target) is open: unvisited and, with dropWon,
// not won — its other in-edges are dead. Without an index iteration 0
// counts the degree table. A malformed edge, a source (a record's target)
// out of place, or a record count off in.total is errs.ErrCorrupted, in a
// run kept or not.
func (e *kernel) splitPass(iter int, in passInput, rev, dropWon bool, w []*stream.Writer[graph.Edge]) (ps passStats, err error) {
	front, visited, parts, best := e.dir.frontier, e.rt.VisitedBits, e.rt.Parts, e.dir.best
	// Without an index, iteration 0 counts the table as it scans, and sums
	// α's look-ahead over the root's out-edges once the count is complete.
	// Only a forward pass's look-ahead is read (storedIteration).
	count, deg := !rev && iter == 0 && e.index == nil, e.filter.outDeg
	var rootOut []graph.VertexID
	if count || rev {
		deg = nil
	}
	ends := func(x graph.Edge) (key, par graph.VertexID) {
		if rev {
			return x.Src, x.Dst
		}
		return x.Dst, x.Src
	}
	classify := func(edges []graph.Edge, out *stream.Shard) {
		out.Scanned = int64(len(edges))
		for _, x := range edges {
			key, par := ends(x)
			cand := front.Get(par)
			if cand {
				out.Emitted++
				if deg != nil {
					out.CandDeg += int64(deg[key])
				}
				cand = !visited.Get(key)
			}
			if cand || count || w != nil && !visited.Get(x.Src) {
				out.Stays = append(out.Stays, x)
			}
		}
	}
	merge := func(s *stream.Shard) error {
		ps.scanned, ps.kept = ps.scanned+s.Read, ps.kept+s.Scanned
		ps.emitted += s.Emitted
		ps.candDeg += s.CandDeg
		for _, x := range s.Stays {
			key, par := ends(x)
			if count {
				e.rt.OutDeg[x.Src]++
			}
			if front.Get(par) {
				if count && e.filter.outDeg != nil {
					rootOut = append(rootOut, key)
				}
				if !visited.Get(key) {
					ps.candidates++
					if best[key] == graph.NoVertex {
						best[key] = par
						ps.claims++
					}
				}
			}
		}
		if w == nil {
			return nil
		}
		for _, x := range s.Stays {
			if visited.Get(x.Src) || dropWon && best[x.Src] != graph.NoVertex {
				continue
			}
			if err := w[parts.Of(x.Src)].Append(x); err != nil {
				return err
			}
			ps.stayed++
		}
		return nil
	}
	if err := e.pool.RunScannerDepth(in.sc, in.depth, in.check, classify, merge); err != nil {
		return ps, err
	}
	if c := in.check; c.ix != nil && c.due+int64(len(c.ranges)) > 0 {
		return ps, fmt.Errorf("%w: %s: a range ends short of its edges", errs.ErrCorrupted, c.name)
	}
	if !in.sparse && ps.scanned != in.total {
		return ps, fmt.Errorf("%w: %s has %d edges, its index, config or writer %d", errs.ErrCorrupted, in.check.name, ps.scanned, in.total)
	}
	ps.read = in.sc.BytesRead()
	for _, v := range rootOut {
		ps.candDeg += int64(e.rt.OutDeg[v])
	}
	return ps, nil
}

// work is a split pass's compute charge, with newly the vertices it visited.
func (e *kernel) work(ps passStats, newly uint64) {
	c := e.rt.Costs
	e.rt.Compute(float64(ps.scanned)*c.ScatterPerEdge + float64(ps.candidates)*c.GatherPerUpdate +
		float64(newly)*c.PerVertex + float64(ps.stayed)*c.AppendPerStay)
}

// storedIteration is top-down iteration iter of a run still streaming the
// stored edge file (e.stored). One forward split pass forms the next level
// as a bottom-up pass would, with no update file, and logs it (writeLog);
// the row books what the scatter it replaces would have emitted and
// filtered, the next row the level, as the gather would have. The pass also
// writes every partition's file — each edge whose source is unvisited, a
// partition's live edges — once that pays by the trim rule: its write, W,
// at most the reads it saves the next pass (the stored file less R, the
// live edges of the partitions holding the frontier) or, while a split
// run's pass would read at most half the stored file, those the stored
// passes read beyond a split run's so far (d.excess, of the edges each pass
// read). Iteration 0 never splits. A capped run's last iteration forms
// nothing, as the updates its scatter would write are never gathered (its
// log serves a checkpointed run's resume). afterBottom says a bottom-up
// pass formed this frontier.
func (e *kernel) storedIteration(iter int, last, afterBottom bool, runSpan *obs.Span) (done bool, err error) {
	d := e.dir
	itSpan := runSpan.Child("iteration").SetIter(iter).Attr("stored", 1)
	itRow := metrics.Iteration{Index: iter, Stored: true,
		TrimActive: e.pol.TrimActive(iter, e.run.Visited, e.rt.Meta.Vertices, UnknownEdges, UnknownEdges)}
	n, edges := e.rt.Meta.Vertices, int64(e.rt.Meta.Edges)
	var live, kept int64 // R and W
	if iter == 0 {
		e.markRoot(&itRow)
		itRow.Frontier = 1
	} else {
		itRow.Frontier = d.carryFrontier
		e.bookCarried(&itRow)
		for p := range e.parts {
			if e.parts[p].frontier > 0 {
				live += e.parts[p].live
			}
			kept += e.parts[p].live
		}
	}
	pays := func(saved int64) bool { return e.pol.TrimActive(iter, e.run.Visited, n, kept, kept+saved) }
	var outs *stream.WriterSet[graph.Edge]
	if iter > 0 && !last && (pays(edges-live) || e.pol.TrimActive(iter, e.run.Visited, n, live, edges) && pays(d.excess)) {
		if outs, err = e.rt.openEdgeFiles(); err != nil {
			return false, err
		}
		defer outs.Abort() // whatever an error return leaves open
	}

	d.next.Clear()
	d.best = e.rt.Winners(int(n))
	ss := itSpan.Child("scatter")
	var w []*stream.Writer[graph.Edge]
	if outs != nil {
		w = outs.W
	}
	in, ps, err := e.splitDataset(iter, e.index, func(v graph.VertexID) bool {
		return d.frontier.Get(v) || w != nil && !e.rt.VisitedBits.Get(v)
	}, false, false, w)
	if err == nil && outs != nil {
		err = sealWriters(e.rt, outs)
	}
	if err != nil {
		ss.End()
		return false, err
	}
	itRow.EdgesStreamed, itRow.Sparse, itRow.FileBytes, itRow.FilePredicted = ps.scanned, in.sparse, ps.read, in.predicted
	if in.sparse {
		ss.Attr("sparse", 1)
		itSpan.Attr("sparse", 1)
	}
	ss.Attr("bytes", ps.read).Attr("bytes_predicted", in.predicted)
	if outs == nil && iter > 0 {
		d.excess += ps.scanned - live
	}
	if outs != nil {
		e.stored, e.ds.StoredPrice = false, 0
		for p, c := range outs.Counts() {
			e.parts[p].input.edges = c
		}
		itRow.StayPredicted = kept
		e.bookStays(&itRow, ps.scanned, ps.stayed)
		ss.Attr("live", live).Attr("stay_predicted", kept)
	}
	ss.Attr("edges", ps.scanned).Attr("kept", ps.kept).Attr("stayed", ps.stayed).End()

	if iter == 0 { // the table just counted gives each partition its live edges
		rootDeg := e.countLive()
		rp := &e.parts[e.rt.Parts.Of(e.rt.Opts.Root)]
		d.excess = ps.scanned - rp.live - rootDeg // a split run's iteration 0 reads the root's partition
	}
	if err := e.writeLog(iter, d, itSpan); err != nil {
		return false, err
	}
	if last {
		d.best = e.rt.Winners(int(n))
	}
	// The replaced scatter would have written, through the update filter,
	// the first claim on each unvisited destination; without it, all.
	wave := &e.filter.Wave
	*wave = Wave{Emitted: ps.emitted, Written: ps.claims, CandDeg: ps.candDeg}
	if e.filter.claimed == nil {
		wave.Written = wave.Emitted
	}
	var newly uint64
	var degSum float64
	for p := range e.parts {
		k, dg := e.formLevel(p, iter, d)
		newly, degSum = newly+k, degSum+dg
	}
	e.work(ps, newly)
	e.ds.RecordFrontier(itRow.Frontier, float64(wave.Emitted), !afterBottom)
	e.ds.RecordScatter(wave.Emitted, float64(wave.CandDeg))
	d.frontier, d.next = d.next, d.frontier
	d.carryFrontier, d.carryDeg, d.carryUpdates, d.unbooked = newly, degSum, wave.Written, true
	itRow.Filtered = wave.Filtered()
	e.endIteration(itRow, itSpan)
	return wave.Written == 0, nil
}

// formLevel books partition p's winners in d.best — the level iteration
// iter forms, in the bitmaps, the partition's counts and the run's tree —
// and returns their number and out-degree sum; the paper pin's saveLevel
// writes them to its vertex file.
func (e *kernel) formLevel(p, iter int, d *dirRun) (uint64, float64) {
	lo, hi := e.rt.Parts.Interval(p)
	var n uint64
	var deg int64
	for v := lo; v < hi; v++ {
		if d.best[v] != graph.NoVertex {
			d.next.Set(v)
			e.rt.VisitedBits.Set(v)
			n++
			deg += e.rt.outDegree(v)
			if e.tree != nil {
				e.tree.Level[v], e.tree.Parent[v] = uint32(iter)+1, d.best[v]
			}
		}
	}
	st := &e.parts[p]
	st.updates, st.frontier = int64(n), n
	st.visit(n, deg)
	return n, float64(deg)
}

// countLive sets each partition's live edges from a degree table just
// counted — the out-degree sum of its unvisited vertices — and returns the
// frontier's, which is visited.
func (e *kernel) countLive() (frontierDeg int64) {
	for p := range e.parts {
		e.parts[p].live = 0
	}
	for v, deg := range e.rt.OutDeg {
		switch vid := graph.VertexID(v); {
		case !e.rt.VisitedBits.Get(vid):
			e.parts[e.rt.Parts.Of(vid)].live += int64(deg)
		case e.dir.frontier.Get(vid):
			frontierDeg += int64(deg)
		}
	}
	return frontierDeg
}

// bookCarried books into itRow the level the last stored pass formed as
// the gather it replaced would have: newly visited vertices, and the
// updates the replaced scatter would have written. A no-op once booked,
// and after any other pass.
func (e *kernel) bookCarried(itRow *metrics.Iteration) {
	if d := e.dir; d.unbooked {
		d.unbooked = false
		itRow.NewlyVisited += d.carryFrontier
		itRow.Updates += d.carryUpdates
		e.run.Visited += d.carryFrontier
	}
}

// storedIndex is a dataset file's index: the stored edge file's (DESIGN.md
// §5), whose degrees are OutDeg, or the transposed graph's (§12), whose
// count each vertex's tails. It names the file and its container (magic 0:
// raw fixed records, with no frames), its frames' offsets, each frame
// graph.IndexFrameEdges edges, the file's bytes and edges, and the grain,
// the bytes a positioning is worth.
type storedIndex struct {
	name               string
	magic              uint32
	deg                []uint32
	frames             []int64
	size, edges, grain int64
}

// grain is the bytes a positioning of the main disk is worth: 64 KiB on a
// real volume, seek time at the bandwidth on a simulated one.
func (rt *Runtime) grain() int64 {
	if sim := rt.Opts.Sim; sim != nil {
		return int64(sim.MainDisk.SeekLatency * sim.MainDisk.Bandwidth)
	}
	return 64 << 10
}

// openIndex loads the degrees into OutDeg for a run entering its stored
// phase. It leaves e.index nil — the run counts and reads dense — when the
// least a sparse pass reads (a delta frame at the file's mean bytes an
// edge), a grain and the index reach the file. A graph with no index was
// stored before it, and is errs.ErrCorrupted: its edges may not be sorted
// by source, which the stored passes' parents rely on.
func (e *kernel) openIndex() error {
	rt := e.rt
	ix := &storedIndex{name: graph.EdgeFileName(rt.Meta.Name), deg: rt.OutDeg,
		size: int64(rt.Meta.DataBytes()), edges: int64(rt.Meta.Edges), grain: rt.grain()}
	var least int64
	if rt.Meta.EdgeCodec() == graph.CodecDelta {
		ix.magic, ix.size = graph.FrameMagicDelta, int64(rt.Meta.StoredBytes)
		least = ix.size * min(graph.IndexFrameEdges, ix.edges) / max(ix.edges, 1)
	}
	return rt.readIndexFile(graph.IndexFileName(rt.Meta.Name), func(isz int64) bool { return least+ix.grain+isz < ix.size },
		func(r io.Reader, isz int64) (err error) {
			if ix.frames, err = graph.ReadIndex(r, isz, rt.Meta, rt.OutDeg, rt.Bufs); err == nil {
				e.index = ix
			}
			return err
		})
}

// readIndexFile hands read the run's index file name, when pays allows its
// size, and charges the read to the main disk. A graph without the
// file was stored before it: errs.ErrCorrupted.
func (rt *Runtime) readIndexFile(name string, pays func(isz int64) bool, read func(r io.Reader, isz int64) error) error {
	isz, err := rt.Vol.Size(name)
	if errors.Is(err, storage.ErrNotExist) {
		return fmt.Errorf("graph %s: %w: no index %s (store the graph again)", rt.Meta.Name, errs.ErrCorrupted, name)
	} else if err != nil || !pays(isz) {
		return err
	}
	rr, err := stream.OpenRange(rt.Vol, name, rt.Retry)
	if err != nil {
		return err
	}
	defer rr.Close()
	if err := read(io.NewSectionReader(rr, 0, isz), isz); err != nil {
		return err
	}
	rt.MainTiming().Read(isz, disksim.NewStreamID())
	return nil
}

// span is the byte range of the stored file holding its edges [lo, hi): at
// edge grain in a fixed file, at frame grain in a delta one.
func (ix *storedIndex) span(lo, hi int64) (off, end int64) {
	if ix.frames == nil {
		return lo * graph.EdgeBytes, hi * graph.EdgeBytes
	}
	end = ix.size - 8 // the terminator frame
	if g := (hi-1)/graph.IndexFrameEdges + 1; g < int64(len(ix.frames)) {
		end = ix.frames[g]
	}
	return ix.frames[lo/graph.IndexFrameEdges], end
}

// edgesOf is the edges [first, last) a range of spans holds.
func (ix *storedIndex) edgesOf(r stream.Range) (first, last int64) {
	if ix.frames == nil {
		return r.Off / graph.EdgeBytes, (r.Off + r.Len) / graph.EdgeBytes
	}
	f, _ := slices.BinarySearch(ix.frames, r.Off)
	g, _ := slices.BinarySearch(ix.frames, r.Off+r.Len) // len(frames) at the terminator
	return int64(f) * graph.IndexFrameEdges, min(int64(g)*graph.IndexFrameEdges, ix.edges)
}

// sparseRuns returns the ranges of the file holding the edges of the
// vertices a pass wants, in file order, merged across gaps under a grain,
// and their bytes; or sparse false, for a dense pass, once bytes plus a grain
// a range reach the file's.
func (ix *storedIndex) sparseRuns(want func(graph.VertexID) bool) (runs []stream.Range, bytes int64, sparse bool) {
	var pos int64
	for v, d := range ix.deg {
		lo := pos
		if pos += int64(d); d == 0 || !want(graph.VertexID(v)) {
			continue
		}
		off, end := ix.span(lo, pos)
		if n := len(runs); n > 0 && off-runs[n-1].Off-runs[n-1].Len < ix.grain {
			grown := max(runs[n-1].Len, end-runs[n-1].Off)
			bytes, runs[n-1].Len = bytes+grown-runs[n-1].Len, grown
		} else {
			runs, bytes = append(runs, stream.Range{Off: off, Len: end - off}), bytes+end-off
		}
		if bytes+int64(len(runs))*ix.grain >= ix.size {
			return nil, 0, false
		}
	}
	return runs, bytes, true
}

func descending(name string, src, last graph.VertexID) error {
	return fmt.Errorf("%w: %s: source %d follows %d; the file predates sorting by source, store the graph again",
		errs.ErrCorrupted, name, src, last)
}

// runs is a pass's run checks (stream.Hints): they check each run of
// records the pass reads, kept or not, and keep those whose source want
// accepts (nil: every run). Every endpoint is a vertex of the graph, and,
// by what the pass reads:
//   - a dataset file with an index (ix), read whole or in a sparse pass's
//     ranges (edgesOf): each edge has the source the index places there;
//   - a dataset file without one: no source below the one before it;
//   - a partition's reverse input (part): every source in [lo, hi).
//
// Anything else is errs.ErrCorrupted. Each chunk's worker checks a copy
// (Chunk) and asks want, which reads only state the pass does not change:
// the merges drop the records of the targets the pass itself wins.
type runs struct {
	name   string
	verts  uint64
	want   func(graph.VertexID) bool
	last   graph.VertexID
	part   bool
	lo, hi graph.VertexID
	ix     *storedIndex
	ranges []stream.Range
	// v is the source of edge at, vEnd the edges before v+1's, and due
	// what the current range still holds.
	v             int
	vEnd, at, due int64
	// first is a chunk's first source without an index (NoVertex: none).
	first graph.VertexID
}

// Chunk is the checks of the pass's next n records; with an index, it
// moves the pass's checks past them.
func (c *runs) Chunk(old stream.ChunkHint, n int) stream.ChunkHint {
	h, ok := old.(*runs)
	if !ok {
		h = new(runs)
	}
	*h = *c
	h.last, h.first = 0, graph.NoVertex
	if c.ix == nil {
		return h
	}
	c.place()
	for left := int64(n); left > 0 && c.due > 0; c.place() {
		k := min(left, c.due)
		c.at, c.due, left = c.at+k, c.due-k, left-k
	}
	return h
}

// place moves the checks to the next edge the pass reads: into the next
// range once one is done, and to the source whose edges hold it.
func (c *runs) place() {
	if c.due == 0 && len(c.ranges) > 0 {
		first, last := c.ix.edgesOf(c.ranges[0])
		c.at, c.due, c.ranges = first, last-first, c.ranges[1:]
	}
	for c.due > 0 && c.vEnd <= c.at {
		c.v++
		c.vEnd += int64(c.ix.deg[c.v])
	}
}

// Merged checks, without an index, a chunk's first source against the
// chunks' before it.
func (c *runs) Merged(hint stream.ChunkHint) error {
	h := hint.(*runs)
	if c.ix == nil && h.first < c.last {
		return descending(c.name, h.first, c.last)
	}
	c.last = h.last
	return nil
}

func (c *runs) Keep(src graph.VertexID, n int) (bool, error) {
	switch {
	case uint64(src) >= c.verts:
		return false, fmt.Errorf("%w: %s: a run of source %d, not a vertex (vertices=%d)", errs.ErrCorrupted, c.name, src, c.verts)
	case c.ix != nil:
		c.place()
		if int64(n) > min(c.due, c.vEnd-c.at) || src != graph.VertexID(c.v) {
			return false, fmt.Errorf("%w: %s: %d edges of %d where the index has %d of %d's", errs.ErrCorrupted, c.name, n, src, min(c.due, c.vEnd-c.at), c.v)
		}
		c.at, c.due = c.at+int64(n), c.due-int64(n)
	case c.part:
		if src < c.lo || src >= c.hi {
			return false, fmt.Errorf("%w: %s: a run of source %d outside partition [%d,%d)", errs.ErrCorrupted, c.name, src, c.lo, c.hi)
		}
	case src < c.last:
		return false, descending(c.name, src, c.last)
	default:
		c.first, c.last = min(c.first, src), src
	}
	return c.want == nil || c.want(src), nil
}

// Records checks a chunk of fixed-width records, all kept, as runs: with
// an index, the edges a range holds of the source placed there (past the
// ranges, one edge, which Keep refuses); without, each stretch of a source.
func (c *runs) Records(edges []graph.Edge) error {
	for i, j := 0, 0; i < len(edges); i = j {
		src := edges[i].Src
		if j = i + 1; c.ix != nil {
			c.place()
			j = i + int(min(int64(len(edges)-i), max(min(c.due, c.vEnd-c.at), 1)))
		}
		for c.ix == nil && j < len(edges) && edges[j].Src == src {
			j++
		}
		if _, err := c.Keep(src, j-i); err != nil {
			return err
		}
		for _, x := range edges[i:j] {
			if x.Src != src || uint64(x.Dst) >= c.verts {
				return cmp.Or(c.Last(x.Dst), fmt.Errorf("%w: %s: an edge of %d among the index's of %d", errs.ErrCorrupted, c.name, x.Src, src))
			}
		}
	}
	return nil
}

func (c *runs) Last(dst graph.VertexID) error {
	if uint64(dst) >= c.verts {
		return fmt.Errorf("%w: %s: a run ending at %d, not a vertex (vertices=%d)", errs.ErrCorrupted, c.name, dst, c.verts)
	}
	return nil
}
