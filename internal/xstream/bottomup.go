package xstream

import (
	"cmp"
	"errors"
	"fmt"
	"io"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/stream"
)

// This file holds the kernel's bottom-up iterations (DESIGN.md §12), run
// by every engine built on the kernel; the policy (Direction, DirState,
// the bitmaps) is in direction.go. A partition's reverse input is trimmed
// like its forward one — a visited target's in-edges are dead, and a pass
// rewrites the rest to a checksummed reverse stay file that the next pass
// reads (with trimming off, X-Stream rescans its split). The stay is
// write-behind but never cancelled: the next pass needs it, and a corrupt
// one fails the run (errs.ErrCorrupted), as its predecessor is gone; one
// that cannot be written degrades the partition to untrimmed rescans. A
// partition with no unvisited vertex is skipped on the visited tallies,
// without I/O.

// dirRun is a streaming run's frontier bitmaps and the state of the passes
// that form a level without an update file, bottom-up and stored
// (split.go).
type dirRun struct {
	// frontier holds the current level's vertices — what a top-down scatter
	// expands, set by the gathers — and next collects the level a bottom-up
	// or stored pass is forming.
	frontier, next *Bitset
	// carryFrontier is the size of the frontier the last such pass formed,
	// reported by the next iteration, and carryDeg its out-degree sum.
	// unbooked marks one a stored pass formed, which the next row books
	// with carryUpdates applied updates (bookCarried).
	carryFrontier uint64
	carryDeg      float64
	carryUpdates  int64
	unbooked      bool
	// best is the pass's winner table (Runtime.Winners), and excess counts
	// the edges the stored passes read beyond a split run's.
	best   []graph.VertexID
	excess int64
	// revInput is each partition's reverse input once the fused first
	// pass has split it off (then, trimming, its reverse stay chain), on
	// revTiming's device, revEdges edges long (0: skipped); revBroken
	// marks one whose stay writes failed, rescanned untrimmed. split says
	// the fused pass has run.
	revInput  []string
	revTiming []stream.Timing
	revEdges  []int64
	revBroken []bool
	split     bool
}

// newDirRun allocates a streaming run's dirRun.
func (e *kernel) newDirRun() *dirRun {
	n, p := e.rt.Meta.Vertices, e.rt.Parts.P()
	return &dirRun{frontier: NewBitset(n), next: NewBitset(n),
		revInput: make([]string, p), revTiming: make([]stream.Timing, p),
		revBroken: make([]bool, p), revEdges: make([]int64, p)}
}

// revStayFile is partition p's reverse stay file written by the
// bottom-up pass of iteration iter.
func (e *kernel) revStayFile(iter, p int) string {
	return fmt.Sprintf("%s_rstay%d_%d", e.rt.Opts.FilePrefix, iter, p)
}

// unvisitedIn is partition p's count of still-unvisited vertices,
// derived from the running visited tally so no vertex file has to be
// loaded to evaluate the bottom-up skip rule.
func (e *kernel) unvisitedIn(p int) int64 {
	lo, hi := e.rt.Parts.Interval(p)
	return int64(hi-lo) - int64(e.parts[p].visitedCount)
}

// bottomUpIteration runs one whole bottom-up iteration. On a
// transition from a top-down scatter it first gathers the pending update
// set normally — forming this level the top-down way while building its
// frontier bitmap; after a pass that formed the level without one
// (formed: bottom-up, or stored) there is nothing to gather. It then splits
// the reverse-edge file if this is the run's first switch. Every bottom-up
// iteration ends with a reverse-input pass over each partition, and logs
// the level it forms (writeLog) in a checkpointed run. It returns the
// number of vertices that pass discovered; zero means the traversal is
// complete.
func (e *kernel) bottomUpIteration(iter int, formed bool, runSpan *obs.Span) (uint64, error) {
	itSpan := runSpan.Child("iteration").SetIter(iter)
	d := e.dir
	// The reverse stay chain keeps no edge counts for the trim rule.
	itRow := metrics.Iteration{Index: iter, BottomUp: true,
		TrimActive: e.pol.TrimActive(iter, e.run.Visited, e.rt.Meta.Vertices, UnknownEdges, UnknownEdges)}

	if !formed {
		// Transition pass: consume the update files the last top-down
		// scatter shuffled, exactly like a normal gather, recording the
		// formed frontier in the bitmap as it lands.
		d.frontier.Clear()
		var aDeg int64
		for p := 0; p < e.rt.Parts.P(); p++ {
			if err := e.rt.Checkpoint(); err != nil {
				return 0, err
			}
			st := &e.parts[p]
			if st.updates == 0 && e.pol.SelectiveScheduling {
				st.frontier = 0
				continue
			}
			v := e.tree
			var err error
			if v == nil {
				if v, err = e.loadVerts(p, itSpan); err != nil {
					return 0, err
				}
			}
			deg, err := e.gatherInto(p, iter, v, &itRow, itSpan)
			if err != nil {
				return 0, err
			}
			aDeg += deg
			if v != e.tree && st.frontier > 0 {
				if err := e.saveVerts(p, v, itSpan); err != nil {
					return 0, err
				}
			}
		}
		itRow.Frontier = itRow.NewlyVisited
		e.ds.RecordFrontier(itRow.Frontier, float64(aDeg), true)
	} else {
		itRow.Frontier = d.carryFrontier
		if d.unbooked { // a stored pass formed it: record it as the transition gather would have
			e.ds.RecordFrontier(d.carryFrontier, d.carryDeg, true)
			e.bookCarried(&itRow)
		}
	}

	d.next.Clear()
	d.best = e.rt.Winners(int(e.rt.Meta.Vertices))
	var newly uint64
	var degSum float64
	if !d.split {
		n, dg, err := e.fusedFirstBottomUp(iter, d, &itRow, itSpan)
		if err != nil {
			return 0, err
		}
		newly, degSum = n, dg
	} else {
		for p := 0; p < e.rt.Parts.P(); p++ {
			if err := e.rt.Checkpoint(); err != nil {
				return 0, err
			}
			if e.unvisitedIn(p) == 0 || d.revEdges[p] == 0 {
				e.parts[p].updates = 0
				e.parts[p].frontier = 0
				e.skip(&itRow)
				continue
			}
			n, dg, err := e.bottomUpPartition(p, iter, d, &itRow, itSpan)
			if err != nil {
				return 0, err
			}
			newly += n
			degSum += dg
		}
	}
	if err := e.writeLog(iter, d, itSpan); err != nil {
		return 0, err
	}
	e.run.Visited += newly
	e.ds.RecordFrontier(newly, degSum, true)
	e.ds.RecordBottomUp(itRow.EdgesStreamed)
	itRow.NewlyVisited += newly
	d.carryFrontier = newly
	d.frontier, d.next = d.next, d.frontier
	e.endIteration(itRow, itSpan.Attr("bottomup", 1))
	if !formed { // the transition consumed its update set
		e.dropUpdates(iter)
	}
	return newly, nil
}

// fusedFirstBottomUp is the run's first bottom-up pass, fused with the
// reverse split, and lazy: a run that stays top-down pays nothing. The
// transposed graph's index hands each open target its head (reverseIndex),
// then the reverse split pass (split.go) reads the open targets' tails,
// sparse when that pays. Both resolve winners into a global table and write
// each partition's reverse input for the next pass — late (the visited
// filter covers everything the transition just formed) and, while trimming,
// already winner-filtered. The winners are then booked partition by
// partition.
func (e *kernel) fusedFirstBottomUp(iter int, d *dirRun, itRow *metrics.Iteration, itSpan *obs.Span) (newly uint64, degSum float64, err error) {
	bs := itSpan.Child("reverse-split")
	stayTiming := e.otherTiming(e.rt.MainTiming())
	outs, err := stream.OpenWriterSet(e.rt.Vol, e.rt.Parts.P(), func(p int) string { return e.revStayFile(iter, p) },
		func(name string) (*stream.Writer[graph.Edge], error) {
			return stream.NewCodecFramedEdgeWriter(e.rt.Vol, name, stayTiming, e.rt.Opts.StreamBufSize, e.rt.Codec)
		})
	var ix *storedIndex
	var hs, ps passStats
	trim := e.pol.TrimActive(iter, e.run.Visited, e.rt.Meta.Vertices, UnknownEdges, UnknownEdges)
	if err == nil {
		defer outs.Abort() // whatever an error return leaves open
		outs.SetAsync()
		if ix, hs, err = e.reverseIndex(d.best, outs.W, trim); err == nil {
			ps, err = e.splitPass(iter, ix, true, trim, d.best, outs)
		}
		if err == nil {
			err = sealWriters(e.rt, outs)
		}
	}
	if err != nil {
		bs.End()
		return 0, 0, err
	}
	copy(d.revEdges, outs.Counts())
	for p := range d.revInput {
		d.revInput[p], d.revTiming[p] = outs.Names[p], stayTiming
	}
	d.split = true
	itRow.Sparse, itRow.FileBytes, itRow.FilePredicted = ps.sparse, ps.read, ps.predicted
	if ps.sparse {
		bs.Attr("sparse", 1)
	}
	bs.Attr("bytes", ps.read).Attr("bytes_predicted", ps.predicted)
	ps.scanned, ps.candidates, ps.stayed = ps.scanned+hs.scanned, ps.candidates+hs.candidates, ps.stayed+hs.stayed
	itRow.EdgesStreamed += ps.scanned
	if trim {
		e.bookStays(itRow, ps.scanned, ps.stayed)
	}
	bs.Attr("edges", ps.scanned).Attr("kept", ps.kept).Attr("stay_edges", ps.stayed).End()

	for p := 0; p < e.rt.Parts.P(); p++ {
		if err := e.rt.Checkpoint(); err != nil {
			return 0, 0, err
		}
		n, dg := e.formLevel(p, iter, d)
		if err := e.saveLevel(p, iter, n, d, itSpan); err != nil {
			return 0, 0, err
		}
		newly += n
		degSum += dg
	}
	e.work(ps, newly)
	return newly, degSum, nil
}

// reverseIndex reads the transposed graph's index, the tail counts into a
// table from the run's scratch. As it decodes, each unvisited target whose
// head is in the frontier wins it into best, and each open target — with
// dropWon, one that did not — has its head written to its partition's
// writer in w, ahead of its tails; hs counts the heads as a split pass
// counts edges. A graph stored without the index, or with a .rev of another
// layout, is errs.ErrCorrupted.
func (e *kernel) reverseIndex(best []graph.VertexID, w []*stream.Writer[graph.Edge], dropWon bool) (ix *storedIndex, hs passStats, err error) {
	rt := e.rt
	ix = &storedIndex{name: graph.ReverseFileName(rt.Meta.Name), magic: graph.FrameMagic,
		deg: chunk(&rt.scratch.tails, int(rt.Meta.Vertices)), grain: rt.grain()}
	if rt.Meta.EdgeCodec() == graph.CodecDelta {
		ix.magic = graph.FrameMagicDelta
	}
	if ix.size, err = rt.Vol.Size(ix.name); err != nil {
		return nil, hs, err
	}
	front, visited := e.dir.frontier, rt.VisitedBits
	var werr error
	err = rt.readIndexFile(graph.ReverseIndexFileName(rt.Meta.Name), func(int64) bool { return true }, func(r io.Reader, isz int64) (err error) {
		ix.frames, err = graph.ReadReverseIndex(r, isz, rt.Meta, ix.size, rt.Bufs, func(v graph.VertexID, deg uint32, head graph.VertexID) {
			ix.deg[v] = max(deg, 1) - 1
			ix.edges += int64(ix.deg[v])
			if deg == 0 {
				return
			}
			if hs.scanned++; visited.Get(v) {
				return
			}
			won := front.Get(head)
			if won {
				hs.candidates++
				best[v] = head
			}
			if werr == nil && !(dropWon && won) {
				if werr = w[rt.Parts.Of(v)].Append(graph.Edge{Src: v, Dst: head}); werr == nil {
					hs.stayed++
				}
			}
		})
		return cmp.Or(err, werr)
	})
	return ix, hs, err
}

// bottomUpPartition scans one partition's reverse-edge input against
// the frontier bitmap. The input lists each target's in-edges in source
// order, so a target's first frontier in-edge is its smallest-id frontier
// parent, the winner top-down's gather would pick: the first hit wins. When
// trimming is active the edges that survive the trim rule — target still
// unvisited when its stay decision merges — are rewritten to a reverse stay
// file that replaces the input. A delta input's decoder drops the runs of
// visited targets (runs), each run checked to lie in the
// partition. Classification needs only the in-RAM visited bitmap, so a paper-pin run loads its vertex file (and writes it
// back) only when the scan actually discovered vertices. Classification
// runs on the pool's workers against read-only state; winners and stay
// appends are resolved on the engine thread in chunk order, so file bytes
// and results are identical for any worker count.
func (e *kernel) bottomUpPartition(p, iter int, d *dirRun, itRow *metrics.Iteration, itSpan *obs.Span) (newly uint64, degSum float64, err error) {
	e.rt.AwaitFile(d.revInput[p])
	sc, err := stream.NewEdgeScanner(e.rt.Vol, d.revInput[p], d.revTiming[p], e.rt.Opts.StreamBufSize)
	if err != nil {
		return 0, 0, err
	}
	defer sc.Close()
	sc.Prefetch(e.rt.Opts.PrefetchBuffers)
	plo, phi := e.rt.Parts.Interval(p)
	check := &runs{name: d.revInput[p], verts: e.rt.Meta.Vertices, part: true, lo: plo, hi: phi,
		want: func(v graph.VertexID) bool { return !e.rt.VisitedBits.Get(v) }}

	var stay *stream.Writer[graph.Edge]
	var stayTiming stream.Timing
	if itRow.TrimActive && !d.revBroken[p] {
		stayTiming = e.otherTiming(d.revTiming[p])
		w, werr := stream.NewCodecFramedEdgeWriter(e.rt.Vol, e.revStayFile(iter, p), stayTiming, e.pol.StayBufSize, e.rt.Codec)
		switch {
		case werr == nil:
			w.SetAsync() // write-behind; the next pass barriers through AwaitFile
			stay = w
		case errors.Is(werr, errs.ErrIOFailed):
			// Cannot create the stay file: degrade this partition to
			// untrimmed reverse rescans instead of failing the run.
			e.markStayBroken(&d.revBroken[p])
		default:
			return 0, 0, werr
		}
	}

	best, trim := d.best, stay != nil
	var scanned, kept, candidates, stayed int64
	classify := func(edges []graph.Edge, out *stream.Shard) {
		out.Scanned = int64(len(edges))
		for _, r := range edges {
			if e.rt.VisitedBits.Get(r.Src) {
				continue // target has its parent — dead in-edge
			}
			if cand := d.frontier.Get(r.Dst); cand || trim {
				out.Stays = append(out.Stays, r)
				if cand {
					out.Emitted++
				}
			}
		}
	}
	merge := func(s *stream.Shard) error {
		scanned, kept = scanned+s.Read, kept+s.Scanned
		candidates += s.Emitted
		for _, r := range s.Stays {
			if best[r.Src] == graph.NoVertex && d.frontier.Get(r.Dst) {
				best[r.Src] = r.Dst
			}
		}
		if !trim {
			return nil
		}
		// The candidates merged so far (strictly in chunk order, so the
		// filter is deterministic for any worker count) are vertices
		// that WILL be visited when this pass ends: their remaining
		// in-edges are dead too, and dropping them here is what keeps
		// the first reverse stay from being a full rewrite of the pass
		// that discovers most of the graph.
		for _, r := range s.Stays {
			if best[r.Src] != graph.NoVertex {
				continue
			}
			stayed++
			if err := stay.Append(r); err != nil {
				return err
			}
		}
		return nil
	}
	bs := itSpan.Child("bottomup").SetPart(p)
	if err := e.pool.RunScannerDepth(sc, stream.PipelineDepth, check, classify, merge); err != nil {
		bs.End()
		if stay != nil {
			stay.Abort()
		}
		if errors.Is(err, errs.ErrCorrupted) {
			// Unlike a forward stay there is no wider fallback input
			// once the reverse chain has advanced: fail stop.
			return 0, 0, fmt.Errorf("%s: reverse input %s: %w", e.run.Engine, d.revInput[p], err)
		}
		return 0, 0, err
	}
	bs.Attr("edges", scanned).Attr("kept", kept).End()

	if stay != nil {
		if cerr := stay.Close(); cerr != nil {
			// The rewrite failed but the current input is intact:
			// degrade to untrimmed rescans of it.
			e.markStayBroken(&d.revBroken[p])
		} else {
			e.rt.RegisterReady(e.revStayFile(iter, p), stay.LastOp())
			e.rt.Vol.Remove(d.revInput[p])
			d.revInput[p] = e.revStayFile(iter, p)
			d.revTiming[p] = stayTiming
			d.revEdges[p] = stayed
			e.bookStays(itRow, scanned, stayed)
		}
	}

	newly, degSum = e.formLevel(p, iter, d)
	if err := e.saveLevel(p, iter, newly, d, itSpan); err != nil {
		return 0, 0, err
	}
	itRow.EdgesStreamed += scanned
	e.work(passStats{scanned: scanned, candidates: candidates, stayed: stayed}, newly)
	return newly, degSum, nil
}

// saveLevel writes the newly vertices partition p won in d.best to its
// vertex file as level iter+1, with one load and one save: the paper pin's
// bottom-up passes. Any other run's tree has it from formLevel.
func (e *kernel) saveLevel(p, iter int, newly uint64, d *dirRun, itSpan *obs.Span) error {
	if e.tree != nil || newly == 0 {
		return nil
	}
	v, err := e.loadVerts(p, itSpan)
	if err != nil {
		return err
	}
	lo, hi := e.rt.Parts.Interval(p)
	for i, b := range d.best[lo:hi] {
		if b != graph.NoVertex {
			v.Level[i], v.Parent[i] = uint32(iter)+1, b
		}
	}
	return e.saveVerts(p, v, itSpan)
}
