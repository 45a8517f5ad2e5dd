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
	// the edges the stored passes read beyond a split run's. split says
	// the fused pass has run, splitting off each partition's reverse input
	// (partState.rev).
	best   []graph.VertexID
	excess int64
	split  bool
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
			if e.unvisitedIn(p) == 0 || e.parts[p].rev.edges == 0 {
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
			return stream.NewCodecFramedEdgeWriter(e.rt.Vol, name, stayTiming, e.rt.Opts.StreamBufSize, e.rt.Meta.EdgeCodec())
		})
	var ix *storedIndex
	var in passInput
	var hs, ps passStats
	trim := e.pol.TrimActive(iter, e.run.Visited, e.rt.Meta.Vertices, UnknownEdges, UnknownEdges)
	if err == nil {
		defer outs.Abort() // whatever an error return leaves open
		outs.SetAsync()
		if ix, hs, err = e.reverseIndex(d.best, outs.W, trim); err == nil {
			// The open targets: unvisited and, trimming, not won by their head.
			in, ps, err = e.splitDataset(iter, ix, func(v graph.VertexID) bool {
				return !e.rt.VisitedBits.Get(v) && (!trim || !d.next.Get(v))
			}, true, trim, outs.W)
		}
		if err == nil {
			err = sealWriters(e.rt, outs)
		}
	}
	if err != nil {
		bs.End()
		return 0, 0, err
	}
	for p, c := range outs.Counts() {
		e.parts[p].rev = partInput{outs.Names[p], stayTiming, c}
	}
	d.split = true
	itRow.Sparse, itRow.FileBytes, itRow.FilePredicted = in.sparse, ps.read, in.predicted
	if in.sparse {
		bs.Attr("sparse", 1)
	}
	bs.Attr("bytes", ps.read).Attr("bytes_predicted", in.predicted)
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
// head is in the frontier wins it into best and joins e.dir.next, where the
// split pass's workers read it, and each open target — with
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
				e.dir.next.Set(v)
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

// bottomUpPartition runs partition p's bottom-up pass: the split pass
// (split.go) over its reverse input, which lists each target's in-edges in
// source order, so a target's first frontier in-edge is its smallest-id
// frontier parent, the winner top-down's gather would pick. The decoder
// drops the runs of visited targets (runs), each run checked to lie in the
// partition. While trimming, the pass writes the records of the targets
// still open to a reverse stay file that replaces the input; one that
// cannot be written degrades the partition to untrimmed rescans. A paper-pin
// run loads its vertex file (and writes it back) only when the pass
// discovered vertices.
func (e *kernel) bottomUpPartition(p, iter int, d *dirRun, itRow *metrics.Iteration, itSpan *obs.Span) (newly uint64, degSum float64, err error) {
	st := &e.parts[p]
	e.rt.AwaitFile(st.rev.name)
	sc, err := stream.NewEdgeScanner(e.rt.Vol, st.rev.name, st.rev.timing, e.rt.Opts.StreamBufSize)
	if err != nil {
		return 0, 0, err
	}
	defer sc.Close()
	sc.Prefetch(e.rt.Opts.PrefetchBuffers)
	plo, phi := e.rt.Parts.Interval(p)
	check := &runs{name: st.rev.name, verts: e.rt.Meta.Vertices, part: true, lo: plo, hi: phi,
		want: func(v graph.VertexID) bool { return !e.rt.VisitedBits.Get(v) }}

	var w []*stream.Writer[graph.Edge]
	var stay partInput
	if itRow.TrimActive && !st.revBroken {
		stay = partInput{name: e.revStayFile(iter, p), timing: e.otherTiming(st.rev.timing)}
		sw, err := stream.NewCodecFramedEdgeWriter(e.rt.Vol, stay.name, stay.timing, e.pol.StayBufSize, e.rt.Meta.EdgeCodec())
		switch {
		case err == nil:
			sw.SetAsync() // write-behind; the next pass barriers through AwaitFile
			w = make([]*stream.Writer[graph.Edge], e.rt.Parts.P())
			w[p] = sw
			defer sw.Abort() // whatever an error return leaves open
		case errors.Is(err, errs.ErrIOFailed):
			// Cannot create the stay file: degrade this partition to
			// untrimmed reverse rescans instead of failing the run.
			e.markStayBroken(&st.revBroken)
		default:
			return 0, 0, err
		}
	}

	bs := itSpan.Child("bottomup").SetPart(p)
	ps, err := e.splitPass(iter, passInput{sc: sc, check: check, depth: stream.PipelineDepth, total: st.rev.edges}, true, true, w)
	bs.Attr("edges", ps.scanned).Attr("kept", ps.kept).End()
	if errors.Is(err, errs.ErrCorrupted) {
		// Unlike a forward stay there is no wider fallback input once the
		// reverse chain has advanced: fail stop.
		return 0, 0, fmt.Errorf("%s: reverse input %s: %w", e.run.Engine, st.rev.name, err)
	} else if err != nil {
		return 0, 0, err
	}

	if w != nil {
		if err := w[p].Close(); err != nil {
			// The rewrite failed but the current input is intact:
			// degrade to untrimmed rescans of it.
			e.markStayBroken(&st.revBroken)
		} else {
			e.rt.RegisterReady(stay.name, w[p].LastOp())
			e.rt.Vol.Remove(st.rev.name)
			stay.edges = ps.stayed
			st.rev = stay
			e.bookStays(itRow, ps.scanned, ps.stayed)
		}
	}

	newly, degSum = e.formLevel(p, iter, d)
	if err := e.saveLevel(p, iter, newly, d, itSpan); err != nil {
		return 0, 0, err
	}
	itRow.EdgesStreamed += ps.scanned
	e.work(ps, newly)
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
