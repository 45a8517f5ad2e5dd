package xstream

import (
	"errors"
	"fmt"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/stream"
)

// This file holds the kernel's bottom-up iterations (DESIGN.md §12):
// the one out-of-core form of the direction-optimizing (Beamer-style
// hybrid) BFS, run by every engine built on the kernel. The policy
// machinery — Direction, DirState, the frontier bitmaps, the byte-identity
// winner rule — is in direction.go; this is how the passes stream, and
// how they compose with the trimming idea when the Policy has it on:
//
//   - Each partition's reverse-edge input is trimmed the same way the
//     forward input is: while a bottom-up pass scans partition p's
//     in-edges, every edge whose target vertex was already visited at
//     scan start is dropped, and the survivors are rewritten to a
//     checksummed *reverse stay file* that replaces the input for the
//     next bottom-up pass. A visited vertex has its parent forever, so
//     its in-edges are dead — this is the trim rule transposed to the
//     in-edge direction, and it makes consecutive bottom-up passes read
//     a fast-shrinking stream. With trimming off (X-Stream) a partition
//     keeps rescanning the input the first pass split off for it.
//   - Reverse stay files are written write-behind (SetAsync with an
//     AwaitFile barrier) but without the forward path's grace-and-
//     cancel: a reverse stay is consumed by the immediately following
//     pass, so there is no cross-iteration latency to hide. A reverse
//     input whose checksummed frames fail verification fails the run
//     with errs.ErrCorrupted — unlike a forward stay there is no wider
//     fallback input once the chain has advanced and the predecessor
//     was removed. A stay file that cannot be created or closed
//     degrades the partition to rescanning its current reverse input
//     untrimmed.
//   - A partition with no unvisited vertices left is skipped wholesale
//     (no vertex load, no reverse scan) — the unvisited counts come
//     from running per-partition visited tallies, so evaluating the
//     skip rule costs no I/O — and the per-partition newly-visited
//     counts seed the update/frontier state selective scheduling
//     consults when β hands the run back to top-down.
//
// Checkpointed runs pin the direction to top-down (RunPolicy): bottom-up
// state (bitmaps, reverse stay chains) is not manifest-covered, and the
// resume guarantees only hold for the scatter/gather loop. Residency
// stays forward-only — a promoted partition's RAM-resident edges are
// forward edges, so bottom-up passes read its reverse input from the
// device like any other partition's.

// dirRun is the kernel's bottom-up working state, allocated at the
// first top-down→bottom-up transition.
type dirRun struct {
	// frontier holds the current level's vertices; next collects the
	// level being formed.
	frontier, next *Bitset
	// carryFrontier is the size of the frontier formed by the last
	// bottom-up pass, reported by the following iteration.
	carryFrontier uint64
	// revInput is each partition's current reverse-edge input, once the
	// fused first pass has split it off — that pass's file first, then,
	// under trimming, the chain of reverse stay files.
	revInput  []string
	revTiming []stream.Timing
	// revBroken marks partitions whose reverse stay writes failed
	// permanently; they rescan their current input untrimmed.
	revBroken []bool
	// revEdges is the edge count of each partition's current reverse
	// input: a partition whose reverse input ran dry can never produce a
	// candidate again and is skipped without touching the device.
	revEdges []int64
	// split records that the fused first pass has consumed the
	// dataset's reverse-edge file and produced the per-partition
	// inputs.
	split bool
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
// transition (the previous iteration was top-down) it first gathers the
// pending update set normally — forming this level the top-down way
// while building its frontier bitmap — then splits the reverse-edge
// file if this is the run's first switch. Every bottom-up iteration
// ends with a reverse-input pass over each partition. It returns the
// number of vertices that pass discovered; zero means the traversal is
// complete.
func (e *kernel) bottomUpIteration(iter int, wasBottom bool, runSpan *obs.Span) (uint64, error) {
	itSpan := runSpan.Child("iteration").SetIter(iter)
	e.ctr.Iteration.Set(int64(iter))
	d := e.dir
	if d == nil {
		d = &dirRun{
			frontier:  NewBitset(e.rt.Meta.Vertices),
			next:      NewBitset(e.rt.Meta.Vertices),
			revInput:  make([]string, e.rt.Parts.P()),
			revTiming: make([]stream.Timing, e.rt.Parts.P()),
			revBroken: make([]bool, e.rt.Parts.P()),
			revEdges:  make([]int64, e.rt.Parts.P()),
		}
		e.dir = d
		e.ctr.SwitchIteration.Set(int64(e.ds.SwitchIteration))
	}
	// The reverse stay chain keeps no edge counts for the trim rule.
	itRow := metrics.Iteration{Index: iter, BottomUp: true,
		TrimActive: e.pol.TrimActive(iter, e.run.Visited, e.rt.Meta.Vertices, UnknownEdges, UnknownEdges)}

	if !wasBottom {
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
			v, err := e.loadVerts(p, itSpan)
			if err != nil {
				return 0, err
			}
			deg, err := e.gatherInto(p, iter, v, d.frontier.Set, &itRow, itSpan)
			if err != nil {
				return 0, err
			}
			aDeg += deg
			if st.frontier > 0 {
				if err := e.saveVerts(p, iter, v, itSpan); err != nil {
					return 0, err
				}
			}
		}
		itRow.Frontier = itRow.NewlyVisited
		e.ds.RecordFrontier(itRow.Frontier, float64(aDeg), true)
	} else {
		itRow.Frontier = d.carryFrontier
	}

	d.next.Clear()
	var newly uint64
	var degSum float64
	if !d.split {
		// The run's first bottom-up pass is fused with the reverse-edge
		// split: one sequential scan of the dataset's .rev file computes
		// this pass's winners AND writes the per-partition reverse
		// inputs the next pass reads — lazy (a run that stays top-down
		// pays nothing), late (the visited filter covers everything the
		// transition gather just formed), and with no intermediate
		// full-size partition files to write and immediately re-read.
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
	e.run.Visited += newly
	e.ds.RecordFrontier(newly, degSum, true)
	e.ctr.BottomUpIters.Add(1)
	itRow.NewlyVisited += newly
	d.carryFrontier = newly
	d.frontier, d.next = d.next, d.frontier
	e.endIteration(itRow, itSpan.Attr("bottomup", 1))

	// The transition consumed its update set; consecutive bottom-up
	// iterations have none.
	if !wasBottom && iter > 0 {
		for p := 0; p < e.rt.Parts.P(); p++ {
			e.removeLater(e.rt.UpdateFile(iterIn(iter), p))
		}
	}
	return newly, nil
}

// fusedFirstBottomUp is the run's first bottom-up pass, fused with the
// reverse-edge split (splitReverse): the scan resolves this pass's
// winners into a global table (like OutDeg outside the modelled budget —
// winners land across every partition because the .rev scan is in dataset
// order, not partition order), which is then applied partition by
// partition.
func (e *kernel) fusedFirstBottomUp(iter int, d *dirRun, itRow *metrics.Iteration, itSpan *obs.Span) (newly uint64, degSum float64, err error) {
	bestPart, bestParent := e.rt.Winners(int(e.rt.Meta.Vertices))
	scanned, candidates, stayed, err := e.splitReverse(iter, d, bestPart, bestParent, itRow, itSpan.Child("reverse-split"))
	if err != nil {
		return 0, 0, err
	}

	for p := 0; p < e.rt.Parts.P(); p++ {
		if err := e.rt.Checkpoint(); err != nil {
			return 0, 0, err
		}
		lo, hi := e.rt.Parts.Interval(p)
		n, dg, err := e.applyWinners(p, iter, d, bestPart[lo:hi], bestParent[lo:hi], itSpan)
		if err != nil {
			return 0, 0, err
		}
		newly += n
		degSum += dg
	}
	e.rt.Compute(float64(scanned)*e.rt.Costs.ScatterPerEdge +
		float64(candidates)*e.rt.Costs.GatherPerUpdate +
		float64(newly)*e.rt.Costs.PerVertex +
		float64(stayed)*e.rt.Costs.AppendPerStay)
	return newly, degSum, nil
}

// applyWinners ends a bottom-up pass over partition p: the vertices with
// a winner in bestPart (indexed from the partition's first vertex) are
// visited at level iter+1 under their bestParent and join the next
// frontier. Only a partition that discovered vertices pays vertex-file
// traffic: load, apply, write back. The partition's share of the new
// frontier also seeds the state selective scheduling consults when the
// run hands back to top-down. It returns the share and its out-degree sum.
func (e *kernel) applyWinners(p, iter int, d *dirRun, bestPart []int32, bestParent []graph.VertexID, itSpan *obs.Span) (newly uint64, degSum float64, err error) {
	for _, bp := range bestPart {
		if bp >= 0 {
			newly++
		}
	}
	st := &e.parts[p]
	st.updates, st.frontier = int64(newly), newly
	if newly == 0 {
		return 0, 0, nil
	}
	v, err := e.loadVerts(p, itSpan)
	if err != nil {
		return 0, 0, err
	}
	var deg int64
	for i, bp := range bestPart {
		if bp >= 0 {
			v.Level[i] = uint32(iter) + 1
			v.Parent[i] = bestParent[i]
			vid := v.Lo + graph.VertexID(i)
			d.next.Set(vid)
			e.rt.VisitedBits.Set(vid)
			deg += e.rt.outDegree(vid)
		}
	}
	if err := e.saveVerts(p, iter, v, itSpan); err != nil {
		return 0, 0, err
	}
	st.visit(newly, deg)
	e.ctr.Visited.Add(int64(newly))
	return newly, float64(deg), nil
}

// splitReverse is the one sequential scan of the dataset's .rev file
// (original edge order) that both resolves the first bottom-up pass's
// winners and writes each partition's reverse input for the next pass.
// Sequential original order makes the winner rule direct: keep the first
// candidate whose source partition strictly improves — exactly the (source
// partition, original position) minimum top-down's gather would pick. An
// in-edge is written through to its target's partition file only while its
// target is unvisited AND, when trimming is active, still winnerless, so
// the per-partition inputs start winner-filtered instead of being
// full-size files the next pass immediately re-trims. Corruption in the
// .rev stream (frame checksum, malformed edge, edge-count mismatch)
// surfaces as errs.ErrCorrupted. bs is the pass's span, ended here.
func (e *kernel) splitReverse(iter int, d *dirRun, bestPart []int32, bestParent []graph.VertexID,
	itRow *metrics.Iteration, bs *obs.Span) (scanned, candidates, stayed int64, err error) {
	defer bs.End()
	revName := graph.ReverseFileName(e.rt.Meta.Name)
	sc, err := stream.NewEdgeScanner(e.rt.Vol, revName, e.rt.MainTiming(), e.rt.Opts.StreamBufSize)
	if err != nil {
		return 0, 0, 0, err
	}
	defer sc.Close()
	stayTiming := e.otherTiming(e.rt.MainTiming())
	outs, err := stream.OpenWriterSet(e.rt.Vol, e.rt.Parts.P(), func(p int) string { return e.revStayFile(iter, p) },
		func(name string) (*stream.Writer[graph.Edge], error) {
			return stream.NewCodecFramedEdgeWriter(e.rt.Vol, name, stayTiming, e.rt.Opts.StreamBufSize, e.rt.Codec)
		})
	if err != nil {
		return 0, 0, 0, err
	}
	defer outs.Abort() // whatever an error return leaves open
	outs.SetAsync()

	trim := e.pol.TrimActive(iter, e.run.Visited, e.rt.Meta.Vertices, UnknownEdges, UnknownEdges)
	w, chunk := outs.W, e.rt.EdgeChunk()
	for {
		n, err := sc.NextChunk(chunk)
		if err != nil {
			return 0, 0, 0, err
		}
		if n == 0 {
			break
		}
		for _, r := range chunk[:n] {
			if err := e.rt.Meta.CheckEdge(r); err != nil {
				return 0, 0, 0, fmt.Errorf("%w: reverse-edge file %s: %w", errs.ErrCorrupted, revName, err)
			}
			scanned++
			if e.rt.VisitedBits.Get(r.Src) {
				continue // target already has a parent — dead in-edge
			}
			if d.frontier.Get(r.Dst) {
				candidates++
				pu := int32(e.rt.Parts.Of(r.Dst))
				if bestPart[r.Src] < 0 || pu < bestPart[r.Src] {
					bestPart[r.Src] = pu
					bestParent[r.Src] = r.Dst
				}
			}
			if trim && bestPart[r.Src] >= 0 {
				continue // target will be visited when this pass ends
			}
			if err := w[e.rt.Parts.Of(r.Src)].Append(r); err != nil {
				return 0, 0, 0, err
			}
			stayed++
		}
	}
	if uint64(scanned) != e.rt.Meta.Edges {
		return 0, 0, 0, fmt.Errorf("%w: reverse-edge file %s has %d edges, config says %d",
			errs.ErrCorrupted, revName, scanned, e.rt.Meta.Edges)
	}
	if err := sealWriters(e.rt, outs); err != nil {
		return 0, 0, 0, err
	}
	copy(d.revEdges, outs.Counts())
	for p := range d.revInput {
		d.revInput[p], d.revTiming[p] = outs.Names[p], stayTiming
	}
	d.split = true
	e.rt.BytesRead += sc.BytesRead()
	e.ctr.Edges.Add(scanned)
	itRow.EdgesStreamed += scanned
	if trim {
		itRow.StayEdges += stayed
		e.run.TrimmedEdges += scanned - stayed
		e.ctr.StayEdges.Add(stayed)
		e.ctr.StayBytes.Add(stayed * graph.EdgeBytes)
	}
	bs.Attr("edges", scanned).Attr("stay_edges", stayed)
	return scanned, candidates, stayed, nil
}

// bottomUpPartition scans one partition's reverse-edge input against
// the frontier bitmap, applying the shared byte-identity winner rule
// (smallest source partition, first seen wins ties — see
// direction.go). When trimming is active the edges
// that survive the trim rule — target still unvisited when its stay
// decision merges — are rewritten to a reverse stay file that replaces
// the input. Classification needs only the in-RAM visited bitmap, so
// the partition's vertex file is loaded (and written back) only when
// the scan actually discovered vertices. Classification runs on the
// pool's workers against read-only state; winners and stay appends are
// resolved on the engine thread in chunk order and winners applied
// after the pool drains, so file bytes and results are identical for
// any worker count.
func (e *kernel) bottomUpPartition(p, iter int, d *dirRun, itRow *metrics.Iteration, itSpan *obs.Span) (newly uint64, degSum float64, err error) {
	e.rt.AwaitFile(d.revInput[p])
	sc, err := stream.NewEdgeScanner(e.rt.Vol, d.revInput[p], d.revTiming[p], e.rt.Opts.StreamBufSize)
	if err != nil {
		return 0, 0, err
	}
	defer sc.Close()
	sc.Prefetch(e.rt.Opts.PrefetchBuffers)

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

	plo, phi := e.rt.Parts.Interval(p)
	lo, n := plo, int(phi-plo)
	bestPart, bestParent := e.rt.Winners(n)
	trim := stay != nil
	var scanned, candidates, stayed int64
	classify := func(edges []graph.Edge, out *stream.Shard) {
		for _, r := range edges {
			out.Scanned++
			i := int(r.Src - lo)
			if i < 0 || i >= n {
				out.Err = fmt.Errorf("%s: reverse edge %v outside partition [%d,%d)", e.run.Engine, r, lo, int(lo)+n)
				return
			}
			if e.rt.VisitedBits.Get(r.Src) {
				continue // target has its parent — dead in-edge
			}
			if trim {
				out.Stays = append(out.Stays, r)
			}
			if d.frontier.Get(r.Dst) {
				pu := e.rt.Parts.Of(r.Dst)
				out.ByPart[pu] = append(out.ByPart[pu], graph.Update{Dst: r.Src, Parent: r.Dst})
				out.Emitted++
			}
		}
	}
	merge := func(s *stream.Shard) error {
		scanned += s.Scanned
		candidates += s.Emitted
		e.ctr.Edges.Add(s.Scanned)
		for pu, cands := range s.ByPart {
			for _, c := range cands {
				i := int(c.Dst - lo)
				if bestPart[i] < 0 || int32(pu) < bestPart[i] {
					bestPart[i] = int32(pu)
					bestParent[i] = c.Parent
				}
			}
		}
		// The candidates merged so far (strictly in chunk order, so the
		// filter is deterministic for any worker count) are vertices
		// that WILL be visited when this pass ends: their remaining
		// in-edges are dead too, and dropping them here is what keeps
		// the first reverse stay from being a full rewrite of the pass
		// that discovers most of the graph.
		for _, r := range s.Stays {
			if bestPart[int(r.Src-lo)] >= 0 {
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
	if err := e.pool.RunScanner(sc, classify, merge); err != nil {
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
	e.rt.BytesRead += sc.BytesRead()
	bs.Attr("edges", scanned).End()

	if stay != nil {
		if cerr := stay.Close(); cerr != nil {
			// The rewrite failed but the current input is intact:
			// degrade to untrimmed rescans of it.
			e.markStayBroken(&d.revBroken[p])
		} else {
			e.rt.BytesWritten += stay.BytesWritten()
			e.rt.RegisterReady(e.revStayFile(iter, p), stay.LastOp())
			e.removeLater(d.revInput[p])
			d.revInput[p] = e.revStayFile(iter, p)
			d.revTiming[p] = stayTiming
			d.revEdges[p] = stayed
			itRow.StayEdges += stayed
			e.run.TrimmedEdges += scanned - stayed
			e.ctr.StayEdges.Add(stayed)
			e.ctr.StayBytes.Add(stayed * graph.EdgeBytes)
		}
	}

	if newly, degSum, err = e.applyWinners(p, iter, d, bestPart, bestParent, itSpan); err != nil {
		return 0, 0, err
	}
	itRow.EdgesStreamed += scanned
	work := float64(scanned)*e.rt.Costs.ScatterPerEdge +
		float64(candidates)*e.rt.Costs.GatherPerUpdate +
		float64(newly)*e.rt.Costs.PerVertex
	if trim {
		work += float64(stayed) * e.rt.Costs.AppendPerStay
	}
	e.rt.Compute(work)
	return newly, degSum, nil
}
