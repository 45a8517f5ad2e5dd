package xstream

import (
	"fastbfs/internal/graph"
	"fastbfs/internal/stream"
)

// This file holds the update filter the streaming engines share
// (DESIGN.md §18). A top-down scatter generates one update per frontier
// out-edge, and the first-wins gather then throws most of them away: an
// update only matters when it is the first one ever written for a
// destination that is still unvisited. The filter drops the rest before
// they are shuffled, written, re-read and gathered, in two steps that
// split along the scatter pool's thread boundary:
//
//   - Emit, on a scatter worker, drops an update whose destination is in
//     the visited bitmap. Nothing writes that bitmap while a scatter
//     runs — MarkRoot, the gathers and the bottom-up passes all run
//     between scatters — so the workers' reads are race-free.
//   - Flush, on the engine thread, folds a shard in chunk order and
//     test-and-sets the claimed bitmap: the first update for a
//     destination passes, every later one — in this shard, in a later
//     chunk, partition or iteration — is dropped. Shards merge in
//     edge-scan order and partitions scatter in index order, so the
//     update that passes is the one the gather would have met first in
//     the unfiltered update file; levels, parents and the relative order
//     of every update file are unchanged, for any worker count.
//
// Claims are never cleared during a run: a claimed destination has its
// winning update on the way and will be visited by its partition's next
// gather, possibly later in this very iteration, after partitions with
// a smaller index have already scattered at it again.
//
// The counts the direction heuristic consumes (Wave.Emitted, Wave.CandDeg)
// are taken before either step, over every frontier out-edge, so Decide
// sees the numbers an unfiltered run produces. Everything that asks
// "was anything written" — termination, selective scheduling — reads the
// shuffler's counts, which now hold only what passed.

// Wave totals the scatters of one top-down iteration, or what those of a
// stored pass would have made (storedIteration).
type Wave struct {
	// Emitted counts the updates generated, one per frontier out-edge;
	// Written those that passed the filter into the shuffler.
	Emitted, Written int64
	// CandDeg is the out-degree sum over the targets of every generated
	// update — α's look-ahead — and 0 unless the run may go bottom-up.
	CandDeg int64
}

// Filtered is the number of generated updates the filter dropped.
func (w Wave) Filtered() int64 { return w.Emitted - w.Written }

// UpdateFilter routes a top-down scatter's updates from the workers'
// shards into the shuffler, dropping the dead ones on the way. With
// Options.DisableUpdateFilter it drops nothing and only routes and
// counts. One serves a whole run; the engine zeroes Wave as each
// iteration starts, so until the next one Wave.Written is what the last
// row wrote for the next to gather.
type UpdateFilter struct {
	Wave Wave

	parts  *graph.Partitioning
	outDeg []uint32
	// visited and claimed are nil when the filter is disabled.
	visited, claimed *Bitset
}

// NewUpdateFilter builds the run's filter over the bitmaps Prepare, the
// stored phase or a resume set up; call it after them. dir is the run's
// resolved direction policy: only a run that may go bottom-up has a
// reader for Wave.CandDeg, so a top-down run sums nothing, whether or
// not the trim rule keeps a degree table.
func (rt *Runtime) NewUpdateFilter(dir Direction) *UpdateFilter {
	f := &UpdateFilter{parts: rt.Parts}
	if dir != DirectionTopDown {
		f.outDeg = rt.OutDeg
	}
	if !rt.Opts.DisableUpdateFilter {
		f.visited, f.claimed = rt.VisitedBits, rt.claimed
	}
	return f
}

// Emit records the update a frontier out-edge generates in the worker's
// shard, unless its destination is already visited. It runs on scatter
// workers and only reads the filter.
func (f *UpdateFilter) Emit(out *stream.Shard, e graph.Edge) {
	out.Emitted++
	if f.outDeg != nil {
		out.CandDeg += int64(f.outDeg[e.Dst])
	}
	if f.visited != nil && f.visited.Get(e.Dst) {
		return
	}
	p := f.parts.Of(e.Dst)
	out.ByPart[p] = append(out.ByPart[p], graph.Update{Dst: e.Dst, Parent: e.Src})
}

// Flush appends a merged shard's updates to the shuffler, keeping only
// the first claim on each destination, and returns how many it wrote.
// It runs on the engine thread, in chunk order.
func (f *UpdateFilter) Flush(s *stream.Shard, sh *stream.Shuffler) (written int64, err error) {
	for p, us := range s.ByPart {
		if f.claimed != nil {
			kept := us[:0]
			for _, u := range us {
				if f.claimed.Claim(u.Dst) {
					kept = append(kept, u)
				}
			}
			us = kept
		}
		if len(us) == 0 {
			continue
		}
		if err := sh.AppendTo(p, us); err != nil {
			return written, err
		}
		written += int64(len(us))
	}
	f.Wave.Emitted += s.Emitted
	f.Wave.Written += written
	f.Wave.CandDeg += s.CandDeg
	return written, nil
}

// allocBitmaps sets up the run's vertex bitmaps from its scratch, all
// clear: VisitedBits, and claimed for the filter. Idempotent.
func (rt *Runtime) allocBitmaps() {
	if rt.VisitedBits == nil {
		rt.VisitedBits = rt.scratch.visited.reset(rt.Meta.Vertices)
	}
	if rt.claimed == nil && !rt.Opts.DisableUpdateFilter {
		rt.claimed = rt.scratch.claimed.reset(rt.Meta.Vertices)
	}
}
