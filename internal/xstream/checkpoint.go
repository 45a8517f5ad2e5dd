// Checkpoint and resume (DESIGN.md §10). A run's durable state is its
// levels: a checkpointed run logs every level per partition (logFile) and,
// after each iteration, writes an atomic manifest naming the logs and the
// direction heuristic's state. Every partition input is an order-keeping
// subset of the stored edge file (stay ⊆ input, PAPER.md §1 idea 2), so a
// resumed run needs nothing else: it folds the logs into its tree and
// bitmaps and starts again from the stored file.
package xstream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// manifestVersion guards the manifest schema: a mismatch is corruption,
// never a guess. manifestName is the file on the checkpoint volume.
const (
	manifestVersion = 2
	manifestName    = "manifest"
)

// checkpointManifest is the snapshot written after every iteration: the
// levels 1..Iteration+1 are in logFile(j, p) for j ≤ Iteration and every
// partition p < Parts, and Dir is the heuristic after Iteration, the last
// completed iteration. Done marks a finished run (resume only collects).
type checkpointManifest struct {
	Version                   int
	Engine, Graph, FilePrefix string
	Root                      graph.VertexID
	Parts, Iteration          int
	Done                      bool
	Dir                       dirHistory
}

// check is what a parsed manifest guarantees.
func (m *checkpointManifest) check() error {
	if m.Version != manifestVersion || m.Iteration < 0 || m.Parts < 1 || m.Parts > 1<<24 ||
		m.Dir.Mode != DirectionTopDown && m.Dir.Mode != DirectionBottomUp {
		return fmt.Errorf("checkpoint manifest (version %d, iteration %d, %d partitions, mode %q) is not one this build wrote: %w",
			m.Version, m.Iteration, m.Parts, m.Dir.Mode, errs.ErrCorrupted)
	}
	return nil
}

// logFile is partition p's log of the level iteration iter formed, kept by
// a checkpointed run for resume: its winners, or the update file whose
// first record for a vertex is its winner.
func (e *kernel) logFile(iter, p int) string {
	return fmt.Sprintf("%s_won%d_%d", e.rt.Opts.FilePrefix, iter, p)
}

// writeLog writes the winners in d.best, the level iteration iter formed,
// to per-partition log files: in vertex order, so as FBD1 delta blocks
// (DESIGN.md §10) of update records — an edge's layout, read back as updates
// — a partition at a time through one writer's buffers. A failure removes
// the logs it wrote. No-op without a checkpoint volume.
func (e *kernel) writeLog(iter int, d *dirRun, itSpan *obs.Span) (err error) {
	if e.ck == nil {
		return nil
	}
	defer itSpan.Child("shuffle").End()
	for p := 0; p < len(e.parts) && err == nil; p++ {
		var w *stream.Writer[graph.Edge]
		if w, err = stream.NewCodecEdgeWriter(e.rt.Vol, e.logFile(iter, p), e.rt.AuxTiming(), e.rt.Opts.StreamBufSize, graph.CodecDelta); err != nil {
			break
		}
		w.SetAsync()
		for v, hi := e.rt.Parts.Interval(p); v < hi && err == nil; v++ {
			if d.best[v] != graph.NoVertex {
				err = w.Append(graph.Edge{Src: v, Dst: d.best[v]}) // {Dst, Parent}
			}
		}
		if err == nil {
			err = w.Close()
		} else {
			w.Abort()
		}
		e.rt.RegisterReady(e.logFile(iter, p), w.LastOp())
	}
	for p := 0; err != nil && p < len(e.parts); p++ {
		e.rt.Vol.Remove(e.logFile(iter, p))
	}
	return err
}

// writeManifest records that iteration iter completed and logged its level:
// framed, written to a temp file, synced, published by rename (the volume's
// Create/Close contract). No-op without a checkpoint volume.
func (e *kernel) writeManifest(iter int, done bool) error {
	if e.ck == nil {
		return nil
	}
	data, err := json.Marshal(&checkpointManifest{Version: manifestVersion, Engine: e.run.Engine,
		Graph: e.rt.Meta.Name, FilePrefix: e.rt.Opts.FilePrefix, Root: e.rt.Opts.Root, Parts: e.rt.Parts.P(),
		Iteration: iter, Done: done, Dir: e.ds.dirHistory})
	var w storage.Writer
	if err == nil {
		w, err = e.ck.Create(manifestName)
	}
	if err == nil {
		_, err = w.Write(graph.FrameAll(data))
		if sw, ok := w.(storage.SyncWriter); ok && err == nil {
			err = sw.Sync()
		}
		if err == nil {
			err = w.Close()
		} else {
			w.Abort()
		}
	}
	if err != nil {
		return fmt.Errorf("%s: checkpoint after iteration %d: %w", e.run.Engine, iter, err)
	}
	e.run.Checkpoints++
	return nil
}

// loadManifest reads the manifest on vol; a missing one is (nil, nil), as
// resuming a never-checkpointed run is a fresh run.
func loadManifest(vol storage.Volume) (*checkpointManifest, error) {
	raw, err := storage.ReadAll(vol, manifestName)
	if errors.Is(err, storage.ErrNotExist) {
		return nil, nil
	} else if err != nil {
		return nil, fmt.Errorf("reading checkpoint manifest: %w", err)
	}
	return parseManifest(raw)
}

// parseManifest decodes a manifest file — magic, one frame, terminator —
// into one that passes check, or fails with errs.ErrCorrupted. The frame's
// length and the terminator must account for the whole file before the
// deframer sizes a buffer by a length field.
func parseManifest(raw []byte) (*checkpointManifest, error) {
	if len(raw) < 20 || int64(binary.LittleEndian.Uint32(raw[4:8]))+20 != int64(len(raw)) ||
		binary.LittleEndian.Uint64(raw[len(raw)-8:]) != 0 {
		return nil, fmt.Errorf("checkpoint manifest is not one frame: %w", errs.ErrCorrupted)
	}
	data, err := graph.DeframeAll(raw)
	if err != nil {
		return nil, fmt.Errorf("checkpoint manifest: %w", err)
	}
	man := &checkpointManifest{}
	if err := json.Unmarshal(data, man); err != nil {
		return nil, fmt.Errorf("checkpoint manifest: %w: %v", errs.ErrCorrupted, err)
	}
	return man, man.check()
}

// resume folds the manifest's logs, through the gather, into the run's
// tree, the bitmaps (claims included) and the partitions' counts, for the
// loop to re-enter at man.Iteration+1 as it re-enters top-down after a
// bottom-up pass: the frontier formed, nothing to gather. A resume under a
// cap below the checkpointed run's (maxIter <= man.Iteration, done or not)
// is errs.ErrBadOptions before any log is read: the manifest does not say
// which levels a run stopped there would have formed, and the refused run
// leaves the manifest and the logs for a resume under a cap that fits. A
// run resumed under maxIter, the cap the checkpointed run stopped at, may
// not go on: like a done run it only collects, and it folds only the
// levels that run formed — its last log is a level it never formed, kept
// for a run that goes on, unless a bottom-up pass formed it. Otherwise it
// then takes the degree table: a run back in its stored phase loads it
// with the index, or recounts it reading the stored file once; the others
// call Prepare. A manifest from another run, or whose logs are gone, is
// errs.ErrCorrupted.
func (e *kernel) resume(man *checkpointManifest, maxIter int) error {
	if man.Engine != e.run.Engine || man.Graph != e.rt.Meta.Name || man.FilePrefix != e.rt.Opts.FilePrefix ||
		man.Root != e.rt.Opts.Root || man.Parts != e.rt.Parts.P() || uint64(man.Iteration) >= e.rt.Meta.Vertices {
		return fmt.Errorf("%s: the checkpoint manifest is another run's: %w", e.run.Engine, errs.ErrCorrupted)
	}
	if maxIter <= man.Iteration {
		return fmt.Errorf("%s: %w: the checkpoint is past iteration %d, beyond the iteration cap %d", e.run.Engine, errs.ErrBadOptions, man.Iteration, maxIter)
	}
	if e.ds.dirHistory = man.Dir; !e.stored {
		e.ds.StoredPrice = 0
	}
	d := e.dir
	e.rt.VisitedBits.Set(e.rt.Opts.Root)
	e.parts[e.rt.Parts.Of(e.rt.Opts.Root)].visitedCount, e.run.Visited = 1, 1
	last, capped := man.Iteration, !man.Done && maxIter == man.Iteration+1
	if capped && man.Dir.Mode != DirectionBottomUp {
		last--
	}
	for j := 0; j <= last; j++ {
		if j == last {
			d.frontier.Clear() // the last level is the frontier the loop re-enters at
		}
		for p := range e.parts {
			st := &e.parts[p]
			newly, _, applied, err := e.gather(p, e.tree, e.logFile(j, p), uint32(j)+1)
			if errors.Is(err, storage.ErrNotExist) {
				return fmt.Errorf("%s: checkpoint manifest names a log the working volume lacks: %w: %w", e.run.Engine, errs.ErrCorrupted, err)
			} else if err != nil {
				return err
			}
			st.frontier, st.updates = newly, int64(newly)
			st.visitedCount += newly
			e.run.Visited += newly
			if j == last {
				d.carryFrontier += newly
				d.carryUpdates += applied
			}
		}
	}
	if e.rt.claimed != nil {
		copy(e.rt.claimed.w, e.rt.VisitedBits.w)
	}
	if e.run.Resumed = man.Iteration + 1; man.Done || capped {
		return nil
	}
	// Prepare keeps the frontier's edges, the next scatter's.
	var err error
	if e.stored {
		if err = e.openIndex(); err == nil && e.index == nil {
			err = e.rt.scanStored(nil)
		}
	} else {
		var counts []int64
		e.rt.VisitedBits.toggle(d.frontier)
		counts, err = e.rt.Prepare()
		e.rt.VisitedBits.toggle(d.frontier)
		for p, c := range counts {
			e.parts[p].input.edges = c
		}
	}
	if err != nil {
		return err
	}
	if e.rt.OutDeg != nil {
		d.carryDeg = float64(e.countLive())
	}
	// A top-down or stored pass formed the last level: the next iteration
	// books it as the gather it skips would have, and the heuristic
	// records it (bookCarried). A bottom-up pass did both itself.
	if d.unbooked = man.Dir.Mode != DirectionBottomUp; d.unbooked {
		e.run.Visited -= d.carryFrontier
	}
	return nil
}
