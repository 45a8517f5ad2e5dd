// Crash-consistent checkpointing (DESIGN.md §10). After every completed
// iteration the engine persists a manifest describing exactly the state
// a resumed run needs: the last completed iteration, each partition's
// current edge input (and fallback), vertex-state generation and update
// count, plus the run-level counters and per-iteration metric rows. The
// manifest is written atomically — temp file, Sync when the volume
// supports it, rename — so a crash leaves either the previous manifest
// or the new one, never a torn mix, and its JSON body travels inside a
// single CRC32-C frame so at-rest corruption is detected rather than
// deserialized.
//
// The recovery invariants the manifest relies on:
//
//   - files named by a manifest are never mutated or deleted until the
//     NEXT manifest is durable (deferred deletions via the kernel's
//     graveyard; vertex state and stay files use per-generation names);
//   - a stay file pending at crash time was never adopted, so losing it
//     is the grace-and-cancel path: the recorded input is a superset;
//   - update files written by the crashed iteration belong to the set
//     the resumed iteration re-creates (truncate-on-create), while the
//     set it reads was sealed by the last completed iteration.
package xstream

import (
	"encoding/json"
	"errors"
	"fmt"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// manifestVersion guards the manifest schema; a mismatch is treated as
// corruption rather than guessed at.
const manifestVersion = 1

// manifestName is the manifest's file name on the checkpoint volume.
const manifestName = "manifest"

// manifestPart is one partition's recoverable state.
type manifestPart struct {
	// Input is the partition's current edge-input file on the working
	// volume; InputRole names the simulated device it lives on ("main",
	// "aux" or "stay") so resume can rebuild its Timing.
	Input     string `json:"input"`
	InputRole string `json:"input_role,omitempty"`
	// InputEdges is Input's edge count, for the trim rule; nil when the run
	// did not know it (and in manifests written before the rule counted).
	InputEdges *int64 `json:"input_edges,omitempty"`
	// Fallback, when set, is the superseded input still held until the
	// adopted stay file survives a full verified read.
	Fallback     string `json:"fallback,omitempty"`
	FallbackRole string `json:"fallback_role,omitempty"`
	// VertexFile is the partition's current vertex-state generation.
	VertexFile string `json:"vertex_file"`
	// Updates is the partition's incoming update count from the last
	// completed iteration (drives selective scheduling on resume).
	Updates int64 `json:"updates"`
	// StayBroken records that stay writing is degraded off for this
	// partition after a permanent write failure.
	StayBroken bool `json:"stay_broken,omitempty"`
}

// checkpointManifest is the durable snapshot written after every
// completed iteration.
type checkpointManifest struct {
	Version    int    `json:"version"`
	Engine     string `json:"engine"`
	Graph      string `json:"graph"`
	FilePrefix string `json:"file_prefix"`
	// Codec is the working-file codec the checkpointed run used; empty
	// (a pre-codec manifest) means fixed. The named working files are in
	// this codec, so a resume under a different one must refuse.
	Codec string `json:"codec,omitempty"`
	// Iteration is the last COMPLETED iteration; resume restarts at
	// Iteration+1. Done marks a finished run (resume only re-collects).
	Iteration int  `json:"iteration"`
	Done      bool `json:"done"`

	Visited         uint64 `json:"visited"`
	Cancellations   int    `json:"cancellations"`
	Skipped         int    `json:"skipped"`
	Trimmed         int64  `json:"trimmed"`
	StayCorruptions int    `json:"stay_corruptions,omitempty"`

	Iterations []metrics.Iteration `json:"iterations"`
	Parts      []manifestPart      `json:"parts"`
}

// checkpointer owns the manifest on its dedicated volume.
type checkpointer struct {
	vol storage.Volume
}

// write persists the manifest atomically: marshal, frame with a CRC,
// write to a temp file, force it to stable storage, publish by rename
// (the volume's Create/Close contract).
func (c *checkpointer) write(man *checkpointManifest) error {
	data, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("marshal manifest: %w", err)
	}
	w, err := c.vol.Create(manifestName)
	if err != nil {
		return err
	}
	if _, err := w.Write(graph.FrameAll(data)); err != nil {
		w.Abort()
		return err
	}
	if sw, ok := w.(storage.SyncWriter); ok {
		if err := sw.Sync(); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

// load reads and validates the manifest. A missing manifest returns
// (nil, nil) — resume of a never-checkpointed run is a fresh run. Any
// frame, JSON or schema violation wraps errs.ErrCorrupted.
func (c *checkpointer) load() (*checkpointManifest, error) {
	raw, err := storage.ReadAll(c.vol, manifestName)
	if err != nil {
		if errors.Is(err, storage.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("reading checkpoint manifest: %w", err)
	}
	data, err := graph.DeframeAll(raw)
	if err != nil {
		return nil, fmt.Errorf("checkpoint manifest frames: %w", err)
	}
	man := &checkpointManifest{}
	if err := json.Unmarshal(data, man); err != nil {
		return nil, fmt.Errorf("checkpoint manifest: %w: %v", errs.ErrCorrupted, err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("checkpoint manifest version %d, want %d: %w", man.Version, manifestVersion, errs.ErrCorrupted)
	}
	if man.Iteration < 0 || len(man.Parts) == 0 {
		return nil, fmt.Errorf("checkpoint manifest is inconsistent (iteration %d, %d partitions): %w",
			man.Iteration, len(man.Parts), errs.ErrCorrupted)
	}
	return man, nil
}

// vertexGenFile names partition p's vertex-state file written in
// iteration iter. Checkpointed runs keep one generation per saving
// iteration so a crash mid-iteration never clobbers the state the
// manifest points at; un-checkpointed runs overwrite a single file.
func (e *kernel) vertexGenFile(iter, p int) string {
	return fmt.Sprintf("%s_vtxg%d_%d", e.rt.Opts.FilePrefix, iter, p)
}

// removeLater deletes a working file — immediately when the run is not
// checkpointed, otherwise after the next manifest is durable (the
// current manifest may still name it).
func (e *kernel) removeLater(name string) {
	if name == "" {
		return
	}
	if e.ck == nil {
		e.rt.Vol.Remove(name)
		return
	}
	e.graveyard = append(e.graveyard, name)
}

// flushGraveyard performs the deferred deletions; called only once a
// manifest that no longer references them has been persisted.
func (e *kernel) flushGraveyard() {
	for _, name := range e.graveyard {
		e.rt.Vol.Remove(name)
	}
	e.graveyard = e.graveyard[:0]
}

// timingRole names the device a stream timing points at, for the
// manifest; roleTiming rebuilds the timing on resume. Wall mode has a
// single implicit device, so everything is "main".
func (e *kernel) timingRole(t stream.Timing) string {
	sim := e.rt.Opts.Sim
	if sim == nil || t.Device == nil || t.Device == sim.MainDisk {
		return "main"
	}
	if sim.StayDisk != nil && t.Device == sim.StayDisk {
		return "stay"
	}
	return "aux"
}

func (e *kernel) roleTiming(role string) stream.Timing {
	sim := e.rt.Opts.Sim
	switch {
	case sim == nil:
		return e.rt.MainTiming()
	case role == "stay" && sim.StayDisk != nil:
		return e.stayDiskTiming()
	case role == "aux" && sim.AuxDisk != nil:
		return e.rt.AuxTiming()
	}
	return e.rt.MainTiming()
}

// writeManifest snapshots the run after completed iteration iter and
// persists it, then performs the deletions that were deferred while the
// previous manifest still referenced their files. No-op without a
// checkpoint volume.
func (e *kernel) writeManifest(iter int, done bool) error {
	if e.ck == nil {
		return nil
	}
	man := &checkpointManifest{
		Version:         manifestVersion,
		Engine:          e.run.Engine,
		Graph:           e.rt.Meta.Name,
		FilePrefix:      e.rt.Opts.FilePrefix,
		Codec:           string(e.rt.Codec),
		Iteration:       iter,
		Done:            done,
		Visited:         e.run.Visited,
		Cancellations:   e.run.Cancellations,
		Skipped:         e.run.Skipped,
		Trimmed:         e.run.TrimmedEdges,
		StayCorruptions: e.run.StayCorruptions,
		Iterations:      e.run.Iterations,
		Parts:           make([]manifestPart, len(e.parts)),
	}
	for p := range e.parts {
		st := &e.parts[p]
		man.Parts[p] = manifestPart{
			Input:      st.input,
			InputRole:  e.timingRole(st.inputTiming),
			VertexFile: st.vertexFile,
			Updates:    st.updates,
			StayBroken: st.stayBroken,
		}
		if st.inputEdges >= 0 {
			man.Parts[p].InputEdges = &st.inputEdges
		}
		if st.fallback != "" {
			man.Parts[p].Fallback = st.fallback
			man.Parts[p].FallbackRole = e.timingRole(st.fallbackTiming)
		}
	}
	if err := e.ck.write(man); err != nil {
		return fmt.Errorf("%s: checkpoint after iteration %d: %w", e.run.Engine, iter, err)
	}
	e.run.Checkpoints++
	e.ctr.Checkpoints.Add(1)
	e.flushGraveyard()
	return nil
}

// seedFromManifest restores the engine's state from a loaded manifest
// and validates that every file it names still exists on the working
// volume — a missing file means the checkpoint and working volumes
// diverged, which resume must refuse rather than silently restart.
func (e *kernel) seedFromManifest(man *checkpointManifest) error {
	if man.Engine != e.run.Engine || man.Graph != e.rt.Meta.Name ||
		man.FilePrefix != e.rt.Opts.FilePrefix || len(man.Parts) != e.rt.Parts.P() {
		return fmt.Errorf("%s: checkpoint manifest (engine %q graph %q prefix %q, %d partitions) does not match this run (%q, %d partitions): %w",
			e.run.Engine, man.Engine, man.Graph, man.FilePrefix, len(man.Parts), e.rt.Meta.Name, e.rt.Parts.P(), errs.ErrCorrupted)
	}
	manCodec, err := graph.ParseCodec(man.Codec)
	if err != nil || manCodec != e.rt.Codec {
		return fmt.Errorf("%s: checkpoint manifest was written under codec %q but this run uses %q: %w",
			e.run.Engine, man.Codec, e.rt.Codec, errs.ErrCorrupted)
	}
	if e.rt.OutDeg != nil && !man.Done {
		// The trim rule's degree table lived in RAM too, and Prepare, whose
		// pass counts it, is skipped: one read of the stored edge file.
		if err := e.rt.scanStored(nil); err != nil {
			return err
		}
	}
	for p := range man.Parts {
		mp := &man.Parts[p]
		st := &e.parts[p]
		st.input = mp.Input
		st.inputTiming = e.roleTiming(mp.InputRole)
		if mp.InputEdges != nil {
			st.inputEdges = *mp.InputEdges
		}
		st.fallback = mp.Fallback
		if mp.Fallback != "" {
			st.fallbackTiming = e.roleTiming(mp.FallbackRole)
		}
		st.vertexFile = mp.VertexFile
		st.updates = mp.Updates
		st.stayBroken = mp.StayBroken
		if mp.StayBroken {
			e.run.StayDisabledParts++
		}
		pending := "" // the sealed update file the resumed iteration gathers
		if !man.Done && mp.Updates > 0 {
			pending = e.rt.UpdateFile(iterIn(man.Iteration+1), p)
		}
		for _, name := range []string{mp.Input, mp.VertexFile, mp.Fallback, pending} {
			if name != "" && !e.rt.Vol.Exists(name) {
				return fmt.Errorf("%s: checkpoint manifest names %s but the working volume does not have it: %w",
					e.run.Engine, name, errs.ErrCorrupted)
			}
		}
		if !man.Done {
			// The update filter's bitmaps lived in RAM: rebuild them, or the
			// resumed run shuffles dead updates the uninterrupted one dropped.
			// The same read of the vertex file recounts the live edges.
			var err error
			if st.live, err = e.rt.SeedResumed(p, mp.VertexFile, pending); err != nil {
				return err
			}
		}
	}
	e.run.Visited = man.Visited
	e.run.Cancellations = man.Cancellations
	e.run.Skipped = man.Skipped
	e.run.TrimmedEdges = man.Trimmed
	e.run.StayCorruptions = man.StayCorruptions
	e.run.Resumed = man.Iteration + 1
	e.run.Iterations = man.Iterations
	if e.run.StayDisabledParts > 0 {
		e.ctr.StayDisabled.Set(int64(e.run.StayDisabledParts))
	}
	return nil
}
