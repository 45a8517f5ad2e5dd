package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Tests of the FBD1 metadata (DESIGN.md §5, §10, §14): the degree index, the
// permutation and the level logs a run writes in vertex order are delta
// blocks, and stores and checkpoints written before, with FBC1 ones, still
// run.

// toFBC1Layouts rewrites a store's .idx and .perm in the FBC1 layouts stored
// before FBD1: the frame offsets, 8 B each, then the degrees, 4 B each, in
// MiB frames; the stored→original ids, 4 B each, in one frame.
func toFBC1Layouts(t *testing.T, vol storage.Volume, m graph.Meta) {
	t.Helper()
	idx, err := storage.ReadAll(vol, graph.IndexFileName(m.Name))
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]uint32, m.Vertices)
	frames, _, err := graph.ReadIndex(bytes.NewReader(idx), int64(len(idx)), m, deg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var old []byte
	for _, off := range frames {
		old = binary.LittleEndian.AppendUint64(old, uint64(off))
	}
	for _, d := range deg {
		old = binary.LittleEndian.AppendUint32(old, d)
	}
	if len(old) > 1<<20 {
		t.Fatalf("an index of %d bytes spans MiB frames", len(old))
	}
	files := map[string][]byte{graph.IndexFileName(m.Name): graph.FrameAll(old)}
	if m.Reordered {
		perm, err := graph.LoadPerm(vol, m.Name, m.Vertices)
		if err != nil {
			t.Fatal(err)
		}
		var ids []byte
		for v := range m.Vertices {
			ids = binary.LittleEndian.AppendUint32(ids, uint32(perm.ToOrig(graph.VertexID(v))))
		}
		files[graph.PermFileName(m.Name)] = graph.FrameAll(ids)
	}
	for name, b := range files {
		if err := storage.WriteAll(vol, name, b); err != nil {
			t.Fatal(err)
		}
	}
}

// deltaLogs returns the FBD1 level logs a checkpointed run left on vol:
// each file, and its update records decoded.
func deltaLogs(t *testing.T, vol storage.Volume) (files, records map[string][]byte) {
	t.Helper()
	files, records = map[string][]byte{}, map[string][]byte{}
	for _, name := range vol.List() {
		if !strings.HasPrefix(name, EngineName+"_won") {
			continue
		}
		b, err := storage.ReadAll(vol, name)
		if err != nil {
			t.Fatal(err)
		}
		magic, raw, err := graph.DeframeAllMagic(b)
		if err == nil && magic == graph.FrameMagicDelta {
			files[name] = b
			raw, err = graph.DecodeDeltaStream(raw)
			records[name] = raw
		}
		if err != nil {
			t.Fatalf("log %s: %v", name, err)
		}
	}
	return files, records
}

// TestOldMetadataLayoutsRun: a store whose .idx and .perm are the FBC1
// layouts stored before FBD1 grows, read sparse, the tree its FBD1 store
// grows, top-down and auto; and a checkpoint of it whose every log is an
// FBC1 update file, as a run wrote them before, resumes at each boundary
// into the uninterrupted run's tree.
func TestOldMetadataLayoutsRun(t *testing.T) {
	for _, so := range []graph.StoreOptions{
		{Reverse: true},
		{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true},
	} {
		current, m, root := storedRMAT(t, 13, 24, so)
		old, _, _ := storedRMAT(t, 13, 24, so)
		m, err := graph.LoadMeta(old, m.Name)
		if err != nil {
			t.Fatal(err)
		}
		toFBC1Layouts(t, old, m)
		for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
			label := fmt.Sprintf("%s/%s", storeCodec(so), dir)
			opts := func(ck storage.Volume, resume bool, maxIter int) Options {
				return Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 8, StreamBufSize: 4096,
					Sim: sparseSim(), Direction: dir, Codec: storeCodec(so), MaxIterations: maxIter}, CheckpointVol: ck, Resume: resume}
			}
			want, err := Run(current, m.Name, opts(nil, false, 0))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(old, m.Name, opts(nil, false, 0))
			if err != nil {
				t.Fatalf("%s: FBC1 metadata: %v", label, err)
			}
			assertSameResult(t, label+", FBC1 metadata", got, want)
			if !checkFileRows(t, label, got) {
				t.Fatalf("%s: the FBC1 index was not read sparse", label)
			}
			converted := 0
			for kill := 1; kill < len(want.Metrics.Iterations); kill++ {
				tag := fmt.Sprintf("%s, kill %d", label, kill)
				ck := storage.NewMem()
				if _, err := Run(old, m.Name, opts(ck, false, kill)); err != nil {
					t.Fatalf("%s: partial run: %v", tag, err)
				}
				_, records := deltaLogs(t, old)
				for name, raw := range records {
					if err := storage.WriteAll(old, name, graph.FrameAll(raw)); err != nil {
						t.Fatal(err)
					}
					converted++
				}
				resumed, err := Run(old, m.Name, opts(ck, true, 0))
				if err != nil {
					t.Fatalf("%s: resume from FBC1 logs: %v", tag, err)
				}
				assertSameResult(t, tag, resumed, want)
			}
			if converted == 0 {
				t.Fatalf("%s: no checkpoint held an FBD1 log to rewrite", label)
			}
		}
	}
}

// TestMetadataSizes: on a reordered delta rmat12 store the index takes at
// most 1.2 B a vertex and 8 B a frame, the permutation 1.6 B a vertex, and
// the FBD1 level logs of a direction-auto run — its stored and bottom-up
// passes' — 4 B a winner, files whole.
func TestMetadataSizes(t *testing.T) {
	vol, m, root := storedRMAT(t, 12, 16, graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true})
	m, err := graph.LoadMeta(vol, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	size := func(name string) float64 {
		n, err := vol.Size(name)
		if err != nil {
			t.Fatal(err)
		}
		return float64(n)
	}
	frames := (m.Edges + graph.IndexFrameEdges - 1) / graph.IndexFrameEdges
	if idx, limit := size(graph.IndexFileName(m.Name)), 1.2*float64(m.Vertices)+8*float64(frames); idx > limit {
		t.Fatalf(".idx is %.0f bytes for %d vertices and %d frames, over %.0f", idx, m.Vertices, frames, limit)
	}
	if perm := size(graph.PermFileName(m.Name)); perm > 1.6*float64(m.Vertices) {
		t.Fatalf(".perm is %.0f bytes for %d vertices", perm, m.Vertices)
	}
	ck := storage.NewMem()
	o := Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 8, StreamBufSize: 4096,
		Sim: sparseSim(), Direction: xstream.DirectionAuto}, CheckpointVol: ck}
	if _, err := Run(vol, m.Name, o); err != nil {
		t.Fatal(err)
	}
	files, records := deltaLogs(t, vol)
	var bytes, winners int
	for name, b := range files {
		bytes, winners = bytes+len(b), winners+len(records[name])/graph.UpdateBytes
	}
	if winners == 0 || float64(bytes) > 4*float64(winners) {
		t.Fatalf("FBD1 logs: %d bytes for %d winners", bytes, winners)
	}
	t.Logf(".idx %.0f B, .perm %.0f B for %d vertices; FBD1 logs %d B for %d winners (%.2f B each)",
		size(graph.IndexFileName(m.Name)), size(graph.PermFileName(m.Name)), m.Vertices, bytes, winners, float64(bytes)/float64(winners))
}
