package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Tests of the FBD1 metadata (DESIGN.md §5, §10, §14): the degree index, the
// permutation and the level logs a run writes in vertex order are delta
// blocks; checkpoints written before, with FBC1 logs, still resume, and
// stores written before, with an FBC1 or no index, are rejected.

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

// TestOldMetadataLayoutsRun: a checkpoint whose every log is an FBC1 update
// file, as a run wrote them before FBD1, resumes at each boundary into the
// uninterrupted run's tree, top-down and auto.
func TestOldMetadataLayoutsRun(t *testing.T) {
	for _, so := range []graph.StoreOptions{
		{Reverse: true},
		{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true},
	} {
		vol, m, root := storedRMAT(t, 13, 24, so)
		for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
			label := fmt.Sprintf("codec=%q/%s", so.Codec, dir)
			opts := func(ck storage.Volume, resume bool, maxIter int) Options {
				return Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 8, StreamBufSize: 4096,
					Sim: sparseSim(), Direction: dir, MaxIterations: maxIter}, CheckpointVol: ck, Resume: resume}
			}
			want, err := Run(vol, m.Name, opts(nil, false, 0))
			if err != nil {
				t.Fatal(err)
			}
			converted := 0
			for kill := 1; kill < len(want.Metrics.Iterations); kill++ {
				tag := fmt.Sprintf("%s, kill %d", label, kill)
				ck := storage.NewMem()
				if _, err := Run(vol, m.Name, opts(ck, false, kill)); err != nil {
					t.Fatalf("%s: partial run: %v", tag, err)
				}
				_, records := deltaLogs(t, vol)
				for name, raw := range records {
					if err := storage.WriteAll(vol, name, graph.FrameAll(raw)); err != nil {
						t.Fatal(err)
					}
					converted++
				}
				resumed, err := Run(vol, m.Name, opts(ck, true, 0))
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

// TestStoreBeforeIndexRejected: a run whose stored passes need the degree
// index fails with errs.ErrCorrupted, naming the fix, over a store with no
// .idx or with the FBC1 .idx or .perm written before FBD1 — whose edges may
// not be sorted by source — instead of growing a tree whose parents may
// differ from top-down's. The store with both files current runs.
func TestStoreBeforeIndexRejected(t *testing.T) {
	so := graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}
	for _, c := range []struct {
		name string
		file func(string) string
		data func([]byte) []byte
	}{
		{"current", graph.IndexFileName, nil},
		{"no .idx", graph.IndexFileName, nil},
		{"FBC1 .idx", graph.IndexFileName, func(b []byte) []byte { return graph.FrameAll(b) }},
		{"FBC1 .perm", graph.PermFileName, func(b []byte) []byte { return graph.FrameAll(b) }},
	} {
		vol, m, root := storedRMAT(t, 12, 16, so)
		name := c.file(m.Name)
		switch {
		case c.name == "no .idx":
			if err := vol.Remove(name); err != nil {
				t.Fatal(err)
			}
		case c.data != nil:
			b, err := storage.ReadAll(vol, name)
			if err == nil {
				b, err = graph.DeframeAll(b)
			}
			if err == nil {
				err = storage.WriteAll(vol, name, c.data(b))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		_, err := Run(vol, m.Name, Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, StreamBufSize: 512, Sim: sparseSim()}})
		if c.name == "current" {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		} else if !errors.Is(err, errs.ErrCorrupted) || !strings.Contains(err.Error(), "store the graph again") {
			t.Fatalf("%s: err = %v, want ErrCorrupted asking for the graph to be stored again", c.name, err)
		}
	}
}

// TestStoreBeforeTransposeRejected: a run's first bottom-up pass fails with
// errs.ErrCorrupted, naming the fix, over a store with no .ridx or with the
// .rev stored before the transposed graph — every edge swapped, in the
// edge list's order — instead of growing a tree from in-edges its index
// does not describe. The current store runs.
func TestStoreBeforeTransposeRejected(t *testing.T) {
	for _, c := range []string{"current", "no .ridx", "old-order .rev"} {
		vol, m, root := storedRMAT(t, 12, 16, graph.StoreOptions{Reverse: true})
		switch c {
		case "no .ridx":
			if err := vol.Remove(graph.ReverseIndexFileName(m.Name)); err != nil {
				t.Fatal(err)
			}
		case "old-order .rev":
			_, edges, err := graph.LoadEdges(vol, m.Name)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range edges {
				edges[i] = e.Reverse()
			}
			if err := storage.WriteAll(vol, graph.ReverseFileName(m.Name), graph.FrameAll(graph.EdgesToBytes(edges))); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Run(vol, m.Name, Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, StreamBufSize: 512,
			Direction: xstream.DirectionBottomUp}})
		if c == "current" {
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
		} else if !errors.Is(err, errs.ErrCorrupted) || !strings.Contains(err.Error(), "store the graph again") {
			t.Fatalf("%s: err = %v, want ErrCorrupted asking for the graph to be stored again", c, err)
		}
	}
}

// TestMetadataSizes: on a reordered delta rmat12 store the index takes at
// most 1.2 B a vertex and 8 B a frame, the reverse index 3 B a vertex and
// 8 B a slot, the permutation 1.6 B a vertex, and
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
	if ridx := size(graph.ReverseIndexFileName(m.Name)); ridx > 3*float64(m.Vertices)+8*float64(frames+1) {
		t.Fatalf(".ridx is %.0f bytes for %d vertices and %d slots", ridx, m.Vertices, frames+1)
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
	t.Logf(".idx %.0f B, .ridx %.0f B, .perm %.0f B for %d vertices; FBD1 logs %d B for %d winners (%.2f B each)",
		size(graph.IndexFileName(m.Name)), size(graph.ReverseIndexFileName(m.Name)), size(graph.PermFileName(m.Name)), m.Vertices, bytes, winners, float64(bytes)/float64(winners))
}
