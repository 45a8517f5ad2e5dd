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

// Tests of the stored passes' sparse reads (DESIGN.md §5,
// internal/xstream/split.go): an indexed store read range by range grows
// the tree the same store read whole grows.

// sparseSim is a simulated device whose seek is worth about 2 KB, so the
// small graphs of these tests read sparse where a pass needs a few of its
// ranges (the HDD's 1 MB seek keeps every one of them dense).
func sparseSim() *xstream.SimConfig { return xstream.ScaledSim(512) }

// checkFileRows asserts what every stored row records of its read: a sparse
// one read exactly the bytes its ranges promised, a dense one promised
// nothing; sparse reports whether any row read sparse.
func checkFileRows(t testing.TB, label string, res *Result) (sparse bool) {
	t.Helper()
	for _, it := range res.Metrics.Iterations {
		switch {
		case it.Sparse && (!it.Stored || it.FilePredicted != it.FileBytes):
			t.Fatalf("%s: sparse iteration %d read %d bytes, its ranges promised %d", label, it.Index, it.FileBytes, it.FilePredicted)
		case !it.Sparse && it.FilePredicted != 0:
			t.Fatalf("%s: dense iteration %d promised %d bytes", label, it.Index, it.FilePredicted)
		case it.Stored && !it.Sparse && it.FileBytes == 0:
			t.Fatalf("%s: dense stored iteration %d read nothing", label, it.Index)
		}
		sparse = sparse || it.Sparse
	}
	return sparse
}

// TestSparseMatchesDense: every indexed store, run as it is and with its
// .idx removed — how a graph stored before the index runs — grows
// byte-identical levels and parents across engine × partitions × codec ×
// direction, and the indexed run moves no more device bytes. The delta
// graph spans 48 frames of a delta block each, so a sparse pass reads a
// few.
func TestSparseMatchesDense(t *testing.T) {
	for _, g := range []struct {
		store             graph.StoreOptions
		scale, edgeFactor int
	}{
		{graph.StoreOptions{Reverse: true}, 10, 8},
		{graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}, 13, 24},
	} {
		indexed, m, root := storedRMAT(t, g.scale, g.edgeFactor, g.store)
		dense, _, _ := storedRMAT(t, g.scale, g.edgeFactor, g.store)
		if err := dense.Remove(graph.IndexFileName(m.Name)); err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{EngineName, xstream.EngineName} {
			for _, parts := range []int{1, 2, 8} {
				for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
					label := fmt.Sprintf("%s/%s/P=%d/%s", engine, storeCodec(g.store), parts, dir)
					run := func(vol storage.Volume) *Result {
						o := Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: parts, StreamBufSize: 4096,
							Sim: sparseSim(), Direction: dir, Codec: storeCodec(g.store)}}
						var res *Result
						var err error
						if engine == EngineName {
							res, err = Run(vol, m.Name, o)
						} else {
							res, err = xstream.Run(vol, m.Name, o.Base)
						}
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return res
					}
					got, want := run(indexed), run(dense)
					assertSameResult(t, label, got, want)
					if got.Metrics.TotalBytes() > want.Metrics.TotalBytes() {
						t.Fatalf("%s: indexed run moved %d device bytes, the dense run %d", label, got.Metrics.TotalBytes(), want.Metrics.TotalBytes())
					}
					if checkFileRows(t, label, want) {
						t.Fatalf("%s: a run without the index read sparse", label)
					}
					if sparse := checkFileRows(t, label, got); sparse != (engine == EngineName) {
						t.Fatalf("%s: read sparse %v; only FastBFS has stored passes, and every one of these has a pass that pays", label, sparse)
					}
				}
			}
		}
	}
}

// TestSparseReadsMiBFrames: a delta store written before the block grain —
// its edge file in frames of 131,072 edges, its index holding their
// offsets — still reads sparse and grows the tree its block-framed store
// grows, moving more bytes: a sparse pass reads whole frames.
func TestSparseReadsMiBFrames(t *testing.T) {
	so := graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}
	blocks, m, root := storedRMAT(t, 13, 24, so)
	mib, _, _ := storedRMAT(t, 13, 24, so)
	b, err := storage.ReadAll(mib, graph.EdgeFileName(m.Name))
	if err == nil {
		b, err = graph.DeframeAll(b)
	}
	if err == nil {
		b, err = graph.DecodeDeltaStream(b)
	}
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	fw := graph.NewFrameWriterMagic(&file, graph.FrameMagicDelta)
	var index []byte
	for off, frame := 0, (1<<20)/graph.EdgeBytes*graph.EdgeBytes; off < len(b); off += frame {
		enc, err := graph.AppendDeltaBlocks(nil, b[off:min(off+frame, len(b))])
		if err == nil {
			_, err = fw.Write(enc)
		}
		if err != nil {
			t.Fatal(err)
		}
		index = binary.LittleEndian.AppendUint64(index, uint64(file.Len()-8-len(enc)))
	}
	edges, err := graph.BytesToEdges(b)
	if err == nil {
		err = fw.Finish()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range graph.Degrees(m.Vertices, edges) {
		index = binary.LittleEndian.AppendUint32(index, d)
	}
	m, err = graph.LoadMeta(mib, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	m.StoredBytes = uint64(file.Len())
	var conf strings.Builder
	if err := graph.WriteConfig(&conf, m); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{graph.EdgeFileName(m.Name): file.Bytes(),
		graph.IndexFileName(m.Name): graph.FrameAll(index), graph.ConfFileName(m.Name): []byte(conf.String())} {
		if err := storage.WriteAll(mib, name, data); err != nil {
			t.Fatal(err)
		}
	}
	run := func(vol storage.Volume) *Result {
		o := Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 8, StreamBufSize: 4096,
			Sim: sparseSim(), Codec: graph.CodecDelta}}
		res, err := Run(vol, m.Name, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got, want := run(mib), run(blocks)
	assertSameResult(t, "MiB frames", got, want)
	if !checkFileRows(t, "MiB frames", got) || got.Metrics.TotalBytes() <= want.Metrics.TotalBytes() {
		t.Fatalf("MiB frames: sparse %v, %d device bytes; block frames %d", checkFileRows(t, "", got), got.Metrics.TotalBytes(), want.Metrics.TotalBytes())
	}
}

// TestSparseResume: a run killed at each iteration boundary while it reads
// the indexed store sparse resumes into its stored phase with the index
// loaded, not a recount — its stored rows read sparse — and grows the
// uninterrupted run's tree.
func TestSparseResume(t *testing.T) {
	resumedSparse := 0
	for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
		c := ckCase{dir, graph.CodecFixed}
		opts := func(ck storage.Volume, resume bool, maxIter int) Options {
			o := ckOpts(c, ck, resume, maxIter)
			o.Base.Sim, o.Base.Codec = sparseSim(), graph.CodecFixed
			return o
		}
		for seed := int64(1); seed <= 3; seed++ {
			vol, m := seededGraph(t, seed, c.codec)
			ref, err := Run(vol, m.Name, opts(nil, false, 0))
			if err != nil || !checkFileRows(t, "reference", ref) {
				t.Fatalf("%s: reference run read no range (err %v)", dir, err)
			}
			for kill := 1; kill < len(ref.Metrics.Iterations); kill++ {
				tag := fmt.Sprintf("%s, seed %d, kill %d", dir, seed, kill)
				ck := storage.NewMem()
				if _, err := Run(vol, m.Name, opts(ck, false, kill)); err != nil {
					t.Fatalf("%s: partial run: %v", tag, err)
				}
				resumed, err := Run(vol, m.Name, opts(ck, true, 0))
				if err != nil {
					t.Fatalf("%s: resume: %v", tag, err)
				}
				assertSameResult(t, tag, resumed, ref)
				if checkFileRows(t, tag, resumed) {
					resumedSparse++
				}
			}
		}
	}
	if resumedSparse == 0 {
		t.Fatal("no resumed run read sparse")
	}
	t.Logf("%d resumed runs read sparse", resumedSparse)
}
