package core

import (
	"fmt"
	"slices"
	"testing"

	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
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

// checkFileRows asserts what every file row records of its read — a stored
// row's, or the first bottom-up row's, of the transposed graph: a sparse one
// read exactly the bytes its ranges promised, a dense one promised nothing;
// sparse reports whether any row read sparse.
func checkFileRows(t testing.TB, label string, res *Result) (sparse bool) {
	t.Helper()
	fused := -1 // the first bottom-up row
	for i, it := range res.Metrics.Iterations {
		if it.BottomUp && fused < 0 {
			fused = i
		}
		switch {
		case it.Sparse && (!it.Stored && i != fused || it.FilePredicted != it.FileBytes):
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

// TestSparseMatchesDense: every indexed store, run on sparseSim's device
// and on the HDD, whose seek is worth more than the file, so that every pass
// reads it whole, grows byte-identical levels and parents across engine ×
// partitions × codec × direction, and the sparse run moves no more device
// bytes. The delta graph spans 48 frames of a delta block each, so a sparse
// pass reads a few.
func TestSparseMatchesDense(t *testing.T) {
	for _, g := range []struct {
		store             graph.StoreOptions
		scale, edgeFactor int
	}{
		{graph.StoreOptions{Reverse: true}, 10, 8},
		{graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}, 13, 24},
	} {
		vol, m, root := storedRMAT(t, g.scale, g.edgeFactor, g.store)
		for _, engine := range []string{EngineName, xstream.EngineName} {
			for _, parts := range []int{1, 2, 8} {
				for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
					label := fmt.Sprintf("%s/codec=%q/P=%d/%s", engine, g.store.Codec, parts, dir)
					run := func(sim *xstream.SimConfig) *Result {
						o := Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: parts, StreamBufSize: 4096,
							Sim: sim, Direction: dir}}
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
					got, want := run(sparseSim()), run(xstream.DefaultSim())
					assertSameResult(t, label, got, want)
					if got.Metrics.TotalBytes() > want.Metrics.TotalBytes() {
						t.Fatalf("%s: sparse run moved %d device bytes, the dense run %d", label, got.Metrics.TotalBytes(), want.Metrics.TotalBytes())
					}
					if checkFileRows(t, label, want) {
						t.Fatalf("%s: a run on the HDD read sparse", label)
					}
					if sparse := checkFileRows(t, label, got); sparse != (engine == EngineName) && dir == xstream.DirectionTopDown {
						t.Fatalf("%s: read sparse %v; only FastBFS has stored passes, and every one of these has a pass that pays", label, sparse)
					} else if engine == EngineName && !sparse {
						t.Fatalf("%s: read nothing sparse; every one of its stored passes pays", label)
					}
				}
			}
		}
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
			o.Base.Sim = sparseSim()
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

// TestReverseSparseNeedsReorder: in wall mode, where a positioning is worth
// 64 KiB, the first bottom-up pass reads the transposed graph's tails sparse
// on a degree-reordered rmat, fewer bytes than the file, and whole on the
// same graph stored without the reordering, whose open targets' tails span
// the file; both grow top-down's tree.
func TestReverseSparseNeedsReorder(t *testing.T) {
	for _, reorder := range []bool{true, false} {
		vol, m, root := storedRMAT(t, 13, 24, graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: reorder, Reverse: true})
		run := func(dir xstream.Direction) *Result {
			res, err := Run(vol, m.Name, Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 8,
				StreamBufSize: 4096, Direction: dir}})
			if err != nil {
				t.Fatalf("reorder %v, %s: %v", reorder, dir, err)
			}
			return res
		}
		got := run(xstream.DirectionAuto)
		assertSameResult(t, fmt.Sprintf("reorder %v", reorder), got, run(xstream.DirectionTopDown))
		checkFileRows(t, fmt.Sprintf("reorder %v", reorder), got)
		size, err := vol.Size(graph.ReverseFileName(m.Name))
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range got.Metrics.Iterations {
			if !it.BottomUp {
				continue
			}
			if it.Sparse != reorder || it.FileBytes == 0 || it.FileBytes >= size {
				t.Fatalf("reorder %v: the first bottom-up row, iteration %d, read sparse %v: %d bytes of the %d-byte .rev",
					reorder, it.Index, it.Sparse, it.FileBytes, size)
			}
			t.Logf("reorder %v: iteration %d read %d bytes of the %d-byte .rev, sparse %v", reorder, it.Index, it.FileBytes, size, it.Sparse)
			break
		}
		if got.Metrics.BottomUpIterations == 0 {
			t.Fatalf("reorder %v: the run never went bottom-up", reorder)
		}
	}
}

// TestFusedPassKeepsOpenTails: on a delta + reorder store with direction
// auto, the first bottom-up pass hands classify (its reverse-split span's
// kept) no more than the tails of the targets open when it starts —
// unvisited and, trimming, not won by their head — while its row streams
// the records of every frame it reads, as many as a pass that keeps them
// all. The pinned count is that pass's.
func TestFusedPassKeepsOpenTails(t *testing.T) {
	vol, m, root := storedRMAT(t, 13, 24, graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true})
	col := &obs.Collect{}
	res, err := Run(vol, m.Name, Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 8,
		StreamBufSize: 4096, Direction: xstream.DirectionAuto, Tracer: obs.New(col)}})
	if err != nil {
		t.Fatal(err)
	}
	fused := slices.IndexFunc(res.Metrics.Iterations, func(it metrics.Iteration) bool { return it.BottomUp })
	if fused < 0 {
		t.Fatal("the run never went bottom-up")
	}
	row := res.Metrics.Iterations[fused]
	var kept, edges int64 = -1, -1
	for _, ev := range col.Events() {
		if k, ok := ev.Attrs["kept"]; ok && ev.Name == "reverse-split" {
			kept, edges = k, ev.Attrs["edges"]
		}
	}
	if edges != row.EdgesStreamed {
		t.Fatalf("the reverse-split span streamed %d edges, its row %d", edges, row.EdgesStreamed)
	}

	_, es, err := graph.LoadEdges(vol, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := graph.LoadPerm(vol, m.Name, m.Vertices)
	if err != nil {
		t.Fatal(err)
	}
	iter := uint32(row.Index) // the level the pass expands
	indeg, head := make([]int64, m.Vertices), make([]graph.VertexID, m.Vertices)
	for _, e := range es { // a target's head is its in-neighbour of the smallest stored id
		if indeg[e.Dst]++; indeg[e.Dst] == 1 || perm.ToStored(e.Src) < perm.ToStored(head[e.Dst]) {
			head[e.Dst] = e.Src
		}
	}
	var open, unvisited int64
	for v, d := range indeg {
		if d > 0 && res.Levels[v] > iter {
			unvisited += d - 1
			if !row.TrimActive || res.Levels[head[v]] != iter {
				open += d - 1
			}
		}
	}
	t.Logf("iteration %d (trim %v): %d records streamed, %d kept; %d tails of unvisited targets, %d of open", row.Index, row.TrimActive, row.EdgesStreamed, kept, unvisited, open)
	if kept < 0 || kept > open {
		t.Fatalf("the pass kept %d records, the open targets have %d tails", kept, open)
	}
	if want := int64(pinnedFusedEdges); row.EdgesStreamed != want {
		t.Fatalf("the pass streamed %d records, want %d", row.EdgesStreamed, want)
	}
}

// pinnedFusedEdges is what TestFusedPassKeepsOpenTails's pass streamed
// when every record it read was handed to classify.
const pinnedFusedEdges = 16384
