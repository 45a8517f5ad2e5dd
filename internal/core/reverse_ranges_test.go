package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// sparseReverseStore stores rmat15/ef16 (seed 1) with its transposed graph.
// From root 2730 at a 32 KiB budget under ScaledSim(512), the first
// bottom-up pass reads the .rev in frame-aligned ranges, and on the fixed
// store ranges end and begin inside the tails of targets the pass does not
// want: the records of one target meet across a range boundary, with the
// tails between them unread.
func sparseReverseStore(t *testing.T, opts graph.StoreOptions) (*storage.Mem, graph.Meta) {
	t.Helper()
	m, edges, err := gen.RMAT(15, 16, gen.Graph500(), 1)
	if err != nil {
		t.Fatal(err)
	}
	opts.Reverse = true
	vol := storage.NewMem()
	if err := graph.StoreGraph(vol, m, edges, opts); err != nil {
		t.Fatal(err)
	}
	return vol, m
}

var sparseReverseEngines = []struct {
	name string
	run  func(storage.Volume, string, xstream.Options) (*Result, error)
}{
	{"fastbfs", func(vol storage.Volume, name string, o xstream.Options) (*Result, error) {
		return Run(vol, name, Options{Base: o})
	}},
	{"xstream", xstream.Run},
}

func sparseReverseOptions(dir xstream.Direction, workers int) xstream.Options {
	return xstream.Options{Root: 2730, MemoryBudget: 32 << 10, Direction: dir, ScatterWorkers: workers, Sim: xstream.ScaledSim(512)}
}

// TestReverseSparseRangesAcrossCodecs: on a fixed and a delta store, both
// engines with direction auto, at 1 and 4 workers, read the .rev sparse in
// their first bottom-up pass and return the top-down run's tree. A pass
// checks each range's records against the sources the index places there,
// so a target whose tails two ranges cut is two runs, not one that
// overruns the first range.
func TestReverseSparseRangesAcrossCodecs(t *testing.T) {
	for _, st := range []struct {
		name string
		opts graph.StoreOptions
	}{{"fixed", graph.StoreOptions{}}, {"delta", graph.StoreOptions{Codec: graph.CodecDelta}}} {
		vol, m := sparseReverseStore(t, st.opts)
		want, err := Run(vol, m.Name, Options{Base: sparseReverseOptions(xstream.DirectionTopDown, 1)})
		if err != nil {
			t.Fatalf("%s, topdown: %v", st.name, err)
		}
		for _, eng := range sparseReverseEngines {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s, %s, %d workers", st.name, eng.name, workers)
				res, err := eng.run(vol, m.Name, sparseReverseOptions(xstream.DirectionAuto, workers))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fused := slices.IndexFunc(res.Metrics.Iterations, func(it metrics.Iteration) bool { return it.BottomUp })
				if fused < 0 || !res.Metrics.Iterations[fused].Sparse {
					t.Fatalf("%s: the first bottom-up pass (row %d) does not read the .rev sparse: the test is vacuous", label, fused)
				}
				assertSameTree(t, label, res, want)
			}
		}
	}
}

// TestReverseTailsPastTheirDegreeAreCorrupted: a fixed .rev re-framed with
// valid CRCs, in which the first tail of a target the sparse pass reads
// carries the target before it — that target's records run one past what
// the index gives it in the range — is errs.ErrCorrupted on both engines.
func TestReverseTailsPastTheirDegreeAreCorrupted(t *testing.T) {
	vol, m := sparseReverseStore(t, graph.StoreOptions{})
	clean, err := Run(vol, m.Name, Options{Base: sparseReverseOptions(xstream.DirectionAuto, 1)})
	if err != nil {
		t.Fatal(err)
	}
	fused := slices.IndexFunc(clean.Metrics.Iterations, func(it metrics.Iteration) bool { return it.BottomUp })
	if fused < 0 || !clean.Metrics.Iterations[fused].Sparse {
		t.Fatalf("the first bottom-up pass (row %d) does not read the .rev sparse: the test is vacuous", fused)
	}
	iter := uint32(clean.Metrics.Iterations[fused].Index) // the level the pass expands

	name := graph.ReverseFileName(m.Name)
	file, err := storage.ReadAll(vol, name)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := graph.DeframeAll(file)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := graph.BytesToEdges(payload)
	if err != nil {
		t.Fatal(err)
	}
	frame := func(es []graph.Edge) []byte {
		var chunks [][]byte
		for lo := 0; lo < len(es); lo += graph.IndexFrameEdges {
			chunks = append(chunks, graph.EdgesToBytes(es[lo:min(lo+graph.IndexFrameEdges, len(es))]))
		}
		return graph.FrameAll(chunks...)
	}
	if !bytes.Equal(frame(recs), file) {
		t.Fatal("the .rev frames differently here")
	}
	// The .rev holds each target's tails, its in-neighbours but the first:
	// a target is open if it is unvisited when the pass starts and its head,
	// the in-neighbour of the smallest id, is not in the frontier.
	head := make(map[graph.VertexID]graph.VertexID)
	_, edges, err := xstream.LoadEdges(vol, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if h, ok := head[e.Dst]; !ok || e.Src < h {
			head[e.Dst] = e.Src
		}
	}
	at := slices.IndexFunc(recs, func(r graph.Edge) bool {
		return r.Src > recs[0].Src && clean.Levels[r.Src] > iter && clean.Levels[head[r.Src]] != iter
	})
	if at < 0 {
		t.Fatal("no open target after the first: the test is vacuous")
	}
	damaged := slices.Clone(recs)
	damaged[at].Src = recs[at-1].Src
	if err := storage.WriteAll(vol, name, frame(damaged)); err != nil {
		t.Fatal(err)
	}
	for _, eng := range sparseReverseEngines {
		if _, err := eng.run(vol, m.Name, sparseReverseOptions(xstream.DirectionAuto, 4)); !errors.Is(err, errs.ErrCorrupted) {
			t.Errorf("%s: tails of %d past its degree: err = %v, want ErrCorrupted", eng.name, recs[at-1].Src, err)
		}
	}
}
