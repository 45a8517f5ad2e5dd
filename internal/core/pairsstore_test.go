package core

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// testdata/pairs_store is a delta+reordered store with its transposed
// graph — rmat 9, edge factor 16, seed 11, as storedRMAT makes it —
// written when every delta block was in the pairs layout (DESIGN.md §14),
// together with the level logs a checkpointed run of it left after two of
// its four iterations; testdata/pairs_checkpoint is that run's checkpoint.

// loadDir copies the files of a testdata directory into a fresh volume.
func loadDir(t *testing.T, dir string) *storage.Mem {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteAll(vol, f.Name(), b); err != nil {
			t.Fatal(err)
		}
	}
	return vol
}

// TestPairsLayoutStoreRuns: a store and a checkpoint written with pairs
// blocks only load and answer as the same graph stored now does, without
// being stored again — the edges, an uninterrupted run and a run resumed
// from the old checkpoint's logs.
func TestPairsLayoutStoreRuns(t *testing.T) {
	so := graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}
	fresh, m, root := storedRMAT(t, 9, 16, so)
	old := func() *storage.Mem { return loadDir(t, "testdata/pairs_store") }

	for _, file := range []string{graph.EdgeFileName(m.Name), graph.ReverseFileName(m.Name)} {
		was, _ := old().Size(file)
		now, _ := fresh.Size(file)
		if now >= was {
			t.Errorf("%s: %d bytes stored now, %d in pairs: the fixture tests nothing", file, now, was)
		}
	}
	_, want, err := xstream.LoadEdges(fresh, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := xstream.LoadEdges(old(), m.Name); err != nil || !slices.Equal(got, want) {
		t.Fatalf("pairs store's edges differ from the fresh store's: %v", err)
	}

	opts := func(ck storage.Volume) Options {
		return Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 8, StreamBufSize: 4096,
			Sim: sparseSim(), Direction: xstream.DirectionAuto}, CheckpointVol: ck, Resume: ck != nil}
	}
	ref, err := Run(fresh, m.Name, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(old(), m.Name, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "pairs store", got, ref)

	vol := old()
	if files, _ := deltaLogs(t, vol); len(files) == 0 {
		t.Fatal("the fixture holds no FBD1 level log")
	}
	resumed, err := Run(vol, m.Name, opts(loadDir(t, "testdata/pairs_checkpoint")))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Metrics.Resumed != 2 {
		t.Fatalf("resumed at iteration %d, want the checkpoint's 2", resumed.Metrics.Resumed)
	}
	assertSameResult(t, "resumed from pairs logs", resumed, ref)
}
