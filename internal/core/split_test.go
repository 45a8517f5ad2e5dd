package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fastbfs/internal/bfs"
	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Tests of the stored passes and the split (DESIGN.md §5,
// internal/xstream/split.go) beyond the sweeps that run them everywhere.

// TestParentsIndependentOfPartitionCount: on a source-sorted store the
// first frontier parent a pass meets for a vertex is its smallest, whatever
// the partition count, so levels and parents are the same for P = 1, 2 and
// 8 — on fixed, delta and delta+reordered stores, top-down and auto, with
// the update filter on, trimming by the counts (stored passes, then a
// split) and at every scatter (split up front): every run of a store grows
// its first run's tree. The fixed store must offer ties across the P = 8
// partitions, or the test checks nothing.
func TestParentsIndependentOfPartitionCount(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 11)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	ref, err := bfs.Run(m, edges, root)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := graph.NewPartitioning(m.Vertices, 8)
	if err != nil {
		t.Fatal(err)
	}
	// seen is the partition of a vertex's first tree-parent candidate, -1
	// until there is one; a vertex with candidates in two partitions is a tie.
	seen := make([]int, m.Vertices)
	for v := range seen {
		seen[v] = -1
	}
	ties := 0
	for _, x := range edges {
		if ref.Level[x.Src] == bfs.NoLevel || ref.Level[x.Dst] != ref.Level[x.Src]+1 {
			continue
		}
		switch p := parts.Of(x.Src); {
		case seen[x.Dst] < 0:
			seen[x.Dst] = p
		case seen[x.Dst] != p:
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no vertex has tree-parent candidates in two partitions")
	}
	for _, store := range []graph.StoreOptions{
		{Reverse: true},
		{Codec: graph.CodecDelta, Reverse: true},
		{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true},
	} {
		vol := storage.NewMem()
		if err := graph.StoreGraph(vol, m, edges, store); err != nil {
			t.Fatal(err)
		}
		var want *Result
		for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
			for _, trimStart := range []int{0, TrimEveryIteration} {
				for _, p := range []int{1, 2, 8} {
					o := smallOpts()
					o.Base.Root, o.Base.Partitions, o.Base.Direction = root, p, dir
					o.TrimStartIteration = trimStart
					got, err := Run(vol, m.Name, o)
					label := fmt.Sprintf("codec=%q/reorder=%v/%s/trimstart=%d/P=%d", store.Codec, store.ReorderByDegree, dir, trimStart, p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if want == nil {
						want = got
						continue
					}
					assertSameResult(t, label+" against the store's first run", got, want)
				}
			}
		}
	}
}

// TestStoredPassCorruptionFailsStop: the stored file torn or bit-flipped
// under a run — between its first stored pass and the next — fails the next
// pass with ErrCorrupted, never a wrong tree: a fixed-width file by its edge
// count or an out-of-range source, a delta one by its frame checksums. Read
// sparse (sparseSim), a fixed file whose every source is relabelled — each
// still in range, and the file has no checksum — fails the index check.
func TestStoredPassCorruptionFailsStop(t *testing.T) {
	for _, tc := range []struct {
		name              string
		store             graph.StoreOptions
		sim               func() *xstream.SimConfig
		scale, edgeFactor int
		damage            func([]byte) []byte
	}{
		{"fixed/torn", graph.StoreOptions{}, xstream.DefaultSim, 9, 8, func(b []byte) []byte { return b[:len(b)/16*8] }},
		{"fixed/flipped", graph.StoreOptions{}, xstream.DefaultSim, 9, 8, func(b []byte) []byte { b[len(b)/16*8+3] ^= 0xFF; return b }},
		{"delta/torn", graph.StoreOptions{Codec: graph.CodecDelta}, xstream.DefaultSim, 9, 8, func(b []byte) []byte { return b[:len(b)/2] }},
		{"delta/flipped", graph.StoreOptions{Codec: graph.CodecDelta}, xstream.DefaultSim, 9, 8, func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b }},
		{"sparse/fixed/relabelled", graph.StoreOptions{}, sparseSim, 10, 8, func(b []byte) []byte {
			for i := 0; i < len(b); i += graph.EdgeBytes {
				b[i] ^= 1
			}
			return b
		}},
		{"sparse/fixed/torn", graph.StoreOptions{}, sparseSim, 10, 8, func(b []byte) []byte { return b[:graph.EdgeBytes] }},
		{"sparse/delta/flipped", graph.StoreOptions{Codec: graph.CodecDelta}, sparseSim, 13, 24, func(b []byte) []byte {
			b[len(b)/3] ^= 0xFF // in a frame a third of the way in, and in the last
			b[len(b)-20] ^= 0xFF
			return b
		}},
	} {
		vol, m, root := storedRMAT(t, tc.scale, tc.edgeFactor, tc.store)
		name, stored := graph.EdgeFileName(m.Name), vol.List()
		var damaged atomic.Bool
		o := smallOpts()
		o.Base.Root, o.Base.Direction, o.Base.Sim = root, xstream.DirectionTopDown, tc.sim()
		o.Base.FaultHook = func() { // in iteration 0's pass: the next one opens the damage
			if damaged.CompareAndSwap(false, true) {
				b, err := storage.ReadAll(vol, name)
				if err == nil {
					err = storage.WriteAll(vol, name, tc.damage(b))
				}
				if err != nil {
					t.Error(err)
				}
			}
		}
		if _, err := Run(vol, m.Name, o); !errors.Is(err, errs.ErrCorrupted) {
			t.Fatalf("%s: err = %v, want ErrCorrupted", tc.name, err)
		}
		if got := vol.List(); !slices.Equal(got, stored) {
			t.Fatalf("%s: volume holds %v after the failure, want only the dataset %v", tc.name, got, stored)
		}
	}
}

// TestStoredPassAbortLeavesNothing: a run cancelled in the middle of a
// stored pass, or whose fault hook panics there, fails as such, and one
// under transient I/O faults (what FASTBFS_FAULTS injects) grows the
// fault-free tree; none leaves a working file or a goroutine behind. Each
// runs on a device where every stored pass is dense, and on one where the
// passes over the indexed store read sparse.
func TestStoredPassAbortLeavesNothing(t *testing.T) {
	vol, m, root := storedRMAT(t, 9, 8, graph.StoreOptions{Reverse: true})
	stored := vol.List()
	before := runtime.NumGoroutine()
	for _, c := range []struct {
		sim    func() *xstream.SimConfig
		sparse bool
	}{{xstream.DefaultSim, false}, {sparseSim, true}} {
		sparse := c.sparse
		opts := func(d xstream.Direction, hook func()) Options {
			o := smallOpts()
			o.Base.Root, o.Base.Direction, o.Base.ScatterWorkers, o.Base.Sim, o.Base.FaultHook = root, d, 4, c.sim(), hook
			return o
		}
		want, err := Run(vol, m.Name, opts(xstream.DirectionTopDown, nil))
		if err != nil || !want.Metrics.Iterations[1].Stored {
			t.Fatalf("reference run: %v (rows %+v)", err, want.Metrics.Iterations)
		}
		if checkFileRows(t, "reference run", want) != sparse {
			t.Fatalf("reference run: read sparse %v, want %v", !sparse, sparse)
		}
		chunk := int64(smallOpts().Base.StreamBufSize / graph.EdgeBytes)
		for _, d := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
			// Iteration 0's pass, and the next.
			for _, stop := range []int64{2, (want.Metrics.Iterations[0].EdgesStreamed+chunk-1)/chunk + 2} {
				for _, panics := range []bool{false, true} {
					label := fmt.Sprintf("sparse=%v dir=%s chunk %d panic=%v", sparse, d, stop, panics)
					ctx, cancel := context.WithCancel(context.Background())
					var chunks atomic.Int64
					_, err := RunContext(ctx, vol, m.Name, opts(d, func() {
						if chunks.Add(1) == stop {
							if panics {
								panic("injected")
							}
							cancel()
						}
					}))
					cancel()
					wantErr := errs.ErrCancelled
					if panics {
						wantErr = errs.ErrInternal
					}
					if !errors.Is(err, wantErr) {
						t.Fatalf("%s: err = %v, want %v", label, err, wantErr)
					}
					if got := vol.List(); !slices.Equal(got, stored) {
						t.Fatalf("%s: volume holds %v, want only the dataset %v", label, got, stored)
					}
				}
			}
		}
		faulty := storage.NewFaulty(vol, storage.FaultSpec{Seed: 25, ReadP: 0.05, WriteP: 0.05})
		o := opts(xstream.DirectionTopDown, nil)
		o.Base.RetryAttempts = 12
		got, err := Run(faulty, m.Name, o)
		if err != nil || got.Metrics.IORetries == 0 {
			t.Fatalf("sparse=%v under transient faults: err %v, %d retries", sparse, err, got.Metrics.IORetries)
		}
		assertSameResult(t, fmt.Sprintf("sparse=%v under transient faults", sparse), got, want)
		if checkFileRows(t, "under transient faults", got) != sparse {
			t.Fatalf("sparse=%v: the faulty run read otherwise", sparse)
		}
		if files := vol.List(); !slices.Equal(files, stored) {
			t.Fatalf("volume holds %v after the faulty run, want %v", files, stored)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across aborted stored passes", before, after)
	}
}
