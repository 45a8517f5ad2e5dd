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

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Tests of the stored passes and the split (DESIGN.md §5,
// internal/xstream/split.go) beyond the sweeps that run them everywhere.

// storeCodec is the codec a store with these options writes — the working
// codec a run needs to stream the stored file rather than split it up front.
func storeCodec(so graph.StoreOptions) graph.Codec {
	if so.Codec == "" {
		return graph.CodecFixed
	}
	return so.Codec
}

// TestPromotionReservesWhatItHolds: a promotion reserves what its capture
// will hold, decoded — the partition's live edges — not the delta-coded
// input it scans, so the cache stays inside ResidencyBudget at every
// iteration. (Reserving the input's 2–3 B/edge, one of these two
// partitions took 28 KB of the 24 KiB.)
func TestPromotionReservesWhatItHolds(t *testing.T) {
	vol, m, root := storedRMAT(t, 9, 8, graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true})
	const budget = 24 << 10
	col := &obs.Collect{}
	o := smallOpts()
	o.Base.Root, o.Base.MemoryBudget, o.Base.Tracer = root, 4096, obs.New(col)
	o.Base.Direction = xstream.DirectionTopDown
	o.ResidencyBudget = budget
	res, err := Run(vol, m.Name, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ResidentParts < 2 {
		t.Fatalf("%d partitions promoted; the budget checked nothing", res.Metrics.ResidentParts)
	}
	for _, ev := range col.Events() {
		if got := ev.Counters[obs.CtrResidentBytes]; ev.Kind == obs.KindCounters && got > budget {
			t.Fatalf("iteration %d ended with %d resident bytes, budget %d", ev.Counters[obs.CtrIteration], got, budget)
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
		// The stored passes need the store's codec, whatever FASTBFS_CODEC says.
		o.Base.Codec = storeCodec(tc.store)
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
			o.Base.Codec = graph.CodecFixed // the store's: the stored passes need it
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
