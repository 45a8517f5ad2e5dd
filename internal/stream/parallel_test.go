package stream

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// runSlice is a slice source over the pool's engine: edges copied chunk
// by chunk into the pool's own buffers, as a scanner of fixed-width
// records decodes them.
func runSlice(sp *ScatterPool, edges []graph.Edge, fn ScatterFunc, merge MergeFunc) error {
	next := func() (j chunkJob, err error) {
		j.edges = pop(sp, &sp.chunks, func() []graph.Edge { return make([]graph.Edge, sp.chunkEdges) })
		j.raw.raw = pop(sp, &sp.raws, func() []byte { return nil })
		j.raw.n = copy(j.edges, edges)
		edges = edges[j.raw.n:]
		return j, nil
	}
	return sp.run(next, PipelineDepth, fn, merge, nil)
}

// collectRun drives a pool over edges and returns the merged output in
// merge order: the per-chunk update batches flattened, plus the chunk
// sizes seen, so tests can assert both content and chunking.
func collectRun(t *testing.T, sp *ScatterPool, edges []graph.Edge, runner func(ScatterFunc, MergeFunc) error) (got []graph.Update, chunkSizes []int) {
	t.Helper()
	classify := func(chunk []graph.Edge, out *Shard) {
		for _, e := range chunk {
			out.Scanned++
			out.ByPart[0] = append(out.ByPart[0], graph.Update{Dst: e.Dst, Parent: e.Src})
		}
	}
	merge := func(s *Shard) error {
		chunkSizes = append(chunkSizes, int(s.Scanned))
		got = append(got, s.ByPart[0]...)
		return nil
	}
	if err := runner(classify, merge); err != nil {
		t.Fatal(err)
	}
	return got, chunkSizes
}

func TestScatterPoolSliceMatchesSerialForAnyWorkerCount(t *testing.T) {
	edges := makeEdges(10_000)
	want, wantChunks := collectRun(t, NewScatterPool(1, 97, 1), edges,
		func(fn ScatterFunc, m MergeFunc) error {
			return runSlice(NewScatterPool(1, 97, 1), edges, fn, m)
		})
	for _, workers := range []int{2, 3, 4, 8, runtime.NumCPU()} {
		sp := NewScatterPool(workers, 97, 1)
		got, gotChunks := collectRun(t, sp, edges,
			func(fn ScatterFunc, m MergeFunc) error { return runSlice(sp, edges, fn, m) })
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d updates, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: update %d = %v, want %v (merge order broke)", workers, i, got[i], want[i])
			}
		}
		if len(gotChunks) != len(wantChunks) {
			t.Fatalf("workers=%d: %d chunks, want %d (chunking must not depend on workers)", workers, len(gotChunks), len(wantChunks))
		}
	}
}

func TestScatterPoolScannerMatchesSlice(t *testing.T) {
	vol := storage.NewMem()
	edges := makeEdges(4_321)
	writeEdgesFile(t, vol, "edges", edges)
	for _, workers := range []int{1, 4} {
		sp := NewScatterPool(workers, 100, 1)
		sliceGot, _ := collectRun(t, sp, edges,
			func(fn ScatterFunc, m MergeFunc) error { return runSlice(sp, edges, fn, m) })
		sc, err := NewEdgeScanner(vol, "edges", Timing{}, 256)
		if err != nil {
			t.Fatal(err)
		}
		scanGot, _ := collectRun(t, sp, edges,
			func(fn ScatterFunc, m MergeFunc) error { return sp.RunScanner(sc, fn, m) })
		sc.Close()
		if len(scanGot) != len(sliceGot) {
			t.Fatalf("workers=%d: scanner path %d updates, slice path %d", workers, len(scanGot), len(sliceGot))
		}
		for i := range scanGot {
			if scanGot[i] != sliceGot[i] {
				t.Fatalf("workers=%d: update %d differs between scanner and slice paths", workers, i)
			}
		}
	}
}

func TestScannerNextChunkMatchesNext(t *testing.T) {
	vol := storage.NewMem()
	edges := makeEdges(1_000)
	writeEdgesFile(t, vol, "edges", edges)
	// Chunk size deliberately misaligned with both the record size and
	// the scanner buffer, so chunks straddle refill boundaries.
	for _, chunk := range []int{1, 7, 64, 1_024, 5_000} {
		sc, err := NewEdgeScanner(vol, "edges", Timing{}, 192)
		if err != nil {
			t.Fatal(err)
		}
		var got []graph.Edge
		buf := make([]graph.Edge, chunk)
		for {
			n, err := sc.NextChunk(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		sc.Close()
		if len(got) != len(edges) {
			t.Fatalf("chunk=%d: read %d edges, want %d", chunk, len(got), len(edges))
		}
		for i := range got {
			if got[i] != edges[i] {
				t.Fatalf("chunk=%d: edge %d = %v, want %v", chunk, i, got[i], edges[i])
			}
		}
	}
}

func TestScatterPoolPropagatesClassifyError(t *testing.T) {
	boom := errors.New("bad edge")
	edges := makeEdges(5_000)
	for _, workers := range []int{1, 4} {
		sp := NewScatterPool(workers, 64, 1)
		merged := 0
		err := runSlice(sp, edges, func(chunk []graph.Edge, out *Shard) {
			for _, e := range chunk {
				if e.Src == 1_000 {
					out.Err = boom
					return
				}
				out.Scanned++
			}
		}, func(s *Shard) error {
			merged++
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want classify error", workers, err)
		}
		// Chunks before the failing one (index 1000/64 = 15) must all have
		// merged: the error surfaces at its chunk's in-order merge point.
		if merged < 15 {
			t.Fatalf("workers=%d: only %d chunks merged before the error, want 15", workers, merged)
		}
	}
}

func TestScatterPoolPropagatesMergeError(t *testing.T) {
	boom := errors.New("writer failed")
	edges := makeEdges(5_000)
	for _, workers := range []int{1, 4} {
		sp := NewScatterPool(workers, 64, 1)
		merged := 0
		err := runSlice(sp, edges, func(chunk []graph.Edge, out *Shard) {}, func(s *Shard) error {
			merged++
			if merged == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want merge error", workers, err)
		}
		if merged != 3 {
			t.Fatalf("workers=%d: merge called %d times after its error, want exactly 3", workers, merged)
		}
	}
}

func TestScatterPoolLeaksNoGoroutinesOnError(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	edges := makeEdges(100_000)
	for i := 0; i < 20; i++ {
		sp := NewScatterPool(8, 128, 1)
		runSlice(sp, edges, func(chunk []graph.Edge, out *Shard) {
			if chunk[0].Src >= 1_000 {
				out.Err = boom
			}
		}, func(s *Shard) error { return nil })
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d: pool run leaked workers", before, after)
	}
}

func TestScatterPoolPartitionedShards(t *testing.T) {
	const parts = 4
	edges := makeEdges(1_000)
	sp := NewScatterPool(4, 33, parts)
	perPart := make([][]graph.Update, parts)
	err := runSlice(sp, edges, func(chunk []graph.Edge, out *Shard) {
		for _, e := range chunk {
			p := int(e.Dst) % parts
			out.ByPart[p] = append(out.ByPart[p], graph.Update{Dst: e.Dst, Parent: e.Src})
		}
	}, func(s *Shard) error {
		for p := range s.ByPart {
			perPart[p] = append(perPart[p], s.ByPart[p]...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each partition stream must be the global scan order filtered to that
	// partition — the property the sharded-shuffler merge relies on.
	for p := 0; p < parts; p++ {
		var want []graph.Update
		for _, e := range edges {
			if int(e.Dst)%parts == p {
				want = append(want, graph.Update{Dst: e.Dst, Parent: e.Src})
			}
		}
		if len(perPart[p]) != len(want) {
			t.Fatalf("partition %d: %d updates, want %d", p, len(perPart[p]), len(want))
		}
		for i := range want {
			if perPart[p][i] != want[i] {
				t.Fatalf("partition %d: update %d = %v, want %v", p, i, perPart[p][i], want[i])
			}
		}
	}
}

func TestShufflerAppendTo(t *testing.T) {
	vol := storage.NewMem()
	pt, err := graph.NewPartitioning(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShuffler(vol, pt, Timing{}, 256, func(p int) string { return fmt.Sprintf("upd_%d", p) })
	if err != nil {
		t.Fatal(err)
	}
	var want [4][]graph.Update
	var batch []graph.Update
	for i := 0; i < 200; i++ {
		u := graph.Update{Dst: graph.VertexID(i % 100), Parent: graph.VertexID(i)}
		p := pt.Of(u.Dst)
		want[p] = append(want[p], u)
		batch = append(batch, u)
	}
	for p := 0; p < sh.P(); p++ {
		var us []graph.Update
		for _, u := range batch {
			if pt.Of(u.Dst) == p {
				us = append(us, u)
			}
		}
		if err := sh.AppendTo(p, us); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		raw, err := storage.ReadAll(vol, fmt.Sprintf("upd_%d", p))
		if err != nil {
			t.Fatal(err)
		}
		// Update files are framed; decode down to the record payload.
		b, err := graph.DeframeAll(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(b)%graph.UpdateBytes != 0 {
			t.Fatalf("partition %d: %d bytes is not a whole number of updates", p, len(b))
		}
		got := make([]graph.Update, len(b)/graph.UpdateBytes)
		for i := range got {
			got[i] = graph.GetUpdate(b[i*graph.UpdateBytes:])
		}
		if len(got) != len(want[p]) {
			t.Fatalf("partition %d: %d updates, want %d", p, len(got), len(want[p]))
		}
		for i := range got {
			if got[i] != want[p][i] {
				t.Fatalf("partition %d: update %d = %v, want %v", p, i, got[i], want[p][i])
			}
		}
	}
}

// TestScatterPoolRecoversPanics: a panic in classify (or the fault
// hook) must not kill the process — it surfaces as a *PanicError on
// that chunk's shard, arriving through the normal in-order merge path,
// and the error unwraps to errs.ErrInternal so the serving layer can
// classify it. Workers survive to run the next query's pool.
func TestScatterPoolRecoversPanics(t *testing.T) {
	edges := makeEdges(5_000)
	for _, workers := range []int{1, 4} {
		sp := NewScatterPool(workers, 64, 1)
		err := runSlice(sp, edges, func(chunk []graph.Edge, out *Shard) {
			for _, e := range chunk {
				if e.Src == 1_000 {
					panic("poisoned edge")
				}
			}
		}, func(s *Shard) error { return nil })
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "poisoned edge" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic value %v, stack %d bytes", workers, pe.Value, len(pe.Stack))
		}
		if !errors.Is(err, errs.ErrInternal) {
			t.Fatalf("workers=%d: recovered panic does not unwrap to ErrInternal: %v", workers, err)
		}

		// The same pool value cannot be reused after an error, but a new
		// pool with the same workers must run clean — no worker died.
		clean := NewScatterPool(workers, 64, 1)
		scanned := 0
		if err := runSlice(clean, edges, func(chunk []graph.Edge, out *Shard) {
			out.Scanned += int64(len(chunk))
		}, func(s *Shard) error { scanned += int(s.Scanned); return nil }); err != nil {
			t.Fatalf("workers=%d: pool after a recovered panic: %v", workers, err)
		}
		if scanned != len(edges) {
			t.Fatalf("workers=%d: scanned %d of %d after a recovered panic", workers, scanned, len(edges))
		}
	}
}

// TestScatterPoolFaultHookPanic: the FaultHook seam the chaos cell uses
// is covered by the same recovery.
func TestScatterPoolFaultHookPanic(t *testing.T) {
	edges := makeEdges(500)
	sp := NewScatterPool(2, 64, 1)
	sp.FaultHook = func() { panic("injected fault") }
	err := runSlice(sp, edges, func(chunk []graph.Edge, out *Shard) {}, func(s *Shard) error { return nil })
	if !errors.Is(err, errs.ErrInternal) {
		t.Fatalf("fault-hook panic: err = %v, want ErrInternal", err)
	}
}

// TestScatterPoolGivesEachChunkOneHint: a worker decodes a chunk whole
// against a hint of its own, told how many of the chunk's records lie in a
// delta block begun in an earlier chunk, and the chunks are classified and
// merged in file order — the same chunks, heads and kept edges for every
// worker count, on a delta file whose blocks the chunk boundaries cut, and
// on a fixed one, which has no blocks.
func TestScatterPoolGivesEachChunkOneHint(t *testing.T) {
	var edges []graph.Edge
	for s := 0; len(edges) < 20000; s++ {
		for d := 0; d < s%29+1; d++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(s), Dst: graph.VertexID(5*d + s%3)})
		}
	}
	const block, chunk = graph.DeltaBlockMaxEdges, 1500
	vol := storage.NewMem()
	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		// A buffer of one block flushes the file in blocks of 4096 records.
		w, err := NewCodecEdgeWriter(vol, "e_"+string(codec), Timing{}, block*graph.EdgeBytes, codec)
		if err == nil {
			err = w.AppendChunk(edges)
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		var want [][2]int
		for at := 0; at < len(edges); at += chunk {
			n, head := min(chunk, len(edges)-at), 0
			if skip := at % block; skip > 0 && codec == graph.CodecDelta {
				head = min(block-skip, n)
			}
			want = append(want, [2]int{n, head})
		}
		for _, workers := range []int{1, 2, 8} {
			sc, err := NewEdgeScanner(vol, "e_"+string(codec), Timing{}, chunk*graph.EdgeBytes)
			if err != nil {
				t.Fatal(err)
			}
			hint := &oddRuns{}
			var reads []int
			var kept []graph.Edge
			keepAll := func(es []graph.Edge, out *Shard) { out.Stays = append(out.Stays, es...) }
			err = NewScatterPool(workers, chunk, 1).RunScannerDepth(sc, 2, hint, keepAll, func(sh *Shard) error {
				reads, kept = append(reads, int(sh.Read)), append(kept, sh.Stays...)
				return nil
			})
			sc.Close()
			if err != nil {
				t.Fatalf("%s, %d workers: %v", codec, workers, err)
			}
			var wantKept []graph.Edge
			for _, e := range edges {
				if e.Src%2 == 1 || codec == graph.CodecFixed {
					wantKept = append(wantKept, e)
				}
			}
			if !slices.Equal(hint.chunks, want) || len(reads) != len(want) || hint.shown != len(edges) || !slices.Equal(kept, wantKept) {
				t.Fatalf("%s, %d workers: chunks (records, head) %v, want %v; %d merged, %d shown to the hints, %d kept of %d",
					codec, workers, hint.chunks, want, len(reads), hint.shown, len(kept), len(wantKept))
			}
		}
	}
}
