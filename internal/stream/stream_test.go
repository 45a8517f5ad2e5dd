package stream

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"fastbfs/internal/disksim"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

func timing(dev *disksim.Device) (Timing, *disksim.Clock) {
	c := disksim.NewClock(disksim.DefaultCPU(), 1)
	return Timing{Clock: c, Device: dev}, c
}

func writeEdgesFile(t *testing.T, vol storage.Volume, name string, edges []graph.Edge) {
	t.Helper()
	if err := storage.WriteAll(vol, name, graph.EdgesToBytes(edges)); err != nil {
		t.Fatal(err)
	}
}

func makeEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(2*i + 1)}
	}
	return edges
}

func TestEdgeScannerReadsAll(t *testing.T) {
	vol := storage.NewMem()
	edges := makeEdges(1000)
	writeEdgesFile(t, vol, "e", edges)
	tm, _ := timing(disksim.HDD("d"))
	sc, err := NewEdgeScanner(vol, "e", tm, 256) // tiny buffer: many refills
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var got []graph.Edge
	for {
		e, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, e)
	}
	if len(got) != len(edges) {
		t.Fatalf("scanned %d edges, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
	if sc.BytesRead() != int64(len(edges)*graph.EdgeBytes) {
		t.Fatalf("BytesRead = %d", sc.BytesRead())
	}
}

func TestScannerChargesTimePerRefill(t *testing.T) {
	vol := storage.NewMem()
	edges := makeEdges(1024) // 8 KiB
	writeEdgesFile(t, vol, "e", edges)

	run := func(bufSize int) float64 {
		dev := disksim.HDD("d")
		tm, c := timing(dev)
		sc, err := NewEdgeScanner(vol, "e", tm, bufSize)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		for {
			_, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		return c.Now()
	}
	// Smaller buffers mean more modelled seeks, so more virtual time —
	// the reason the paper streams "in the granularity of an edge buffer
	// with limited size ... chosen to attain better sequential accessing".
	small := run(512)
	large := run(8192)
	if !(small > large) {
		t.Fatalf("small-buffer time %v not greater than large-buffer %v", small, large)
	}
}

func TestScannerEmptyFile(t *testing.T) {
	vol := storage.NewMem()
	writeEdgesFile(t, vol, "e", nil)
	sc, err := NewEdgeScanner(vol, "e", Timing{}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, ok, err := sc.Next(); ok || err != nil {
		t.Fatalf("empty file: ok=%v err=%v", ok, err)
	}
}

func TestScannerMissingFile(t *testing.T) {
	vol := storage.NewMem()
	if _, err := NewEdgeScanner(vol, "absent", Timing{}, 1024); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestWriterRoundTrip(t *testing.T) {
	vol := storage.NewMem()
	tm, _ := timing(disksim.HDD("d"))
	w, err := NewEdgeWriter(vol, "out", tm, 128)
	if err != nil {
		t.Fatal(err)
	}
	edges := makeEdges(500)
	for _, e := range edges {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 500 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := storage.ReadAll(vol, "out")
	if err != nil {
		t.Fatal(err)
	}
	got, err := graph.BytesToEdges(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("read back %d edges", len(got))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

func TestWriterAppendAfterClose(t *testing.T) {
	vol := storage.NewMem()
	w, _ := NewEdgeWriter(vol, "out", Timing{}, 128)
	w.Close()
	if err := w.Append(graph.Edge{}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestWriterAbort(t *testing.T) {
	vol := storage.NewMem()
	w, _ := NewEdgeWriter(vol, "out", Timing{}, 128)
	w.Append(graph.Edge{Src: 1, Dst: 2})
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if vol.Exists("out") {
		t.Fatal("aborted file exists")
	}
}

func TestWriterChargesSyncTime(t *testing.T) {
	vol := storage.NewMem()
	dev := disksim.HDD("d")
	tm, c := timing(dev)
	w, _ := NewEdgeWriter(vol, "out", tm, 1<<20)
	for _, e := range makeEdges(100) {
		w.Append(e)
	}
	if c.Now() != 0 {
		t.Fatal("buffered appends should not charge time")
	}
	w.Close()
	if c.Now() <= 0 {
		t.Fatal("flush on close charged no time")
	}
	if dev.BytesWritten() != 800 {
		t.Fatalf("device bytesWritten = %d", dev.BytesWritten())
	}
}

func TestScannerWriterPropertyRoundTrip(t *testing.T) {
	vol := storage.NewMem()
	i := 0
	f := func(srcs, dsts []uint32, bufSeed uint8) bool {
		i++
		n := len(srcs)
		if len(dsts) < n {
			n = len(dsts)
		}
		edges := make([]graph.Edge, n)
		for j := 0; j < n; j++ {
			edges[j] = graph.Edge{Src: graph.VertexID(srcs[j]), Dst: graph.VertexID(dsts[j])}
		}
		name := fmt.Sprintf("f%d", i)
		bufSize := int(bufSeed)%512 + graph.EdgeBytes
		w, err := NewEdgeWriter(vol, name, Timing{}, bufSize)
		if err != nil {
			return false
		}
		for _, e := range edges {
			if w.Append(e) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		sc, err := NewEdgeScanner(vol, name, Timing{}, bufSize)
		if err != nil {
			return false
		}
		defer sc.Close()
		for j := 0; ; j++ {
			e, ok, err := sc.Next()
			if err != nil {
				return false
			}
			if !ok {
				return j == n
			}
			if j >= n || e != edges[j] {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShufflerRoutesByDestination(t *testing.T) {
	vol := storage.NewMem()
	pt, err := graph.NewPartitioning(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShuffler(vol, pt, Timing{}, 1024, func(p int) string { return fmt.Sprintf("upd_%d", p) })
	if err != nil {
		t.Fatal(err)
	}
	var updates []graph.Update
	for v := uint32(0); v < 100; v++ {
		updates = append(updates, graph.Update{Dst: graph.VertexID(v), Parent: graph.VertexID(v / 2)})
	}
	for _, u := range updates {
		if err := sh.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	counts := sh.Counts()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for p := 0; p < 4; p++ {
		total += counts[p]
		sc, err := NewUpdateScanner(vol, fmt.Sprintf("upd_%d", p), Timing{}, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for {
			u, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if !pt.Contains(p, u.Dst) {
				t.Fatalf("update %v landed in wrong partition %d", u, p)
			}
		}
		sc.Close()
	}
	if total != 100 {
		t.Fatalf("total routed = %d", total)
	}
}

func TestShufflerAbort(t *testing.T) {
	vol := storage.NewMem()
	pt, _ := graph.NewPartitioning(10, 2)
	sh, err := NewShuffler(vol, pt, Timing{}, 64, func(p int) string { return fmt.Sprintf("u%d", p) })
	if err != nil {
		t.Fatal(err)
	}
	sh.Append(graph.Update{Dst: 1})
	sh.Abort()
	if len(vol.List()) != 0 {
		t.Fatalf("files after abort: %v", vol.List())
	}
}

// oddRuns are Hints that keep the runs of odd sources: each chunk's hint
// counts the records it is shown, which must be the chunk's, and Merged
// adds them up; Chunk logs each chunk's records.
type oddRuns struct {
	shown  int
	chunks []int
}

type oddChunk struct{ n, shown int }

func (h *oddRuns) Chunk(_ ChunkHint, n int) ChunkHint {
	h.chunks = append(h.chunks, n)
	return &oddChunk{n: n}
}

func (h *oddRuns) Merged(hint ChunkHint) error {
	c := hint.(*oddChunk)
	if c.shown != c.n {
		return fmt.Errorf("a chunk of %d records showed its hint %d", c.n, c.shown)
	}
	h.shown += c.shown
	return nil
}

func (c *oddChunk) Keep(src graph.VertexID, n int) (bool, error) {
	c.shown += n
	return src%2 == 1, nil
}

func (c *oddChunk) Last(graph.VertexID) error { return nil }

func (c *oddChunk) Records(edges []graph.Edge) error {
	c.shown += len(edges)
	return nil
}

// TestKeepLeavesRefillsAlone: a hinted pool scan of a delta file reads,
// chunk for chunk, the records and the device bytes an unhinted NextChunk
// scan does, and its workers keep exactly the records of the runs the hint
// keeps, wherever a run, a block, a chunk and a refill end; a fixed-width
// file's hint is shown every record and drops none.
func TestKeepLeavesRefillsAlone(t *testing.T) {
	var edges []graph.Edge
	for s := 0; s < 600; s++ {
		for d := 0; d < (s*7)%23+1; d++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(s), Dst: graph.VertexID(3*d + s%5)})
		}
	}
	vol := storage.NewMem()
	for _, codec := range []graph.Codec{graph.CodecDelta, graph.CodecFixed} {
		w, err := NewCodecEdgeWriter(vol, "e_"+string(codec), Timing{}, 4096, codec)
		if err == nil {
			err = w.AppendChunk(edges)
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, codec := range []graph.Codec{graph.CodecDelta, graph.CodecFixed} {
		for _, bufSize := range []int{64, 520, 4096, 1 << 20} {
			for _, chunkLen := range []int{1, 7, 64, 1000} {
				for _, workers := range []int{1, 3} {
					label := fmt.Sprintf("%s, %d B buffer, chunks of %d, %d workers", codec, bufSize, chunkLen, workers)
					full, err := NewEdgeScanner(vol, "e_"+string(codec), Timing{}, bufSize)
					if err != nil {
						t.Fatal(err)
					}
					hinted, err := NewEdgeScanner(vol, "e_"+string(codec), Timing{}, bufSize)
					if err != nil {
						t.Fatal(err)
					}
					hint := &oddRuns{}
					a := make([]graph.Edge, chunkLen)
					var total int
					keepAll := func(chunk []graph.Edge, out *Shard) { out.Stays = append(out.Stays, chunk...) }
					err = NewScatterPool(workers, chunkLen, 1).RunScannerDepth(hinted, 1, hint, keepAll, func(sh *Shard) error {
						n, err := full.NextChunk(a)
						if err != nil {
							return err
						}
						if int(sh.Read) != n || full.BytesRead() != hinted.BytesRead() {
							return fmt.Errorf("read %d records, %d device bytes so far; unhinted %d, %d", sh.Read, hinted.BytesRead(), n, full.BytesRead())
						}
						var want []graph.Edge
						for _, e := range a[:n] {
							if e.Src%2 == 1 || codec == graph.CodecFixed {
								want = append(want, e)
							}
						}
						if !slices.Equal(sh.Stays, want) {
							return fmt.Errorf("kept %v of %v", sh.Stays, a[:n])
						}
						total += n
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if n, err := full.NextChunk(a); n != 0 || err != nil {
						t.Fatalf("%s: the unhinted scan reads %d more records (%v)", label, n, err)
					}
					full.Close()
					hinted.Close()
					if total != len(edges) || hint.shown != len(edges) {
						t.Fatalf("%s: %d records read, %d shown to the hint, of %d", label, total, hint.shown, len(edges))
					}
				}
			}
		}
	}
}
