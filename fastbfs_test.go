package fastbfs

import (
	"context"
	"strings"
	"testing"
	"time"

	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// TestPublicAPIEndToEnd drives the facade the way the README's
// quickstart does: generate, store, run all three engines, validate,
// then exercise the extension algorithms.
func TestPublicAPIEndToEnd(t *testing.T) {
	vol := NewMemVolume()
	meta, edges, err := GenerateRMAT(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := Store(vol, meta, edges); err != nil {
		t.Fatal(err)
	}
	if m2, err := LoadMeta(vol, meta.Name); err != nil || m2 != meta {
		t.Fatalf("LoadMeta = %+v, %v", m2, err)
	}

	var root VertexID
	deg := make([]uint32, meta.Vertices)
	for _, e := range edges {
		deg[e.Src]++
		if deg[e.Src] > deg[root] {
			root = e.Src
		}
	}

	opts := DefaultOptions()
	opts.Base.Root = root
	opts.Base.MemoryBudget = meta.DataBytes() / 3
	res, err := BFS(vol, meta.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBFS(meta, edges, root, res); err != nil {
		t.Fatal(err)
	}

	base := opts.Base
	base.Sim = DefaultSim()
	xs, err := BFSXStream(vol, meta.Name, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Sim = DefaultSim()
	gc, err := BFSGraphChi(vol, meta.Name, base)
	if err != nil {
		t.Fatal(err)
	}
	if xs.Visited != res.Visited || gc.Visited != res.Visited {
		t.Fatalf("engines disagree: fastbfs=%d xstream=%d graphchi=%d", res.Visited, xs.Visited, gc.Visited)
	}

	prof, err := Convergence(meta, edges, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) == 0 || prof[0].LiveEdges != meta.Edges {
		t.Fatalf("convergence profile = %+v", prof)
	}

	levels, err := MultiSourceBFS(vol, meta.Name, []VertexID{root}, base)
	if err != nil {
		t.Fatal(err)
	}
	for v := range levels {
		if levels[v] != res.Levels[v] {
			t.Fatalf("multi-source BFS with one root differs at vertex %d", v)
		}
	}

	ranks, err := PageRank(vol, meta.Name, 5, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != int(meta.Vertices) {
		t.Fatalf("ranks = %d", len(ranks))
	}

	est, err := EstimateDiameter(vol, meta.Name, 3, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.LowerBound < 1 {
		t.Fatalf("diameter lower bound = %d", est.LowerBound)
	}
}

// TestRunBytesReconcileWithTheVolume: in wall mode a FastBFS run's record
// holds every byte its volume moved — configuration, permutation, degree
// index, stored passes, working files and the collect of the tree — in the
// two out-of-core configurations the benchmark runs: a fixed store
// top-down, and a reordered delta store under direction auto, both at 8
// partitions. It holds too when every stay write takes 20 ms, so that the
// last stay files are still with the background writer as the loop ends.
func TestRunBytesReconcileWithTheVolume(t *testing.T) {
	for _, c := range []struct {
		store StoreOptions
		dir   string
	}{
		{StoreOptions{Codec: CodecFixed, Reverse: true}, "topdown"},
		{StoreOptions{Codec: CodecDelta, ReorderByDegree: true, Reverse: true}, "auto"},
	} {
		osv, err := NewOSVolume(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, inner := range []storage.Volume{osv, lateStays{storage.NewMem()}} {
			vol := storage.NewCounting(inner, "disk")
			meta, edges, err := GenerateRMAT(12, 16, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := StoreGraph(context.Background(), vol, meta, edges, c.store); err != nil {
				t.Fatal(err)
			}
			opts := Options{Base: EngineOptions{Root: edges[0].Src, MemoryBudget: 8192, ScatterWorkers: 2, Direction: xstream.Direction(c.dir)}}
			before := vol.Stats()
			res, err := Run(context.Background(), EngineFastBFS, vol, meta.Name, opts)
			if err != nil {
				t.Fatal(err)
			}
			moved, r := vol.Stats().Sub(before), res.Metrics
			if r.BytesRead != moved.BytesRead || r.BytesWritten != moved.BytesWritten {
				t.Fatalf("%s/%s on %T: the run records %d bytes read and %d written, the volume moved %d and %d",
					c.store.Codec, c.dir, inner, r.BytesRead, r.BytesWritten, moved.BytesRead, moved.BytesWritten)
			}
			if len(r.Devices) != 1 || r.Devices[0].Name != "disk" || res.Visited < meta.Vertices/4 {
				t.Fatalf("%s/%s on %T: devices %+v, %d vertices visited", c.store.Codec, c.dir, inner, r.Devices, res.Visited)
			}
		}
	}
}

// lateStays holds every write to a stay file 20 ms, as a busy disk might.
type lateStays struct{ storage.Volume }

func (v lateStays) Create(name string) (storage.Writer, error) {
	w, err := v.Volume.Create(name)
	if err != nil || !strings.Contains(name, "_stay") {
		return w, err
	}
	return lateWriter{w}, nil
}

type lateWriter struct{ storage.Writer }

func (w lateWriter) Write(p []byte) (int, error) {
	time.Sleep(20 * time.Millisecond)
	return w.Writer.Write(p)
}

func TestPublicAPIGenerators(t *testing.T) {
	if m, e, err := GenerateTwitterLike(8, 1); err != nil || uint64(len(e)) != m.Edges {
		t.Fatalf("twitter: %v %v", m, err)
	}
	m, e, err := GenerateFriendsterLike(8, 1)
	if err != nil || !m.Undirected || uint64(len(e)) != m.Edges {
		t.Fatalf("friendster: %v %v", m, err)
	}
	if err := Store(NewMemVolume(), m, e); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDevices(t *testing.T) {
	h, s := HDD("h"), SSD("s")
	if h.Bandwidth >= s.Bandwidth || h.SeekLatency <= s.SeekLatency {
		t.Error("device presets inverted")
	}
	if ScaledSim(100).MainDisk.SeekLatency >= DefaultSim().MainDisk.SeekLatency {
		t.Error("ScaledSim did not reduce the positioning cost")
	}
}
