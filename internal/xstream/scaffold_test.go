package xstream

import (
	"slices"
	"testing"

	"fastbfs/internal/disksim"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

func newRuntime(t *testing.T, opts Options) *Runtime {
	return newStoredRuntime(t, opts, graph.StoreOptions{Reverse: true})
}

// newStoredRuntime is newRuntime over the same graph stored with so.
func newStoredRuntime(t *testing.T, opts Options, so graph.StoreOptions) *Runtime {
	t.Helper()
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.StoreGraph(vol, m, edges, so); err != nil {
		t.Fatal(err)
	}
	opts.SetDefaults(EngineName)
	rt, err := NewRuntime(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestAwaitFileBarriers(t *testing.T) {
	rt := newRuntime(t, Options{MemoryBudget: 4096, Sim: DefaultSim()})
	dev := rt.Opts.Sim.MainDisk
	op := rt.Clock.WriteAsync(dev, 1<<20, 0) // ~8.7ms on the HDD preset
	rt.RegisterReady("f", op)
	before := rt.Clock.Now()
	rt.AwaitFile("f")
	if !(rt.Clock.Now() > before) {
		t.Fatal("AwaitFile did not wait for the pending write")
	}
	// Second await is a no-op: the barrier was consumed.
	now := rt.Clock.Now()
	rt.AwaitFile("f")
	if rt.Clock.Now() != now {
		t.Fatal("consumed barrier waited again")
	}
	// Unknown files are no-ops; nil registrations are ignored.
	rt.AwaitFile("never-registered")
	rt.RegisterReady("g", nil)
	rt.AwaitFile("g")
	if rt.Clock.Now() != now {
		t.Fatal("no-op awaits advanced the clock")
	}
}

func TestPrepareSplitsEdgesBySource(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		prepareSplitsEdgesBySource(t, newStoredRuntime(t, Options{MemoryBudget: 1024, StreamBufSize: 512, Sim: DefaultSim(), KeepFiles: true},
			graph.StoreOptions{Codec: codec, Reverse: true}))
	}
}

func prepareSplitsEdgesBySource(t *testing.T, rt *Runtime) {
	counts, err := rt.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for p, c := range counts {
		total += c
		rt.AwaitFile(rt.EdgeFile(p))
		b, err := storage.ReadAll(rt.Vol, rt.EdgeFile(p))
		if err != nil {
			t.Fatal(err)
		}
		// Working files carry the stored codec: a delta store's
		// partitions are deframed and decoded before their raw records
		// are read.
		if rt.Meta.EdgeCodec() == graph.CodecDelta {
			magic, payload, err := graph.DeframeAllMagic(b)
			if err != nil || magic != graph.FrameMagicDelta {
				t.Fatalf("partition %d is not an FBD1 stream (magic %#x): %v", p, magic, err)
			}
			if b, err = graph.DecodeDeltaStream(payload); err != nil {
				t.Fatal(err)
			}
		}
		edges, err := graph.BytesToEdges(b)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(edges)) != c {
			t.Fatalf("partition %d: %d edges on disk, Prepare reported %d", p, len(edges), c)
		}
		for _, e := range edges {
			if !rt.Parts.Contains(p, e.Src) {
				t.Fatalf("partition %d holds foreign edge %v", p, e)
			}
		}
	}
	if total != int64(rt.Meta.Edges) {
		t.Fatalf("partitions hold %d edges, graph has %d", total, rt.Meta.Edges)
	}
}

func TestVertexStoreRoundTrip(t *testing.T) {
	rt := newRuntime(t, Options{MemoryBudget: 1024, Sim: DefaultSim(), KeepFiles: true})
	p := rt.Parts.P() - 1
	v := rt.InitVerts(p)
	lo, hi := rt.Parts.Interval(p)
	for i := range v.Level {
		v.Level[i] = uint32(i)
		v.Parent[i] = graph.VertexID(uint64(lo) + uint64(i)%uint64(hi-lo))
	}
	if err := rt.SaveVerts(p, v); err != nil {
		t.Fatal(err)
	}
	// The run holds one partition's vertex state at a time, in arrays it
	// re-slices per partition: keep a copy, and dirty the arrays through
	// another partition before loading p back into them.
	level, parent := slices.Clone(v.Level), slices.Clone(v.Parent)
	if other := rt.InitVerts(0); &other.Level[0] != &v.Level[0] {
		t.Fatal("InitVerts allocated a second vertex array; the run-owned one should be re-sliced")
	}
	got, err := rt.LoadVerts(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lo != lo || len(got.Level) != int(hi-lo) || len(got.Parent) != int(hi-lo) {
		t.Fatalf("loaded Verts covers [%d,+%d), want [%d,%d)", got.Lo, len(got.Level), lo, hi)
	}
	for i := range level {
		if got.Level[i] != level[i] || got.Parent[i] != parent[i] {
			t.Fatalf("record %d: (%d,%d) vs (%d,%d)", i, got.Level[i], got.Parent[i], level[i], parent[i])
		}
	}
}

func TestMarkRootOnlyInOwningPartition(t *testing.T) {
	rt := newRuntime(t, Options{Root: 200, MemoryBudget: 1024, Sim: DefaultSim()})
	owner := rt.Parts.Of(200)
	for p := 0; p < rt.Parts.P(); p++ {
		v := rt.InitVerts(p)
		marked := rt.MarkRoot(v)
		if (p == owner) != marked {
			t.Fatalf("partition %d: MarkRoot = %v, owner is %d", p, marked, owner)
		}
		if marked && v.Level[200-int(v.Lo)] != 0 {
			t.Fatal("root not at level 0")
		}
	}
}

func TestCleanupRemovesOnlyOwnPrefix(t *testing.T) {
	rt := newRuntime(t, Options{MemoryBudget: 1024, Sim: DefaultSim()})
	storage.WriteAll(rt.Vol, rt.Opts.FilePrefix+"_scratch", []byte("x"))
	storage.WriteAll(rt.Vol, "unrelated_file", []byte("y"))
	rt.Cleanup()
	if rt.Vol.Exists(rt.Opts.FilePrefix + "_scratch") {
		t.Fatal("own working file survived Cleanup")
	}
	if !rt.Vol.Exists("unrelated_file") {
		t.Fatal("Cleanup deleted a foreign file")
	}
}

func TestTimingHelpersSelectDevices(t *testing.T) {
	sim := DefaultSim()
	sim.AuxDisk = disksim.HDD("hdd1")
	rt := newRuntime(t, Options{MemoryBudget: 1024, Sim: sim})
	if rt.MainTiming().Device != sim.MainDisk {
		t.Fatal("MainTiming wrong device")
	}
	if rt.AuxTiming().Device != sim.AuxDisk {
		t.Fatal("AuxTiming ignored the additional disk")
	}
	rt2 := newRuntime(t, Options{MemoryBudget: 1024, Sim: DefaultSim()})
	if rt2.AuxTiming().Device != rt2.Opts.Sim.MainDisk {
		t.Fatal("single-disk AuxTiming should fall back to the main disk")
	}
	rtWall := newRuntime(t, Options{MemoryBudget: 1024})
	if rtWall.MainTiming().Clock != nil || rtWall.AuxTiming().Clock != nil {
		t.Fatal("wall mode produced a clock")
	}
}

func TestSetDefaults(t *testing.T) {
	var o Options
	o.SetDefaults("enginex")
	if o.MemoryBudget != 1<<30 || o.Threads != 4 || o.StreamBufSize == 0 || o.FilePrefix != "enginex" {
		t.Fatalf("defaults: %+v", o)
	}
	if o.PrefetchBuffers != 2 {
		t.Fatalf("prefetch default = %d", o.PrefetchBuffers)
	}
	o2 := Options{PrefetchBuffers: -1}
	o2.SetDefaults("e")
	if o2.PrefetchBuffers != 0 {
		t.Fatalf("negative prefetch should disable, got %d", o2.PrefetchBuffers)
	}
}
