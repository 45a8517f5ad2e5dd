package xstream

import (
	"testing"

	"fastbfs/internal/bfs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// checkAgainstReference runs the engine and the in-memory reference BFS
// and verifies levels match and the tree validates.
func checkAgainstReference(t *testing.T, m graph.Meta, edges []graph.Edge, root graph.VertexID, opts Options) *Result {
	t.Helper()
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	opts.Root = root
	res, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bfs.Run(m, edges, root)
	if err != nil {
		t.Fatal(err)
	}
	got := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
	if err := bfs.Equal(ref, got); err != nil {
		t.Fatalf("engine disagrees with reference: %v", err)
	}
	if err := bfs.Validate(m, edges, got); err != nil {
		t.Fatalf("engine tree invalid: %v", err)
	}
	return res
}

// smallOpts forces out-of-core operation with several partitions.
func smallOpts() Options {
	return Options{
		MemoryBudget:  4096, // tiny: many partitions, never in-memory
		StreamBufSize: 512,
		Sim:           DefaultSim(),
	}
}

func TestXStreamPath(t *testing.T) {
	m, edges, _ := gen.Path(50)
	res := checkAgainstReference(t, m, edges, 0, smallOpts())
	if res.Visited != 50 {
		t.Fatalf("visited = %d", res.Visited)
	}
	// A 50-vertex path forces ~50 iterations of full-graph streaming.
	if len(res.Metrics.Iterations) < 50 {
		t.Fatalf("iterations = %d", len(res.Metrics.Iterations))
	}
}

func TestXStreamStarAndTree(t *testing.T) {
	m, edges, _ := gen.Star(200)
	res := checkAgainstReference(t, m, edges, 0, smallOpts())
	if res.Visited != 200 {
		t.Fatalf("star visited = %d", res.Visited)
	}
	m, edges, _ = gen.BinaryTree(255)
	checkAgainstReference(t, m, edges, 0, smallOpts())
}

func TestXStreamRMAT(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	res := checkAgainstReference(t, m, edges, root, smallOpts())
	if res.Visited < m.Vertices/10 {
		t.Fatalf("visited only %d of %d", res.Visited, m.Vertices)
	}
}

func TestXStreamRootWithNoOutEdges(t *testing.T) {
	m := graph.Meta{Name: "deadroot", Vertices: 5, Edges: 2}
	edges := []graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	res := checkAgainstReference(t, m, edges, 0, smallOpts())
	if res.Visited != 1 {
		t.Fatalf("visited = %d, want 1", res.Visited)
	}
	if len(res.Metrics.Iterations) != 1 {
		t.Fatalf("iterations = %d, want 1", len(res.Metrics.Iterations))
	}
}

func TestXStreamDisconnected(t *testing.T) {
	m := graph.Meta{Name: "islands", Vertices: 10, Edges: 3}
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 5, Dst: 6}, {Src: 6, Dst: 7}}
	res := checkAgainstReference(t, m, edges, 0, smallOpts())
	if res.Visited != 2 {
		t.Fatalf("visited = %d", res.Visited)
	}
}

func TestXStreamSelfLoopsParallelEdges(t *testing.T) {
	m := graph.Meta{Name: "messy", Vertices: 4, Edges: 6}
	edges := []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
	}
	checkAgainstReference(t, m, edges, 0, smallOpts())
}

func TestXStreamRereadsWholeGraphEveryIteration(t *testing.T) {
	m, edges, _ := gen.Path(20)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	res, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Metrics.Iterations {
		if it.EdgesStreamed != int64(m.Edges) {
			t.Fatalf("iteration %d streamed %d edges, want the full %d", it.Index, it.EdgesStreamed, m.Edges)
		}
	}
}

func TestXStreamInMemoryFastPath(t *testing.T) {
	m, edges, _ := gen.BinaryTree(1000)
	opts := Options{
		MemoryBudget: 1 << 30, // everything fits
		Sim:          DefaultSim(),
	}
	res := checkAgainstReference(t, m, edges, 0, opts)
	// In-memory mode: the dataset is read exactly once.
	if res.Metrics.BytesRead != int64(m.DataBytes()) {
		t.Fatalf("in-memory read %d bytes, want one dataset pass %d", res.Metrics.BytesRead, m.DataBytes())
	}
	if res.Metrics.BytesWritten != 0 {
		t.Fatalf("in-memory wrote %d bytes", res.Metrics.BytesWritten)
	}
}

func TestXStreamInMemoryMuchFasterThanStreaming(t *testing.T) {
	m, edges, err := gen.RMAT(10, 8, gen.Graph500(), 3)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	slow, err := Run(vol, m.Name, Options{Root: root, MemoryBudget: 16 << 10, Sim: DefaultSim()})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(vol, m.Name, Options{Root: root, MemoryBudget: 1 << 30, Sim: DefaultSim()})
	if err != nil {
		t.Fatal(err)
	}
	if !(fast.Metrics.ExecTime < slow.Metrics.ExecTime/2) {
		t.Fatalf("in-memory %.4fs not ≪ streaming %.4fs", fast.Metrics.ExecTime, slow.Metrics.ExecTime)
	}
}

func TestXStreamWallClockMode(t *testing.T) {
	m, edges, _ := gen.BinaryTree(100)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	res, err := Run(vol, m.Name, Options{MemoryBudget: 2048, StreamBufSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 100 {
		t.Fatalf("visited = %d", res.Visited)
	}
	if res.Metrics.ExecTime <= 0 {
		t.Fatal("wall-clock exec time not recorded")
	}
	if len(res.Metrics.Devices) != 0 {
		t.Fatal("wall mode should have no simulated devices")
	}
}

func TestXStreamCleansUpWorkingFiles(t *testing.T) {
	m, edges, _ := gen.BinaryTree(50)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(vol, m.Name, Options{MemoryBudget: 1024, Sim: DefaultSim()}); err != nil {
		t.Fatal(err)
	}
	for _, f := range vol.List() {
		if f != graph.EdgeFileName(m.Name) && f != graph.ConfFileName(m.Name) && f != graph.ReverseFileName(m.Name) && f != graph.ReverseIndexFileName(m.Name) && f != graph.IndexFileName(m.Name) {
			t.Fatalf("leftover working file %s", f)
		}
	}
}

func TestXStreamKeepFiles(t *testing.T) {
	m, edges, _ := gen.BinaryTree(50)
	vol := storage.NewMem()
	graph.Store(vol, m, edges)
	if _, err := Run(vol, m.Name, Options{MemoryBudget: 1024, Sim: DefaultSim(), KeepFiles: true}); err != nil {
		t.Fatal(err)
	}
	if len(vol.List()) <= 2 {
		t.Fatal("KeepFiles left nothing behind")
	}
}

func TestXStreamErrors(t *testing.T) {
	vol := storage.NewMem()
	if _, err := Run(vol, "absent", Options{Sim: DefaultSim()}); err == nil {
		t.Error("missing graph accepted")
	}
	m, edges, _ := gen.Path(5)
	graph.Store(vol, m, edges)
	if _, err := Run(vol, m.Name, Options{Root: 5, Sim: DefaultSim()}); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestRuntimeInMemoryThreshold(t *testing.T) {
	vol := storage.NewMem()
	m, edges, _ := gen.Path(100) // 99 edges = 792 bytes
	graph.Store(vol, m, edges)
	opts := Options{MemoryBudget: 100}
	opts.SetDefaults(EngineName)
	opts.MemoryBudget = 100
	rt, err := NewRuntime(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rt.InMemory() {
		t.Error("100-byte budget reported in-memory")
	}
	opts.MemoryBudget = 1 << 20
	rt, err = NewRuntime(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.InMemory() {
		t.Error("1 MiB budget for a 792-byte graph not in-memory")
	}
}

func TestMoreThreadsDoNotHelpIOBoundRun(t *testing.T) {
	// Fig. 8: disk-based BFS gains nothing from threads, and
	// oversubscription beyond the core count hurts slightly.
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	vol := storage.NewMem()
	graph.Store(vol, m, edges)
	run := func(threads int) float64 {
		res, err := Run(vol, m.Name, Options{Root: root, MemoryBudget: 32 << 10, Threads: threads, Sim: DefaultSim()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.ExecTime
	}
	t1, t4, t8 := run(1), run(4), run(8)
	if t4 > t1 {
		t.Fatalf("4 threads slower than 1: %v vs %v", t4, t1)
	}
	if (t1-t4)/t1 > 0.5 {
		t.Fatalf("threads helped too much for an I/O-bound run: t1=%v t4=%v", t1, t4)
	}
	if t8 < t4 {
		t.Fatalf("8 threads on 4 cores faster than 4: %v vs %v", t8, t4)
	}
}

func maxDegreeVertex(m graph.Meta, edges []graph.Edge) graph.VertexID {
	deg := graph.Degrees(m.Vertices, edges)
	best := graph.VertexID(0)
	var bd uint32
	for v, d := range deg {
		if d > bd {
			best, bd = graph.VertexID(v), d
		}
	}
	return best
}
