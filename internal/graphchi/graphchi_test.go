package graphchi

import (
	"testing"

	"fastbfs/internal/bfs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

func checkAgainstReference(t *testing.T, m graph.Meta, edges []graph.Edge, root graph.VertexID, opts xstream.Options) *xstream.Result {
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
		t.Fatalf("graphchi disagrees with reference: %v", err)
	}
	if err := bfs.Validate(m, edges, got); err != nil {
		t.Fatalf("graphchi tree invalid: %v", err)
	}
	return res
}

func smallOpts() xstream.Options {
	return xstream.Options{
		MemoryBudget:  4096,
		StreamBufSize: 512,
		Sim:           xstream.DefaultSim(),
	}
}

func TestGraphChiFixtures(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (graph.Meta, []graph.Edge, error)
		root graph.VertexID
	}{
		{"path", func() (graph.Meta, []graph.Edge, error) { return gen.Path(40) }, 0},
		{"star", func() (graph.Meta, []graph.Edge, error) { return gen.Star(150) }, 0},
		{"cycle", func() (graph.Meta, []graph.Edge, error) { return gen.Cycle(32) }, 5},
		{"btree", func() (graph.Meta, []graph.Edge, error) { return gen.BinaryTree(127) }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, edges, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, m, edges, tc.root, smallOpts())
		})
	}
}

func TestGraphChiRMAT(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	res := checkAgainstReference(t, m, edges, root, smallOpts())
	if res.Visited < m.Vertices/10 {
		t.Fatalf("visited only %d", res.Visited)
	}
}

func TestGraphChiDisconnectedAndSelfLoops(t *testing.T) {
	m := graph.Meta{Name: "messy", Vertices: 8, Edges: 6}
	edges := []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 1},
		{Src: 5, Dst: 6}, {Src: 6, Dst: 7},
	}
	res := checkAgainstReference(t, m, edges, 0, smallOpts())
	if res.Visited != 3 {
		t.Fatalf("visited = %d, want 3", res.Visited)
	}
}

func TestGraphChiHasPreprocessingCost(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 7)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	res := checkAgainstReference(t, m, edges, root, smallOpts())
	if res.Metrics.PreprocTime <= 0 {
		t.Fatal("no preprocessing time recorded for the shard sort")
	}
	if res.Metrics.ExecTime <= 0 {
		t.Fatal("no execution time recorded")
	}
}

func TestGraphChiComputeHeavierThanXStream(t *testing.T) {
	// Fig. 6's explanation: GraphChi "requires more computation ... than
	// X-Stream and FastBFS to perform BFS", so its iowait *ratio* is
	// lower. Including the sort, its compute share must exceed
	// X-Stream's.
	m, edges, err := gen.RMAT(10, 8, gen.Graph500(), 3)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	vol := storage.NewMem()
	graph.Store(vol, m, edges)
	gc, err := Run(vol, m.Name, xstream.Options{Root: root, MemoryBudget: 32 << 10, Sim: xstream.ScaledSim(512)})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := xstream.Run(vol, m.Name, xstream.Options{Root: root, MemoryBudget: 32 << 10, Sim: xstream.ScaledSim(512)})
	if err != nil {
		t.Fatal(err)
	}
	gcTotal := gc.Metrics.ExecTime + gc.Metrics.PreprocTime
	if !(gc.Metrics.ComputeTime/gcTotal > xs.Metrics.ComputeTime/xs.Metrics.ExecTime) {
		t.Fatalf("graphchi compute share %.3f not above xstream %.3f",
			gc.Metrics.ComputeTime/gcTotal, xs.Metrics.ComputeTime/xs.Metrics.ExecTime)
	}
}

func TestGraphChiRereadsWindows(t *testing.T) {
	// PSW reads each shard as memory shard plus windows from every other
	// shard: total bytes read per pass exceed the raw edge data (the
	// paper's "repeated edge reading").
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 3)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	res := checkAgainstReference(t, m, edges, root, smallOpts())
	shardBytes := int64(m.Edges) * shardRecBytes
	passes := int64(len(res.Metrics.Iterations))
	if res.Metrics.BytesRead < passes*shardBytes {
		t.Fatalf("read %d bytes over %d passes; expected at least full shard data per pass (%d)",
			res.Metrics.BytesRead, passes, passes*shardBytes)
	}
}

func TestGraphChiCleansUp(t *testing.T) {
	m, edges, _ := gen.BinaryTree(63)
	vol := storage.NewMem()
	graph.Store(vol, m, edges)
	if _, err := Run(vol, m.Name, smallOpts()); err != nil {
		t.Fatal(err)
	}
	if n := len(vol.List()); n != 5 {
		t.Fatalf("leftover files: %v", vol.List())
	}
}

func TestGraphChiOnOSVolume(t *testing.T) {
	vol, err := storage.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	res, err := Run(vol, m.Name, xstream.Options{Root: root, MemoryBudget: 8192, StreamBufSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := bfs.Run(m, edges, root)
	got := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
	if err := bfs.Equal(ref, got); err != nil {
		t.Fatal(err)
	}
}

func TestGraphChiRootWithoutOutEdges(t *testing.T) {
	m := graph.Meta{Name: "deadroot", Vertices: 5, Edges: 2}
	edges := []graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	res := checkAgainstReference(t, m, edges, 0, smallOpts())
	if res.Visited != 1 {
		t.Fatalf("visited = %d", res.Visited)
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
