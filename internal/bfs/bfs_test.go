package bfs

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
)

func mustRun(t *testing.T, m graph.Meta, edges []graph.Edge, root graph.VertexID) *Result {
	t.Helper()
	res, err := Run(m, edges, root)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(m, edges, res); err != nil {
		t.Fatalf("self-validation failed: %v", err)
	}
	return res
}

func TestBFSPath(t *testing.T) {
	m, edges, err := gen.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, m, edges, 0)
	for v := uint32(0); v < 5; v++ {
		if res.Level[v] != v {
			t.Errorf("level[%d] = %d, want %d", v, res.Level[v], v)
		}
	}
	if res.Visited != 5 || res.Levels() != 5 {
		t.Fatalf("visited=%d levels=%d", res.Visited, res.Levels())
	}
}

func TestBFSPathFromMiddle(t *testing.T) {
	m, edges, _ := gen.Path(5)
	res := mustRun(t, m, edges, 3)
	if res.Visited != 2 {
		t.Fatalf("visited = %d, want 2 (3 and 4)", res.Visited)
	}
	if res.Level[0] != NoLevel || res.Level[2] != NoLevel {
		t.Fatal("upstream vertices should be unreached")
	}
}

func TestBFSStar(t *testing.T) {
	m, edges, _ := gen.Star(100)
	res := mustRun(t, m, edges, 0)
	if res.Visited != 100 || res.Levels() != 2 {
		t.Fatalf("visited=%d levels=%d, want 100/2", res.Visited, res.Levels())
	}
	for v := 1; v < 100; v++ {
		if res.Parent[v] != 0 {
			t.Fatalf("parent[%d] = %d", v, res.Parent[v])
		}
	}
}

func TestBFSCycle(t *testing.T) {
	m, edges, _ := gen.Cycle(6)
	res := mustRun(t, m, edges, 2)
	// Level of vertex v is (v-2) mod 6.
	for v := uint64(0); v < 6; v++ {
		want := uint32((v + 6 - 2) % 6)
		if res.Level[v] != want {
			t.Errorf("level[%d] = %d, want %d", v, res.Level[v], want)
		}
	}
}

func TestBFSBinaryTree(t *testing.T) {
	m, edges, _ := gen.BinaryTree(15)
	res := mustRun(t, m, edges, 0)
	if res.Levels() != 4 {
		t.Fatalf("levels = %d, want 4", res.Levels())
	}
	if res.Visited != 15 {
		t.Fatalf("visited = %d", res.Visited)
	}
}

func TestBFSDisconnected(t *testing.T) {
	m := graph.Meta{Name: "two_islands", Vertices: 4, Edges: 2}
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}
	res := mustRun(t, m, edges, 0)
	if res.Visited != 2 {
		t.Fatalf("visited = %d, want 2", res.Visited)
	}
	if res.Level[2] != NoLevel || res.Level[3] != NoLevel {
		t.Fatal("other island reached")
	}
}

func TestBFSSelfLoopsAndParallelEdges(t *testing.T) {
	m := graph.Meta{Name: "messy", Vertices: 3, Edges: 5}
	edges := []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	res := mustRun(t, m, edges, 0)
	if res.Visited != 3 {
		t.Fatalf("visited = %d", res.Visited)
	}
	if res.Level[1] != 1 || res.Level[2] != 2 {
		t.Fatalf("levels = %v", res.Level)
	}
}

func TestBFSBadRoot(t *testing.T) {
	m, edges, _ := gen.Path(4)
	if _, err := Run(m, edges, 4); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m, edges, _ := gen.BinaryTree(15)
	base := mustRun(t, m, edges, 0)

	corrupt := func(mutate func(r *Result)) *Result {
		r := &Result{Root: base.Root, Visited: base.Visited,
			Level: append([]uint32(nil), base.Level...), Parent: append([]graph.VertexID(nil), base.Parent...)}
		mutate(r)
		return r
	}
	cases := map[string]*Result{
		"wrong root level":                corrupt(func(r *Result) { r.Level[0] = 1 }),
		"wrong level":                     corrupt(func(r *Result) { r.Level[7] = 9 }),
		"fake parent":                     corrupt(func(r *Result) { r.Parent[7] = 8 }),
		"missing vertex":                  corrupt(func(r *Result) { r.Level[14] = NoLevel; r.Parent[14] = graph.NoVertex }),
		"bad visited count":               corrupt(func(r *Result) { r.Visited = 3 }),
		"level/parent split":              corrupt(func(r *Result) { r.Parent[7] = graph.NoVertex }),
		"parent outside the vertex space": corrupt(func(r *Result) { r.Parent[7] = 15 }),
		"root outside the vertex space":   corrupt(func(r *Result) { r.Root = 15 }),
		// 14 unreached and the count lowered to match: only the edge 6->14,
		// from a reached vertex to an unreached one, gives it away.
		"edge to an unreached vertex": corrupt(func(r *Result) {
			r.Level[14], r.Parent[14], r.Visited = NoLevel, graph.NoVertex, r.Visited-1
		}),
	}
	validate := func(name string, edges []graph.Edge, r *Result) {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s: validation panicked: %v", name, p)
			}
		}()
		if err := Validate(m, edges, r); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
	for name, r := range cases {
		validate(name, edges, r)
	}
	validate("edge endpoint outside the graph", append(slices.Clone(edges), graph.Edge{Src: 3, Dst: 15}), base)
}

// TestValidateAllocatesBits: Validate's working memory is one bit a
// vertex; it builds no adjacency of the edge list.
func TestValidateAllocatesBits(t *testing.T) {
	m, edges, err := gen.RMAT(14, 16, gen.Graph500(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, m, edges, edges[0].Src)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = Validate(m, edges, res)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, m.Vertices/8+4096; got > limit {
		t.Fatalf("Validate allocated %d bytes on %d vertices, %d edges; want at most %d", got, m.Vertices, len(edges), limit)
	}
}

func TestEqual(t *testing.T) {
	m, edges, _ := gen.BinaryTree(15)
	a := mustRun(t, m, edges, 0)
	b := mustRun(t, m, edges, 0)
	if err := Equal(a, b); err != nil {
		t.Fatal(err)
	}
	b.Level[3] = 9
	if err := Equal(a, b); err == nil {
		t.Fatal("Equal missed a level difference")
	}
}

func TestCSRHasEdge(t *testing.T) {
	m := graph.Meta{Name: "g", Vertices: 4, Edges: 3}
	edges := []graph.Edge{{Src: 0, Dst: 2}, {Src: 0, Dst: 1}, {Src: 3, Dst: 0}}
	csr, err := BuildCSR(m, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if !csr.HasEdge(e.Src, e.Dst) {
			t.Errorf("missing edge %v", e)
		}
	}
	if csr.HasEdge(1, 2) || csr.HasEdge(0, 3) {
		t.Error("phantom edge")
	}
}

func TestBFSOnRMATValidates(t *testing.T) {
	m, edges, err := gen.RMAT(10, 8, gen.Graph500(), 42)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, m, edges, findRoot(m, edges))
	if res.Visited < 2 {
		t.Fatal("rmat bfs visited almost nothing")
	}
}

// findRoot picks a vertex with nonzero out-degree, as Graph500 does.
func findRoot(m graph.Meta, edges []graph.Edge) graph.VertexID {
	deg := graph.Degrees(m.Vertices, edges)
	best := graph.VertexID(0)
	var bestDeg uint32
	for v, d := range deg {
		if d > bestDeg {
			best, bestDeg = graph.VertexID(v), d
		}
	}
	return best
}

func TestBFSPropertyLevelsMonotone(t *testing.T) {
	// For random small graphs: validation passes and the number of
	// vertices per level never includes gaps (if level L is non-empty
	// and L>0, level L-1 is non-empty).
	f := func(seed int64) bool {
		m, edges, err := gen.Uniform(50, 120, seed)
		if err != nil {
			return false
		}
		res, err := Run(m, edges, 0)
		if err != nil || Validate(m, edges, res) != nil {
			return false
		}
		counts := make(map[uint32]int)
		for _, l := range res.Level {
			if l != NoLevel {
				counts[l]++
			}
		}
		for l := range counts {
			if l > 0 && counts[l-1] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceProfile(t *testing.T) {
	m, edges, _ := gen.BinaryTree(15)
	stats, err := Convergence(m, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("levels = %d", len(stats))
	}
	wantFrontier := []uint64{1, 2, 4, 8}
	for i, s := range stats {
		if s.Frontier != wantFrontier[i] {
			t.Errorf("level %d frontier = %d, want %d", i, s.Frontier, wantFrontier[i])
		}
	}
	// Live edges must be the full graph at level 0 and strictly decrease.
	if stats[0].LiveEdges != m.Edges {
		t.Errorf("level 0 live = %d, want %d", stats[0].LiveEdges, m.Edges)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].LiveEdges >= stats[i-1].LiveEdges {
			t.Errorf("live edges not decreasing at level %d: %d -> %d", i, stats[i-1].LiveEdges, stats[i].LiveEdges)
		}
	}
	// Useful edges per level sum to the reachable-source edge count.
	var useful uint64
	for _, s := range stats {
		useful += s.UsefulEdges
	}
	if useful != m.Edges {
		t.Errorf("useful edges sum = %d, want %d (tree: all sources reached)", useful, m.Edges)
	}
}

func TestConvergenceUnreachedSourcesStayLive(t *testing.T) {
	// Vertex 2's edge is never useful (2 unreached from 0) so it stays
	// live at every level.
	m := graph.Meta{Name: "g", Vertices: 4, Edges: 2}
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}
	stats, err := Convergence(m, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := stats[len(stats)-1]
	if last.LiveEdges < 1 {
		t.Fatalf("unreached source's edge was trimmed: %+v", last)
	}
}

func TestConvergenceEmptyFromIsolatedRoot(t *testing.T) {
	m := graph.Meta{Name: "g", Vertices: 3, Edges: 1}
	edges := []graph.Edge{{Src: 1, Dst: 2}}
	stats, err := Convergence(m, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Frontier != 1 || stats[0].UsefulEdges != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestRootOutsideVertexSpaceIsBadOptions: a root past the last vertex is
// the caller's mistake, not the graph's, for Run and Convergence alike, so
// a command exits 2 on it, as fastbfs does for the same root.
func TestRootOutsideVertexSpaceIsBadOptions(t *testing.T) {
	m := graph.Meta{Name: "two", Vertices: 2, Edges: 1}
	edges := []graph.Edge{{Src: 0, Dst: 1}}
	_, runErr := Run(m, edges, 2)
	_, convErr := Convergence(m, edges, 5000)
	for name, err := range map[string]error{"Run": runErr, "Convergence": convErr} {
		if !errors.Is(err, errs.ErrBadOptions) || errs.ExitCode(err) != 2 {
			t.Errorf("%s: err = %v (exit %d), want ErrBadOptions (exit 2)", name, err, errs.ExitCode(err))
		}
	}
}
