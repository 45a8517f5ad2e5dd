package gen

import (
	"cmp"
	"slices"
	"testing"

	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

func TestRMATShape(t *testing.T) {
	m, edges, err := RMAT(10, 16, Graph500(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Vertices != 1024 {
		t.Fatalf("vertices = %d", m.Vertices)
	}
	if uint64(len(edges)) != m.Edges || m.Edges != 16*1024 {
		t.Fatalf("edges = %d / meta %d", len(edges), m.Edges)
	}
	for _, e := range edges {
		if err := m.CheckEdge(e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRMATDeterministic(t *testing.T) {
	_, a, _ := RMAT(8, 8, Graph500(), 7)
	_, b, _ := RMAT(8, 8, Graph500(), 7)
	_, c, _ := RMAT(8, 8, Graph500(), 8)
	if len(a) != len(b) {
		t.Fatal("same seed, different sizes")
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if !same {
		t.Fatal("same seed produced different graphs")
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATIsSkewed(t *testing.T) {
	m, edges, err := RMAT(12, 16, Graph500(), 3)
	if err != nil {
		t.Fatal(err)
	}
	stats := graph.SummarizeDegrees(graph.Degrees(m.Vertices, edges))
	// A power-law graph has a hub far above the mean and many isolated
	// or near-isolated vertices.
	if float64(stats.Max) < 10*stats.Mean {
		t.Errorf("max degree %d not >> mean %.1f; distribution not skewed", stats.Max, stats.Mean)
	}
	if stats.Isolated == 0 {
		t.Error("expected some zero-out-degree vertices in an rmat graph")
	}
}

func TestRMATParamValidation(t *testing.T) {
	if _, _, err := RMAT(0, 16, Graph500(), 1); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, _, err := RMAT(31, 16, Graph500(), 1); err == nil {
		t.Error("scale 31 accepted")
	}
	if _, _, err := RMAT(8, 0, Graph500(), 1); err == nil {
		t.Error("edge factor 0 accepted")
	}
	if _, _, err := RMAT(8, 8, RMATParams{A: 0.9, B: 0.2, C: 0.2, D: 0.2}, 1); err == nil {
		t.Error("non-normalized params accepted")
	}
	if _, _, err := RMAT(8, 8, RMATParams{A: 1.0, B: 0.0, C: 0.0, D: 0.0}, 1); err == nil {
		t.Error("zero quadrant accepted")
	}
}

func TestTwitterLike(t *testing.T) {
	m, edges, err := TwitterLike(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Undirected {
		t.Error("twitter-like should be directed")
	}
	avg := float64(len(edges)) / float64(m.Vertices)
	if avg < 20 || avg > 28 {
		t.Errorf("average degree %.1f, want ~24", avg)
	}
}

func TestFriendsterLikeIsSymmetrized(t *testing.T) {
	m, edges, err := FriendsterLike(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Undirected {
		t.Error("friendster-like should be marked undirected")
	}
	if uint64(len(edges)) != m.Edges {
		t.Fatalf("meta edges %d != len %d", m.Edges, len(edges))
	}
	set := make(map[graph.Edge]int, len(edges))
	for _, e := range edges {
		set[e]++
	}
	for e := range set {
		if e.SelfLoop() {
			continue
		}
		if set[e.Reverse()] == 0 {
			t.Fatalf("edge %v has no reverse", e)
		}
	}
}

func TestUniform(t *testing.T) {
	m, edges, err := Uniform(100, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Vertices != 100 || uint64(len(edges)) != 500 {
		t.Fatalf("shape: %d vertices, %d edges", m.Vertices, len(edges))
	}
	for _, e := range edges {
		if err := m.CheckEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Uniform(0, 5, 1); err == nil {
		t.Error("0 vertices accepted")
	}
}

func TestFixtures(t *testing.T) {
	if m, e, err := Path(4); err != nil || m.Edges != 3 || len(e) != 3 {
		t.Errorf("path: %v %v %v", m, e, err)
	}
	if m, e, err := Star(4); err != nil || m.Edges != 3 || len(e) != 3 {
		t.Errorf("star: %v %v %v", m, e, err)
	}
	if m, e, err := Cycle(4); err != nil || m.Edges != 4 || len(e) != 4 {
		t.Errorf("cycle: %v %v %v", m, e, err)
	}
	if m, e, err := BinaryTree(7); err != nil || m.Edges != 6 || len(e) != 6 {
		t.Errorf("btree: %v %v %v", m, e, err)
	}
	for _, fn := range []func(uint64) (graph.Meta, []graph.Edge, error){Path, Star, Cycle} {
		if _, _, err := fn(1); err == nil {
			t.Error("degenerate size accepted")
		}
	}
	if _, _, err := BinaryTree(0); err == nil {
		t.Error("empty tree accepted")
	}
}

func TestStoreAndLoadRoundTrip(t *testing.T) {
	vol := storage.NewMem()
	m, edges, err := RMAT(8, 8, Graph500(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotEdges, err := graph.LoadEdges(vol, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != m {
		t.Fatalf("meta = %+v, want %+v", gotMeta, m)
	}
	if len(gotEdges) != len(edges) {
		t.Fatalf("edges = %d, want %d", len(gotEdges), len(edges))
	}
	// The store sorts by source, each source's edges in generated order.
	slices.SortStableFunc(edges, func(a, b graph.Edge) int { return cmp.Compare(a.Src, b.Src) })
	for i := range edges {
		if gotEdges[i] != edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestLoadMetaDetectsSizeMismatch(t *testing.T) {
	vol := storage.NewMem()
	m, edges, _ := Path(10)
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	// Corrupt the edge file by truncating it.
	data, _ := storage.ReadAll(vol, graph.EdgeFileName(m.Name))
	storage.WriteAll(vol, graph.EdgeFileName(m.Name), data[:len(data)-8])
	if _, err := graph.LoadMeta(vol, m.Name); err == nil {
		t.Fatal("size mismatch not detected")
	}
}

func TestStoreRejectsBadEdges(t *testing.T) {
	vol := storage.NewMem()
	m := graph.Meta{Name: "bad", Vertices: 2}
	if err := graph.Store(vol, m, []graph.Edge{{Src: 0, Dst: 5}}); err == nil {
		t.Fatal("out-of-range edge stored")
	}
}
