package xstream

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

type indexedGraph struct {
	m     graph.Meta
	edges []graph.Edge
	roots []graph.VertexID
}

// indexedGraphs are the shapes the indexed traversal is held to: skewed
// and uniform random graphs, the extremes of diameter and fan-out, and a
// hand-made graph with self-loops, duplicate edges, an isolated vertex
// (5) and a vertex with in-edges only (4).
func indexedGraphs(t *testing.T) map[string]indexedGraph {
	t.Helper()
	graphs := map[string]indexedGraph{}
	add := func(m graph.Meta, edges []graph.Edge, err error, roots ...graph.VertexID) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		graphs[m.Name] = indexedGraph{m, edges, roots}
	}
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 21)
	add(m, edges, err, maxDegreeVertex(m, edges), 1, 100, 511)
	m, edges, err = gen.Uniform(300, 1500, 4)
	add(m, edges, err, 0, 17, 299)
	m, edges, err = gen.Path(64)
	add(m, edges, err, 0, 30, 63)
	m, edges, err = gen.Star(50)
	add(m, edges, err, 0, 7)
	m, edges, err = gen.Cycle(33)
	add(m, edges, err, 0, 32)
	m, edges, err = gen.BinaryTree(127)
	add(m, edges, err, 0, 5, 126)
	edges = []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 2, Dst: 3}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1},
		{Src: 1, Dst: 3}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 3}, {Src: 3, Dst: 3},
		{Src: 2, Dst: 3}, {Src: 0, Dst: 4}, {Src: 3, Dst: 4},
	}
	add(graph.Meta{Name: "handmade", Vertices: 6, Edges: uint64(len(edges))}, edges, nil, 0, 1, 2, 4, 5)
	return graphs
}

// runIndexedAs is the direction seam: the indexed traversal of opts'
// resident prepared graph under a fixed policy instead of the hybrid one
// every real run gets — topdown never goes bottom-up, bottomup does from
// level 1 on.
func runIndexedAs(t *testing.T, vol storage.Volume, name string, opts Options, conf Direction) *Result {
	t.Helper()
	opts.SetDefaults(EngineName)
	rt, err := NewRuntimeContext(context.Background(), vol, name, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Cleanup()
	res, err := newKernel(rt, EngineName, Policy{}).runIndexed(opts.Prepared.g, conf)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func examinedEntries(run metrics.Run) uint64 { return uint64(run.EdgesStreamed()) }

// TestIndexedTraversalMatchesEdgeListLoops: over every graph shape, store
// layout and root, the indexed resident run returns the levels and
// parents of the one-shot in-memory run and of the one-partition
// streaming run, byte for byte, whichever directions it takes; its
// resident form lists every vertex's neighbours in stored edge order; and
// it examines at most E + V adjacency entries.
func TestIndexedTraversalMatchesEdgeListLoops(t *testing.T) {
	ctx := context.Background()
	hybridWentBottomUp := false
	for name, g := range indexedGraphs(t) {
		var plain *PreparedGraph // of the first layout, the edges as given
		for _, so := range []graph.StoreOptions{{}, {Codec: graph.CodecDelta, ReorderByDegree: true}} {
			vol := storage.NewMem()
			if err := graph.StoreGraph(vol, g.m, g.edges, so); err != nil {
				t.Fatal(err)
			}
			need := InMemoryNeed(g.m)
			pg, err := LoadPrepared(ctx, vol, name, Options{MemoryBudget: need})
			if err != nil {
				t.Fatal(err)
			}
			if !pg.Resident() || uint64(pg.ResidentBytes()) > pg.Need {
				t.Fatalf("%s: resident=%v holding %d bytes, in-memory need %d", name, pg.Resident(), pg.ResidentBytes(), pg.Need)
			}
			checkIndexOrder(t, vol, name, pg)
			if plain == nil {
				plain = pg
			}
			for _, root := range g.roots {
				oneShot, err := Run(vol, name, Options{Root: root, MemoryBudget: need})
				if err != nil {
					t.Fatal(err)
				}
				streamed, err := Run(vol, name, Options{Root: root, MemoryBudget: need - 1, Partitions: 1})
				if err != nil {
					t.Fatal(err)
				}
				if oneShot.Metrics.BytesWritten != 0 || streamed.Metrics.BytesWritten == 0 {
					t.Fatalf("%s root %d: one-shot run wrote %d bytes, streaming run %d; want one in memory and one out of core",
						name, root, oneShot.Metrics.BytesWritten, streamed.Metrics.BytesWritten)
				}
				opts := Options{Root: root, MemoryBudget: need, Prepared: pg}
				hybrid, err := Run(vol, name, opts)
				if err != nil {
					t.Fatal(err)
				}
				hybridWentBottomUp = hybridWentBottomUp || hybrid.Metrics.BottomUpIterations > 0
				topDown := runIndexedAs(t, vol, name, opts, DirectionTopDown)
				bottomUp := runIndexedAs(t, vol, name, opts, DirectionBottomUp)
				if rows := len(bottomUp.Metrics.Iterations); topDown.Metrics.BottomUpIterations != 0 ||
					rows > 2 && bottomUp.Metrics.BottomUpIterations != rows-2 {
					t.Fatalf("%s root %d: seam ran %d bottom-up levels under topdown, %d of %d rows under bottomup", name, root,
						topDown.Metrics.BottomUpIterations, bottomUp.Metrics.BottomUpIterations, rows)
				}
				for label, got := range map[string]*Result{"hybrid": hybrid, "all-top-down": topDown,
					"bottom-up after level 0": bottomUp, "one-partition streaming": streamed} {
					if !reflect.DeepEqual(got.Levels, oneShot.Levels) || !reflect.DeepEqual(got.Parents, oneShot.Parents) || got.Visited != oneShot.Visited {
						t.Fatalf("%s (codec %q) root %d: %s run differs from the one-shot in-memory run", name, so.Codec, root, label)
					}
				}
				if hybrid.Metrics.BytesRead != 0 {
					t.Fatalf("%s root %d: indexed run read %d device bytes", name, root, hybrid.Metrics.BytesRead)
				}
				if n := examinedEntries(hybrid.Metrics); n > g.m.Edges+g.m.Vertices {
					t.Fatalf("%s (codec %q) root %d: %d adjacency entries examined, want at most E + V = %d",
						name, so.Codec, root, n, g.m.Edges+g.m.Vertices)
				}
			}
		}

		// A weighted store of the same graph: BFS refuses it on every path,
		// and its resident form is the unweighted store's plus a weight an
		// edge.
		wm, wedges, err := gen.Weigh(g.m, g.edges, 1, 9, 3)
		if err != nil {
			t.Fatal(err)
		}
		vol := storage.NewMem()
		if err := graph.StoreWeighted(vol, wm, wedges); err != nil {
			t.Fatal(err)
		}
		weighted, err := LoadPrepared(ctx, vol, wm.Name, Options{MemoryBudget: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		lists := *weighted.g
		lists.weights = nil
		if !reflect.DeepEqual(lists, *plain.g) || uint64(len(weighted.g.weights)) != wm.Edges ||
			uint64(weighted.ResidentBytes()) > weighted.Need {
			t.Fatalf("%s: weighted store's lists differ from the unweighted store's, or it holds %d bytes against a need of %d",
				name, weighted.ResidentBytes(), weighted.Need)
		}
		for _, prepared := range []*PreparedGraph{nil, weighted} {
			if _, err := Run(vol, wm.Name, Options{MemoryBudget: 1 << 30, Prepared: prepared}); !errors.Is(err, errs.ErrBadOptions) {
				t.Fatalf("%s: BFS over the weighted store (prepared: %v): err = %v", name, prepared != nil, err)
			}
		}
	}
	if !hybridWentBottomUp {
		t.Fatal("no hybrid run took a bottom-up level; the α switch is not exercised")
	}
}

// checkIndexOrder checks the resident form against the stored edge file
// it was loaded from: the file's sources never decrease, each vertex's
// out-list is its out-edges' destinations and its in-list its in-edges'
// sources, both in the order the edges are stored.
func checkIndexOrder(t *testing.T, vol storage.Volume, name string, pg *PreparedGraph) {
	t.Helper()
	sc, err := stream.NewEdgeScanner(vol, graph.EdgeFileName(name), stream.Timing{}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	out := make([][]graph.VertexID, pg.Meta.Vertices)
	in := make([][]graph.VertexID, pg.Meta.Vertices)
	for last := graph.VertexID(0); ; {
		e, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e.Src < last {
			t.Fatalf("%s: stored source %d follows %d", name, e.Src, last)
		}
		last = e.Src
		out[e.Src] = append(out[e.Src], e.Dst)
		in[e.Dst] = append(in[e.Dst], e.Src)
	}
	g := pg.g
	for v := range out {
		if got := g.out[g.outOff[v]:g.outOff[v+1]]; !slices.Equal(got, out[v]) {
			t.Fatalf("%s: vertex %d resident out-neighbours %v, stored order gives %v", name, v, got, out[v])
		}
		if got := g.in[g.inOff[v]:g.inOff[v+1]]; !slices.Equal(got, in[v]) {
			t.Fatalf("%s: vertex %d resident in-neighbours %v, stored order gives %v", name, v, got, in[v])
		}
	}
}

// TestIndexedPathIsLinear: the worst case of the edge-list loop — a path,
// one vertex a level, E edges scanned at each of V levels — costs the
// indexed traversal one adjacency entry a level, the frontier's out-edge.
func TestIndexedPathIsLinear(t *testing.T) {
	m, edges, _ := gen.Path(2000)
	vol := storage.NewMem()
	if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	opts := Options{MemoryBudget: 1 << 30}
	pg, err := LoadPrepared(context.Background(), vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Prepared = pg
	res, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != m.Vertices || len(res.Metrics.Iterations) != int(m.Vertices) {
		t.Fatalf("visited %d over %d rows, want %d and %d", res.Visited, len(res.Metrics.Iterations), m.Vertices, m.Vertices)
	}
	if n := examinedEntries(res.Metrics); n != m.Edges {
		t.Fatalf("%d adjacency entries examined over a %d-edge path, want each edge once", n, m.Edges)
	}
}

// TestIndexedHybridReadsAFractionOfTheEdges: on a skewed graph, from
// roots in its giant component, the hybrid goes bottom-up for the wide
// middle levels and a whole traversal examines under half as many
// adjacency entries as the graph has edges — where the edge-list loop
// scans the list once per level, and an all-top-down traversal reads
// every reachable edge.
func TestIndexedHybridReadsAFractionOfTheEdges(t *testing.T) {
	m, edges, err := gen.RMAT(13, 16, gen.Graph500(), 7)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	opts := Options{MemoryBudget: 1 << 30}
	pg, err := LoadPrepared(context.Background(), vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Prepared = pg
	giant := 0
	for i := 0; i < 16; i++ {
		opts.Root = edges[i*len(edges)/16].Src
		hybrid, err := Run(vol, m.Name, opts)
		if err != nil {
			t.Fatal(err)
		}
		if hybrid.Visited < m.Vertices/4 {
			continue
		}
		giant++
		topDown := runIndexedAs(t, vol, m.Name, opts, DirectionTopDown)
		if n, td := examinedEntries(hybrid.Metrics), examinedEntries(topDown.Metrics); hybrid.Metrics.BottomUpIterations == 0 || n >= m.Edges/2 || n >= td {
			t.Fatalf("root %d: hybrid examined %d entries over %d bottom-up levels, all-top-down %d, E = %d",
				opts.Root, n, hybrid.Metrics.BottomUpIterations, td, m.Edges)
		}
	}
	if giant < 8 {
		t.Fatalf("only %d of 16 roots reach the giant component", giant)
	}
}

// TestIndexedRunKeepsTheLoopSeams: both in-memory loops, the indexed
// traversal and the one-shot run, stop where the loop should — at the
// iteration cap, with the same partial answer, and at the level boundary
// after a cancellation, with the scratch back on the free-list — and call
// the fault hook once a level; a hook that panics costs the free-list
// nothing either.
func TestIndexedRunKeepsTheLoopSeams(t *testing.T) {
	DropFreeScratch()
	vol, m, edges := rmatStored(t, graph.StoreOptions{})
	opts := Options{Root: maxDegreeVertex(m, edges), MemoryBudget: 1 << 20}
	pg, err := LoadPrepared(context.Background(), vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxIter := range []int{1, 2, 3} {
		opts.MaxIterations, opts.Prepared = maxIter, nil
		want, err := Run(vol, m.Name, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Prepared = pg
		got, err := Run(vol, m.Name, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Metrics.Iterations) != maxIter || len(got.Metrics.Iterations) != maxIter || got.Visited != want.Visited ||
			!reflect.DeepEqual(got.Levels, want.Levels) || !reflect.DeepEqual(got.Parents, want.Parents) {
			t.Fatalf("cap %d: indexed run stopped after %d rows with %d visited, one-shot run after %d with %d",
				maxIter, len(got.Metrics.Iterations), got.Visited, len(want.Metrics.Iterations), want.Visited)
		}
	}

	opts.MaxIterations = 0
	for _, prepared := range []*PreparedGraph{pg, nil} {
		loop := map[bool]string{true: "indexed", false: "one-shot"}[prepared != nil]
		opts.Prepared = prepared
		ctx, cancel := context.WithCancel(context.Background())
		levels := 0
		opts.FaultHook = func() {
			if levels++; levels == 2 {
				cancel() // inside level 1: level 2's checkpoint must stop the run
			}
		}
		if _, err := RunContext(ctx, vol, m.Name, opts); !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("%s run cancelled mid-traversal: err = %v, want ErrCancelled", loop, err)
		}
		cancel()
		if levels != 2 {
			t.Fatalf("%s run: fault hook called %d times before the run stopped, want once a level for 2 levels", loop, levels)
		}
		if n := len(freeScratch()); n != 1 {
			t.Fatalf("%d scratches on the free-list after the cancelled %s run, want 1", n, loop)
		}

		opts.FaultHook = func() { panic("injected") }
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("the %s run swallowed its fault hook's panic", loop)
				}
			}()
			Run(vol, m.Name, opts)
		}()
		if n := len(freeScratch()); n != 1 {
			t.Fatalf("%d scratches on the free-list after the cancelled and the panicked %s run, want 1", n, loop)
		}
	}
}

// TestIndexedConcurrentQueriesShareTheIndex: 36 queries at once over one
// prepared graph each answer like the one-shot run from their root, and
// leave the shared resident form exactly as LoadPrepared built it. Run
// under -race in CI: the lists are read by all and written by none.
func TestIndexedConcurrentQueriesShareTheIndex(t *testing.T) {
	vol, m, edges := rmatStored(t, graph.StoreOptions{})
	opts := Options{MemoryBudget: 1 << 20}
	pg, err := LoadPrepared(context.Background(), vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	built := csr{outOff: slices.Clone(pg.g.outOff), out: slices.Clone(pg.g.out),
		inOff: slices.Clone(pg.g.inOff), in: slices.Clone(pg.g.in)}
	const queries = 36
	want := make([]*Result, queries)
	for i := range want {
		opts.Root = edges[i*len(edges)/queries].Src
		if want[i], err = Run(vol, m.Name, opts); err != nil {
			t.Fatal(err)
		}
	}
	opts.Prepared = pg
	var wg sync.WaitGroup
	for i := range want {
		wg.Add(1)
		go func(i int, opts Options) {
			defer wg.Done()
			opts.Root = edges[i*len(edges)/queries].Src
			got, err := Run(vol, m.Name, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.Levels, want[i].Levels) || !reflect.DeepEqual(got.Parents, want[i].Parents) {
				t.Errorf("query %d from root %d differs from the one-shot run", i, opts.Root)
			}
		}(i, opts)
	}
	wg.Wait()
	if !reflect.DeepEqual(*pg.g, built) {
		t.Fatal("the shared resident form changed under the queries")
	}
	if n := len(freeScratch()); n == 0 || n > maxFreeScratch {
		t.Fatalf("%d scratches on the free-list after %d concurrent queries, want 1..%d", n, queries, maxFreeScratch)
	}
}
