package algo

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"sort"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// residentOpts is an in-memory budget (one partition) with simulation on.
func residentOpts() xstream.Options {
	return xstream.Options{MemoryBudget: 1 << 30, StreamBufSize: 512, Sim: xstream.DefaultSim()}
}

func prepare(t *testing.T, vol storage.Volume, name string) *xstream.PreparedGraph {
	t.Helper()
	pg, err := xstream.LoadPrepared(context.Background(), vol, name, residentOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !pg.Resident() {
		t.Fatalf("%s not resident under a 1 GiB budget", name)
	}
	return pg
}

// hubs returns the n highest-degree vertices, highest first: roots that
// are sure to reach most of an R-MAT graph (low ids are often isolated).
func hubs(deg []uint32, n int) []graph.VertexID {
	vs := make([]graph.VertexID, len(deg))
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	sort.SliceStable(vs, func(i, j int) bool { return deg[vs[i]] > deg[vs[j]] })
	return vs[:n]
}

// edgeSum checksums the shared resident out-lists and weights.
func edgeSum(pg *xstream.PreparedGraph) uint32 {
	h := crc32.NewIEEE()
	off, dst, weights := pg.Out()
	for _, a := range []any{off, dst, weights} {
		binary.Write(h, binary.LittleEndian, a)
	}
	return h.Sum32()
}

// TestResidentRunMatchesStreaming is the in-memory regime's contract:
// for every program, a run over a resident PreparedGraph produces the
// same packed values, byte for byte, as the streaming run of the same
// options without one (one partition, so the update order coincides) —
// on a plain store, a delta+reordered store and a weighted store —
// while moving no device bytes and never writing the shared edge list.
// A BatchBFS is held to every root's tree as well — levels, parents and
// visited count — at every width, capped or not.
func TestResidentRunMatchesStreaming(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 21)
	if err != nil {
		t.Fatal(err)
	}
	deg := graph.Degrees(m.Vertices, edges)
	wedges := make([]graph.WEdge, len(edges))
	for i, e := range edges {
		wedges[i] = graph.WEdge{Src: e.Src, Dst: e.Dst, Weight: float32(1 + (i*7)%5)}
	}

	vol := storage.NewMem()
	plain, reord, weighted := m, m, m
	plain.Name, reord.Name, weighted.Name = "plain", "reord", "weighted"
	if err := graph.Store(vol, plain, edges); err != nil {
		t.Fatal(err)
	}
	if err := graph.StoreGraph(vol, reord, edges, graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true}); err != nil {
		t.Fatal(err)
	}
	if err := graph.StoreWeighted(vol, weighted, wedges); err != nil {
		t.Fatal(err)
	}

	batchRoots := hubs(deg, MaxBatchRoots)
	root := batchRoots[0]
	newBatch := func(roots []graph.VertexID) *BatchBFS {
		b, err := NewBatchBFS(roots, m.Vertices)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	type progCase struct {
		name    string
		newProg func() Program
		maxIter int
	}
	unweighted := []progCase{
		{"bfs", func() Program { return NewBFS(root) }, 0},
		{"bfs-capped", func() Program { return NewBFS(root) }, 2},
		{"msbfs", func() Program { return NewMultiSourceBFS([]graph.VertexID{batchRoots[5], 1, batchRoots[20]}) }, 0},
		{"sssp-unit", func() Program { return NewSSSP(root) }, 0},
		{"batch1", func() Program { return newBatch(batchRoots[3:4]) }, 0},
		{"batch2", func() Program { return newBatch(batchRoots[:2]) }, 0},
		{"batch2-capped", func() Program { return newBatch(batchRoots[:2]) }, 2},
		{"batch32", func() Program { return newBatch(batchRoots) }, 0},
		{"batch32-capped", func() Program { return newBatch(batchRoots) }, 1},
		{"wcc", func() Program { return WCC{} }, 0},
		{"pagerank", func() Program { return NewPageRank(deg, 5) }, 0},
	}
	for _, g := range []struct {
		name  string
		progs []progCase
	}{
		{"plain", unweighted},
		{"reord", unweighted},
		{"weighted", []progCase{
			{"sssp", func() Program { return NewSSSP(root) }, 0},
			{"batch2", func() Program { return newBatch(batchRoots[:2]) }, 0},
		}},
	} {
		pg := prepare(t, vol, g.name)
		sum := edgeSum(pg)
		for _, pc := range g.progs {
			o := residentOpts()
			o.MaxIterations = pc.maxIter
			streamProg := pc.newProg()
			want, err := Run(vol, g.name, streamProg, o)
			if err != nil {
				t.Fatalf("%s/%s streaming: %v", g.name, pc.name, err)
			}
			if want.Metrics.BytesRead == 0 {
				t.Fatalf("%s/%s: the reference run did not stream", g.name, pc.name)
			}
			o.Prepared = pg
			residentProg := pc.newProg()
			got, err := Run(vol, g.name, residentProg, o)
			if err != nil {
				t.Fatalf("%s/%s resident: %v", g.name, pc.name, err)
			}
			if got.Metrics.BytesRead != 0 || got.Metrics.BytesWritten != 0 {
				t.Errorf("%s/%s: resident run moved %d/%d device bytes", g.name, pc.name,
					got.Metrics.BytesRead, got.Metrics.BytesWritten)
			}
			if b, ok := residentProg.(*BatchBFS); ok {
				sb := streamProg.(*BatchBFS)
				for i := range b.Roots() {
					if !reflect.DeepEqual(b.LevelsOf(i), sb.LevelsOf(i)) || !reflect.DeepEqual(b.ParentsOf(i), sb.ParentsOf(i)) || b.VisitedOf(i) != sb.VisitedOf(i) {
						t.Errorf("%s/%s: root %d tree differs from the streaming run", g.name, pc.name, i)
					}
				}
			}
			if !reflect.DeepEqual(got.Values, want.Values) {
				t.Errorf("%s/%s: resident values differ from the streaming run", g.name, pc.name)
			}
			if len(got.Metrics.Iterations) != len(want.Metrics.Iterations) {
				t.Errorf("%s/%s: %d resident iterations, %d streaming", g.name, pc.name,
					len(got.Metrics.Iterations), len(want.Metrics.Iterations))
			} else {
				// The active-source bitmap skips work, never a count.
				for i, it := range got.Metrics.Iterations {
					w := want.Metrics.Iterations[i]
					if it.EdgesStreamed != w.EdgesStreamed || it.Updates != w.Updates || it.NewlyVisited != w.NewlyVisited {
						t.Errorf("%s/%s iteration %d: resident streamed %d edges, %d updates, %d changes; streaming %d, %d, %d",
							g.name, pc.name, i, it.EdgesStreamed, it.Updates, it.NewlyVisited, w.EdgesStreamed, w.Updates, w.NewlyVisited)
					}
				}
			}
		}
		if edgeSum(pg) != sum {
			t.Errorf("%s: shared out-lists were written", g.name)
		}
	}
}

// activeChecker wraps a SourceFilter program and checks its promise —
// no emission from a vertex it calls inactive — at every Scatter call of
// a streaming run, which skips nothing.
type activeChecker struct {
	Program
	t              *testing.T
	skipped, taken int
}

func (c *activeChecker) Scatter(iter int, src graph.VertexID, srcVal uint64, dst graph.VertexID, weight float32) (uint64, bool) {
	payload, emit := c.Program.Scatter(iter, src, srcVal, dst, weight)
	if c.Program.(SourceFilter).Active(iter, srcVal) {
		c.taken++
	} else {
		c.skipped++
		if emit {
			c.t.Errorf("%s iteration %d: edge %d->%d emitted from value %#x, which Active calls inactive", c.Name(), iter, src, dst, srcVal)
		}
	}
	return payload, emit
}

func (c *activeChecker) ApplyTo(iter int, dst graph.VertexID, val, payload uint64) (uint64, bool) {
	if da, ok := c.Program.(DstApplier); ok {
		return da.ApplyTo(iter, dst, val, payload)
	}
	return c.Apply(iter, val, payload)
}

// TestSourceFilterContract: every program that implements SourceFilter
// never emits from a vertex it reports inactive, on any edge of any
// iteration — which is what lets the in-memory regime skip those edges
// without loading the source's value — and the filter is neither always
// true nor always false.
func TestSourceFilterContract(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 21)
	if err != nil {
		t.Fatal(err)
	}
	vol := store(t, m, edges)
	deg := graph.Degrees(m.Vertices, edges)
	roots := hubs(deg, 10)
	opts := xstream.Options{MemoryBudget: 1024, StreamBufSize: 512}
	for _, prog := range []Program{
		NewBFS(roots[0]),
		NewMultiSourceBFS([]graph.VertexID{roots[3], 1, roots[9]}),
		NewSSSP(roots[0]),
		WCC{},
	} {
		if _, ok := prog.(SourceFilter); !ok {
			t.Fatalf("%s does not implement SourceFilter", prog.Name())
		}
		c := &activeChecker{Program: prog, t: t}
		if _, err := Run(vol, m.Name, c, opts); err != nil {
			t.Fatal(err)
		}
		if c.taken == 0 || c.skipped == 0 {
			t.Errorf("%s: %d edge visits from active sources, %d from inactive ones", prog.Name(), c.taken, c.skipped)
		}
	}
	if _, ok := Program(NewPageRank(deg, 2)).(SourceFilter); ok {
		t.Error("pagerank emits from every vertex in every iteration; a filter would only cost it a pass")
	}
}

// TestResidentRunPollsContextAndFaultHook: the in-memory loop keeps the
// streaming loop's seams — the fault hook fires once per iteration and a
// context cancelled mid-run stops the run at the next iteration boundary
// with ErrCancelled, its scratch back on the free-list for the next run,
// for a BatchBFS as for any program.
func TestResidentRunPollsContextAndFaultHook(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 21)
	if err != nil {
		t.Fatal(err)
	}
	vol := store(t, m, edges)
	pg := prepare(t, vol, m.Name)
	roots := hubs(graph.Degrees(m.Vertices, edges), 2)

	for name, newProg := range map[string]func() Program{
		"bfs": func() Program { return NewBFS(roots[0]) },
		"batch": func() Program {
			b, err := NewBatchBFS(roots, m.Vertices)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	} {
		o := residentOpts()
		o.Prepared = pg
		calls := 0
		o.FaultHook = func() { calls++ }
		first := newProg()
		res, err := Run(vol, m.Name, first, o)
		if err != nil {
			t.Fatal(err)
		}
		if iters := len(res.Metrics.Iterations); iters < 3 || calls != iters {
			t.Fatalf("%s: fault hook fired %d times over %d iterations", name, calls, iters)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls = 0
		o.FaultHook = func() {
			if calls++; calls == 2 {
				cancel()
			}
		}
		if _, err := RunContext(ctx, vol, m.Name, newProg(), o); !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("%s: run cancelled in iteration 1: err = %v, want ErrCancelled", name, err)
		}
		if calls != 2 {
			t.Fatalf("%s: cancelled run kept iterating: %d hook calls", name, calls)
		}

		o.FaultHook = nil
		second := newProg()
		again, err := Run(vol, m.Name, second, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Values, res.Values) {
			t.Fatalf("%s: run after a cancelled one (reused scratch) differs", name)
		}
		if b, ok := second.(*BatchBFS); ok {
			if f := first.(*BatchBFS); !reflect.DeepEqual(b.levels, f.levels) || !reflect.DeepEqual(b.parents, f.parents) {
				t.Fatal("batch after a cancelled one (reused scratch) grew other trees")
			}
		}
	}
}
