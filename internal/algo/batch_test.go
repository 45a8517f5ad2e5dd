package algo

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fastbfs/internal/bfs"
	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// TestBatchBFSMatchesStandaloneRuns is the program-level half of the
// batching equivalence contract: for every root in a batch, LevelsOf /
// ParentsOf must be byte-identical to a standalone single-source run
// with the same engine options — not merely a valid BFS tree. The
// serve-layer property test covers the same contract end to end.
func TestBatchBFSMatchesStandaloneRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for g := 0; g < 12; g++ {
		var (
			m     graph.Meta
			edges []graph.Edge
			err   error
		)
		if g%2 == 0 {
			m, edges, err = gen.RMAT(5+rng.Intn(3), 4+rng.Intn(5), gen.Graph500(), rng.Int63())
		} else {
			m, edges, err = gen.Uniform(30+uint64(rng.Intn(60)), 80+uint64(rng.Intn(160)), rng.Int63())
		}
		if err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
		m.Name = fmt.Sprintf("batch%02d", g)
		vol := store(t, m, edges)

		size := []int{1, 7, MaxBatchRoots}[g%3]
		if uint64(size) > m.Vertices {
			size = int(m.Vertices)
		}
		roots := make([]graph.VertexID, 0, size)
		seen := map[graph.VertexID]bool{}
		for len(roots) < size {
			r := graph.VertexID(rng.Intn(int(m.Vertices)))
			if !seen[r] {
				seen[r] = true
				roots = append(roots, r)
			}
		}
		maxIter := 0
		if g%4 == 3 {
			maxIter = 1 + rng.Intn(3) // a capped batch must match equally capped solo runs
		}

		o := opts()
		o.MaxIterations = maxIter
		prog, err := NewBatchBFS(roots, m.Vertices)
		if err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
		if _, err := Run(vol, m.Name, prog, o); err != nil {
			t.Fatalf("graph %d: batch run: %v", g, err)
		}

		for i, root := range roots {
			solo := NewBFS(root)
			sres, err := Run(vol, m.Name, solo, o)
			if err != nil {
				t.Fatalf("graph %d root %d: solo run: %v", g, root, err)
			}
			wantLv, wantPar := solo.Levels(sres.Values), solo.Parents(sres.Values)
			gotLv, gotPar := prog.LevelsOf(i), prog.ParentsOf(i)
			for v := range wantLv {
				if gotLv[v] != wantLv[v] || gotPar[v] != wantPar[v] {
					t.Fatalf("graph %d size %d root %d maxiter %d: vertex %d: batch (level %d, parent %d) vs solo (level %d, parent %d)",
						g, size, root, maxIter, v, gotLv[v], gotPar[v], wantLv[v], wantPar[v])
				}
			}
			var wantVis uint64
			for _, l := range wantLv {
				if l != NoLevel {
					wantVis++
				}
			}
			if vis := prog.VisitedOf(i); vis != wantVis {
				t.Fatalf("graph %d root %d: VisitedOf = %d, want %d", g, root, vis, wantVis)
			}
			if prog.RootIndex(root) != i {
				t.Fatalf("graph %d: RootIndex(%d) = %d, want %d", g, root, prog.RootIndex(root), i)
			}
			// Uncapped trees must also be valid Graph500-style BFS trees.
			if maxIter == 0 {
				got := &bfs.Result{Root: root, Level: gotLv, Parent: gotPar, Visited: prog.VisitedOf(i)}
				if err := bfs.Validate(m, edges, got); err != nil {
					t.Fatalf("graph %d root %d: %v", g, root, err)
				}
			}
		}
	}
}

func TestBatchBFSRejectsBadBatches(t *testing.T) {
	tooMany := make([]graph.VertexID, MaxBatchRoots+1)
	for i := range tooMany {
		tooMany[i] = graph.VertexID(i)
	}
	cases := []struct {
		name  string
		roots []graph.VertexID
	}{
		{"empty", nil},
		{"too many", tooMany},
		{"duplicate", []graph.VertexID{3, 5, 3}},
		{"out of range", []graph.VertexID{99}},
	}
	for _, c := range cases {
		if _, err := NewBatchBFS(c.roots, 64); !errors.Is(err, errs.ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", c.name, err)
		}
	}
	if prog, err := NewBatchBFS([]graph.VertexID{4}, 64); err != nil {
		t.Fatal(err)
	} else if prog.RootIndex(5) != -1 {
		t.Error("RootIndex of an absent root != -1")
	}
}

// createCounter counts the files a run creates on its volume.
type createCounter struct {
	storage.Volume
	creates int
}

func (v *createCounter) Create(name string) (storage.Writer, error) {
	v.creates++
	return v.Volume.Create(name)
}

// TestOutOfCoreBatchKeepsValuesInRAM: a warmed out-of-core BatchBFS x2
// run — the serving layer's batched query — creates no file on its volume
// and allocates no more than its program's side arrays, its result and a
// margin: the value arrays, the bitmap, the edge chunk and the stream
// buffer all come back from the scratch and the pools the first run
// warmed. The margin covers the run's bookkeeping; a run that allocated
// its value arrays or an update chunk would exceed it.
func TestOutOfCoreBatchKeepsValuesInRAM(t *testing.T) {
	if testing.Short() {
		t.Skip("rmat14/ef16")
	}
	m, edges, err := gen.RMAT(14, 16, gen.Graph500(), 1)
	if err != nil {
		t.Fatal(err)
	}
	vol := &createCounter{Volume: storage.NewMem()}
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	roots := hubs(graph.Degrees(m.Vertices, edges), 2)
	V := int64(m.Vertices)
	warmedRunAllocates(t, vol, int64(len(roots))*V*(4+4), V*8, func() (*Result, error) {
		b, err := NewBatchBFS(roots, m.Vertices)
		if err != nil {
			t.Fatal(err)
		}
		return Run(vol, m.Name, b, xstream.Options{MemoryBudget: 1 << 16, Partitions: 8})
	})
}

// TestOutOfCoreSSSPDecodesIntoScratch is the same bound for a weighted
// store's out-of-core SSSP, which has no side arrays: its edge, weight and
// record chunks come from the scratch, where a run that allocated them at
// each iteration's scan would take about 2 MiB a scan.
func TestOutOfCoreSSSPDecodesIntoScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("rmat14/ef16")
	}
	m, edges, err := gen.RMAT(14, 16, gen.Graph500(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wedges := make([]graph.WEdge, len(edges))
	for i, e := range edges {
		wedges[i] = graph.WEdge{Src: e.Src, Dst: e.Dst, Weight: float32(1 + i%7)}
	}
	vol := &createCounter{Volume: storage.NewMem()}
	if err := graph.StoreWeighted(vol, m, wedges); err != nil {
		t.Fatal(err)
	}
	root := hubs(graph.Degrees(m.Vertices, edges), 1)[0]
	warmedRunAllocates(t, vol, 0, int64(m.Vertices)*8, func() (*Result, error) {
		return Run(vol, m.Name, NewSSSP(root), xstream.Options{MemoryBudget: 1 << 16, Partitions: 8})
	})
}

// warmedRunAllocates runs an out-of-core traversal once to warm the
// scratch and the pools, then requires each of three more to create no
// file and to allocate at most side + result + 128 KiB.
func warmedRunAllocates(t *testing.T, vol *createCounter, side, result int64, run func() (*Result, error)) {
	t.Helper()
	once := func() {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics.Iterations) < 3 || res.Metrics.BytesRead == 0 {
			t.Fatalf("%d iterations, %d bytes read: not an out-of-core traversal", len(res.Metrics.Iterations), res.Metrics.BytesRead)
		}
	}
	once()
	vol.creates = 0
	const runs = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		once()
	}
	runtime.ReadMemStats(&after)
	if vol.creates != 0 {
		t.Errorf("%d files created by %d runs", vol.creates, runs)
	}
	const margin = 128 << 10
	if got := int64(after.TotalAlloc-before.TotalAlloc) / runs; got > side+result+margin {
		t.Errorf("a run allocates %d B, want at most %d (side arrays) + %d (result) + %d", got, side, result, margin)
	}
}
