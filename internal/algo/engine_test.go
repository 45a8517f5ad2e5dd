package algo

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
	"fastbfs/internal/xstream"
)

// countingProgram records engine callbacks so tests can verify the BSP
// contract: one full scatter pass then one full gather pass per
// iteration, every edge seen exactly once per scatter pass.
type countingProgram struct {
	scatters int64
	applies  int64
	begins   int64
	ends     int64
	inits    int64
	maxIter  int
}

func (c *countingProgram) Name() string { return "counting" }
func (c *countingProgram) Init(v graph.VertexID) uint64 {
	c.inits++
	return 0
}
func (c *countingProgram) Scatter(iter int, src graph.VertexID, val uint64, dst graph.VertexID, w float32) (uint64, bool) {
	c.scatters++
	return 1, true // emit on every edge
}
func (c *countingProgram) BeginGather(iter int, val uint64) uint64 { c.begins++; return val }
func (c *countingProgram) Apply(iter int, val, payload uint64) (uint64, bool) {
	c.applies++
	return val + payload, true
}
func (c *countingProgram) EndGather(iter int, val uint64) (uint64, bool) { c.ends++; return val, false }
func (c *countingProgram) Converged(iter int, changes uint64, emitted int64) bool {
	return iter+1 >= c.maxIter
}

func TestEngineBSPContract(t *testing.T) {
	m, edges, err := gen.RMAT(7, 8, gen.Graph500(), 2)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	prog := &countingProgram{maxIter: 3}
	res, err := Run(vol, m.Name, prog, opts())
	if err != nil {
		t.Fatal(err)
	}
	V, E := int64(m.Vertices), int64(m.Edges)
	if prog.inits != V {
		t.Errorf("Init called %d times, want %d", prog.inits, V)
	}
	if prog.scatters != 3*E {
		t.Errorf("Scatter saw %d edges, want %d (3 passes x %d)", prog.scatters, 3*E, E)
	}
	if prog.applies != 3*E {
		t.Errorf("Apply saw %d updates, want %d", prog.applies, 3*E)
	}
	if prog.begins != 3*V || prog.ends != 3*V {
		t.Errorf("Begin/EndGather: %d/%d, want %d each", prog.begins, prog.ends, 3*V)
	}
	// Every vertex's value is the number of in-edges x 3 passes.
	indeg := make([]uint64, m.Vertices)
	for _, e := range edges {
		indeg[e.Dst]++
	}
	for v := range res.Values {
		if res.Values[v] != 3*indeg[v] {
			t.Fatalf("vertex %d accumulated %d, want %d", v, res.Values[v], 3*indeg[v])
		}
	}
}

func TestEngineSingleVertexGraph(t *testing.T) {
	m := graph.Meta{Name: "one", Vertices: 1, Edges: 1}
	edges := []graph.Edge{{Src: 0, Dst: 0}} // self loop
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	prog := NewBFS(0)
	res, err := Run(vol, m.Name, prog, opts())
	if err != nil {
		t.Fatal(err)
	}
	if levels := prog.Levels(res.Values); levels[0] != 0 {
		t.Fatalf("root level = %d", levels[0])
	}
}

func TestEngineMaxIterationsCap(t *testing.T) {
	m, edges, _ := gen.Cycle(32)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	o := opts()
	o.MaxIterations = 3
	prog := NewBFS(0)
	res, err := Run(vol, m.Name, prog, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics.Iterations) > 3 {
		t.Fatalf("ran %d iterations past the cap", len(res.Metrics.Iterations))
	}
}

func TestEngineCleansUp(t *testing.T) {
	m, edges, _ := gen.BinaryTree(63)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(vol, m.Name, NewBFS(0), opts()); err != nil {
		t.Fatal(err)
	}
	if n := len(vol.List()); n != 5 {
		t.Fatalf("leftover files: %v", vol.List())
	}
}

func TestEngineMissingGraph(t *testing.T) {
	if _, err := Run(storage.NewMem(), "ghost", NewBFS(0), opts()); err == nil {
		t.Fatal("missing graph accepted")
	}
}

func TestEngineManyPartitions(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 4)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	root := graph.VertexID(0)
	deg := graph.Degrees(m.Vertices, edges)
	for v, d := range deg {
		if d > deg[root] {
			root = graph.VertexID(v)
		}
	}
	var want []uint32
	for _, parts := range []int{1, 3, 16} {
		o := xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Partitions: parts, Sim: xstream.DefaultSim()}
		prog := NewBFS(root)
		res, err := Run(vol, m.Name, prog, o)
		if err != nil {
			t.Fatalf("partitions=%d: %v", parts, err)
		}
		levels := prog.Levels(res.Values)
		if want == nil {
			want = levels
			continue
		}
		for v := range levels {
			if levels[v] != want[v] {
				t.Fatalf("partitions=%d: vertex %d level %d vs %d", parts, v, levels[v], want[v])
			}
		}
	}
}

// failAfter fails every Read of a file whose name holds match, from the
// reads-th on, with a permanent injected fault.
type failAfter struct {
	storage.Volume
	match string
	reads int
}

type failingReader struct {
	storage.Reader
	v *failAfter
}

func (v *failAfter) Open(name string) (storage.Reader, error) {
	r, err := v.Volume.Open(name)
	if err != nil || !strings.Contains(name, v.match) {
		return r, err
	}
	return &failingReader{Reader: r, v: v}, nil
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.v.reads--; r.v.reads < 0 {
		return 0, &storage.FaultError{Op: "read", Name: r.v.match}
	}
	return r.Reader.Read(p)
}

// TestAlgoWriterFaultLeavesNothing: a permanent read fault on the stored
// edge file — at its first read, partway through the first iteration's
// pass or through the second's — ends the run with ErrIOFailed, every
// pooled buffer back and the volume holding only the stored graph: the
// run writes no file, so a failed one leaves none. (The writer set's
// all-or-nothing contract is TestWriterSetFaultLeavesNothing's and
// TestSplitFaultLeavesNothing's.)
func TestAlgoWriterFaultLeavesNothing(t *testing.T) {
	m, edges, err := gen.RMAT(7, 8, gen.Graph500(), 2)
	if err != nil {
		t.Fatal(err)
	}
	vol := store(t, m, edges)
	stored := vol.List()
	const bufSize = 256 // 32 edges a read, 32 reads a pass
	for _, c := range []struct{ reads, iters int }{{0, 1}, {10, 1}, {40, 2}} {
		name := fmt.Sprintf("fault at read %d", c.reads)
		audit := stream.AuditPools()
		iters := 0
		o := xstream.Options{MemoryBudget: 4096, StreamBufSize: bufSize, KeepFiles: true, FilePrefix: "t",
			Sim: xstream.DefaultSim(), FaultHook: func() { iters++ }}
		faulty := &failAfter{Volume: vol, match: graph.EdgeFileName(m.Name), reads: c.reads}
		// Emits on every edge, so the pass folds updates when it fails.
		_, err := Run(faulty, m.Name, &countingProgram{maxIter: 3}, o)
		audit.Stop()
		var fe *storage.FaultError
		if !errors.Is(err, errs.ErrIOFailed) || !errors.As(err, &fe) || fe.Transient {
			t.Fatalf("%s: err = %v, want the permanent read fault as ErrIOFailed", name, err)
		}
		if iters != c.iters {
			t.Errorf("%s: failed in iteration %d, want %d", name, iters-1, c.iters-1)
		}
		if got := vol.List(); !slices.Equal(got, stored) {
			t.Errorf("%s: volume holds %v after the failed run, want %v", name, got, stored)
		}
		if n := audit.Outstanding(); n != 0 {
			t.Errorf("%s: %d pooled buffers outstanding after the failed run", name, n)
		}
	}
}
