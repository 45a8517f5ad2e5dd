package algo

import (
	"errors"
	"fmt"
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

// TestAlgoWriterFaultLeavesNothing drives stream.WriterSet's all-or-nothing
// contract through this engine's use of it, an iteration's update
// shuffle, with a permanent write fault on
// partition k's file, failing an Append's flush (small buffer) or the
// Close (large one). The run keeps its files, so a file of the set still
// on the volume is one the set left there, and every pooled buffer must be
// back, which an open writer's would not be.
func TestAlgoWriterFaultLeavesNothing(t *testing.T) {
	m, edges, err := gen.RMAT(7, 8, gen.Graph500(), 2)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	const parts = 4
	for _, set := range []string{"_u0_"} {
		for _, bufSize := range []int{512, 1 << 20} {
			for k := 0; k < parts; k++ {
				name := fmt.Sprintf("%s%d/buf=%d", set, k, bufSize)
				audit := stream.AuditPools()
				o := xstream.Options{MemoryBudget: 4096, Partitions: parts, StreamBufSize: bufSize,
					KeepFiles: true, FilePrefix: "t", Sim: xstream.DefaultSim()}
				faulty := storage.NewFaulty(vol, storage.FaultSpec{PWriteP: 1, Match: fmt.Sprintf("t%s%d", set, k)})
				// Emits on every edge, so every partition's update file is written.
				_, err := Run(faulty, m.Name, &countingProgram{maxIter: 2}, o)
				audit.Stop()
				var fe *storage.FaultError
				if !errors.Is(err, errs.ErrIOFailed) || !errors.As(err, &fe) || fe.Transient {
					t.Fatalf("%s: err = %v, want the permanent write fault as ErrIOFailed", name, err)
				}
				for _, f := range vol.List() {
					if strings.Contains(f, set) {
						t.Errorf("%s: the failed set left %s on the volume", name, f)
					}
					if strings.HasPrefix(f, "t_") {
						vol.Remove(f)
					}
				}
				if n := audit.Outstanding(); n != 0 {
					t.Errorf("%s: %d pooled buffers outstanding after the failed run", name, n)
				}
			}
		}
	}
}
