package core

import (
	"fmt"
	"strings"
	"testing"

	"fastbfs/internal/bfs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Tests of a run's vertex state (DESIGN.md §5): a run that trims by the
// counts keeps its levels in RAM — the bitmaps and its answer's arrays —
// and never a vertex file, and logs them only when it checkpoints; the
// paper pin keeps §II-A's vertex files.

// vertexFileLister is a tracer that lists vol after every iteration; iters
// counts the listings and withVtx those that held a vertex file or, in a
// run that does not checkpoint (!ck), a level log.
func vertexFileLister(vol storage.Volume, ck bool) (tr *obs.Tracer, iters, withVtx *int) {
	iters, withVtx = new(int), new(int)
	tr = obs.New(obs.FuncSink(func(e obs.Event) {
		if e.Kind != obs.KindSpan || e.Name != "iteration" {
			return
		}
		*iters++
		for _, name := range vol.List() {
			if strings.Contains(name, "_vtx_") || !ck && strings.Contains(name, "_won") {
				*withVtx++
				return
			}
		}
	}))
	return tr, iters, withVtx
}

// TestCountRuleKeepsNoVertexFile lists the working volume after every
// iteration of a run that trims by the counts — fresh, killed at iteration
// 2 and resumed — across direction × codec × update filter × store labels
// (as given, reordered): no listing holds a vertex file, nor the fresh
// run's a level log; the fresh run's tree is the reference BFS's (levels,
// and a valid parent tree in the caller's labels) and the resumed run's,
// byte for byte; the fresh run leaves only the dataset, the checkpointed
// ones only their logs. X-Stream and FastBFS on the paper's threshold
// write vertex files.
func TestCountRuleKeepsNoVertexFile(t *testing.T) {
	for _, c := range ckCases() {
		for _, cell := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			noFilter, reorder := cell[0], cell[1]
			tag := fmt.Sprintf("%s, filter off %v, reordered %v", c, noFilter, reorder)
			m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
			if err != nil {
				t.Fatal(err)
			}
			vol := storage.NewMem()
			so := graph.StoreOptions{Codec: c.codec, Reverse: true, ReorderByDegree: reorder}
			if err := graph.StoreGraph(vol, m, edges, so); err != nil {
				t.Fatal(err)
			}
			dataset := len(vol.List())
			run := func(label string, ck storage.Volume, resume bool, maxIter int) *Result {
				t.Helper()
				tr, iters, withVtx := vertexFileLister(vol, ck != nil)
				o := ckOpts(c, ck, resume, maxIter)
				o.Base.DisableUpdateFilter, o.Base.Tracer = noFilter, tr
				res, err := Run(vol, m.Name, o)
				tr.Close()
				if err != nil {
					t.Fatalf("%s, %s: %v", tag, label, err)
				}
				if *withVtx > 0 || !resume && *iters == 0 {
					t.Fatalf("%s, %s: %d of %d iterations left a vertex file or an unasked-for level log", tag, label, *withVtx, *iters)
				}
				return res
			}
			fresh := run("fresh", nil, false, 0)
			if n := len(vol.List()); n != dataset {
				t.Fatalf("%s: the fresh run left %d working files", tag, n-dataset)
			}
			ref, err := bfs.Run(m, edges, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := &bfs.Result{Root: 0, Level: fresh.Levels, Parent: fresh.Parents, Visited: fresh.Visited}
			if err := bfs.Equal(ref, got); err != nil {
				t.Fatalf("%s: fresh run against the reference: %v", tag, err)
			}
			if err := bfs.Validate(m, edges, got); err != nil {
				t.Fatalf("%s: fresh run's tree: %v", tag, err)
			}
			ck := storage.NewMem()
			run("killed", ck, false, 2)
			resumed := run("resumed", ck, true, 0)
			assertSameResult(t, tag+", resumed", resumed, fresh)
			assertOnlyLogsLeft(t, tag, vol, m, resumed.Metrics.Resumed+len(resumed.Metrics.Iterations)-1, 4)
		}
	}
	vol, m := seededGraph(t, 5, graph.CodecFixed)
	for _, engine := range []string{xstream.EngineName, EngineName} {
		tr, iters, withVtx := vertexFileLister(vol, false)
		base := xstream.Options{MemoryBudget: 4096, Partitions: 4, StreamBufSize: 256, Sim: xstream.DefaultSim(), Tracer: tr}
		var err error
		if engine == EngineName {
			_, err = Run(vol, m.Name, Options{Base: base, TrimStartIteration: TrimEveryIteration})
		} else {
			_, err = xstream.Run(vol, m.Name, base)
		}
		tr.Close()
		if err != nil || *withVtx != *iters || *iters < 3 {
			t.Fatalf("%s on the paper pin: %d of %d iterations kept vertex files (err %v)", engine, *withVtx, *iters, err)
		}
	}
}
