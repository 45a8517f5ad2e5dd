package core

import (
	"fmt"
	"strings"
	"testing"

	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Tests of the level logs as a run's vertex state (DESIGN.md §5): a run that
// trims by the counts keeps its levels in RAM bitmaps and one log per level,
// and never a vertex file; the paper pin keeps §II-A's vertex files.

// vertexFileLister is a tracer that lists vol after every iteration; iters
// counts the listings and withVtx those that held a vertex file.
func vertexFileLister(vol storage.Volume) (tr *obs.Tracer, iters, withVtx *int) {
	iters, withVtx = new(int), new(int)
	tr = obs.New(obs.FuncSink(func(e obs.Event) {
		if e.Kind != obs.KindSpan || e.Name != "iteration" {
			return
		}
		*iters++
		for _, name := range vol.List() {
			if strings.Contains(name, "_vtx_") {
				*withVtx++
				return
			}
		}
	}))
	return tr, iters, withVtx
}

// TestCountRuleKeepsNoVertexFile lists the working volume after every
// iteration of a run that trims by the counts — fresh, killed at iteration
// 2 and resumed — across direction × codec × update filter: no
// listing holds a vertex file, the resumed run grows the fresh run's tree,
// and the fresh run leaves only the dataset, the checkpointed ones only
// their logs. X-Stream and FastBFS on the paper's threshold write theirs.
func TestCountRuleKeepsNoVertexFile(t *testing.T) {
	for _, c := range ckCases() {
		for _, noFilter := range []bool{false, true} {
			tag := fmt.Sprintf("%s, filter off %v", c, noFilter)
			vol, m := seededGraph(t, 5, c.codec)
			dataset := len(vol.List())
			run := func(label string, ck storage.Volume, resume bool, maxIter int) *Result {
				t.Helper()
				tr, iters, withVtx := vertexFileLister(vol)
				o := ckOpts(c, ck, resume, maxIter)
				o.Base.DisableUpdateFilter, o.Base.Codec, o.Base.Tracer = noFilter, c.codec, tr
				res, err := Run(vol, m.Name, o)
				tr.Close()
				if err != nil {
					t.Fatalf("%s, %s: %v", tag, label, err)
				}
				if *withVtx > 0 || !resume && *iters == 0 {
					t.Fatalf("%s, %s: %d of %d iterations left a vertex file", tag, label, *withVtx, *iters)
				}
				return res
			}
			fresh := run("fresh", nil, false, 0)
			if n := len(vol.List()); n != dataset {
				t.Fatalf("%s: the fresh run left %d working files", tag, n-dataset)
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
		tr, iters, withVtx := vertexFileLister(vol)
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
