package xstream_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fastbfs/internal/core"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// TestRunOnLeftScratchIsByteIdentical: every engine, on either stored
// codec and in either direction, answers byte for byte like a run on an
// empty scratch when it takes the scratch a run on another graph —
// larger, on the other codec, at another partition count and buffer size
// — has just given back: the same levels, parents, rows, bytes and
// simulated time. And no answer aliases the scratch: every result is
// unchanged after all the runs that follow it, the last of them on the
// same graph from another root.
func TestRunOnLeftScratchIsByteIdentical(t *testing.T) {
	codecs := []struct {
		name  string
		store graph.StoreOptions
	}{
		{"fixed", graph.StoreOptions{Reverse: true}},
		{"delta+reorder", graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}},
	}
	store := func(scale int, so graph.StoreOptions) (storage.Volume, graph.Meta, []graph.Edge) {
		m, edges, err := gen.RMAT(scale, 8, gen.Graph500(), 17)
		if err != nil {
			t.Fatal(err)
		}
		vol := storage.NewMem()
		if err := graph.StoreGraph(vol, m, edges, so); err != nil {
			t.Fatal(err)
		}
		return vol, m, edges
	}
	run := func(engine serve.Engine, vol storage.Volume, m graph.Meta, o xstream.Options) *core.Result {
		t.Helper()
		o.Sim = xstream.DefaultSim() // devices accumulate state: one per run
		res, err := serve.RunEngine(context.Background(), engine, vol, m.Name, core.Options{Base: o})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	type kept struct {
		name      string
		res, copy *core.Result
	}
	var results []kept
	keep := func(name string, res *core.Result) {
		c := *res
		c.Levels, c.Parents = slices.Clone(res.Levels), slices.Clone(res.Parents)
		c.Metrics.Iterations = slices.Clone(res.Metrics.Iterations)
		results = append(results, kept{name, res, &c})
	}
	for i, c := range codecs {
		vol, m, edges := store(9, c.store)
		// The other graph: twice the vertices, the other codec, 4
		// partitions where the run has 8, twice its buffers.
		dirtVol, dirtM, dirtEdges := store(10, codecs[1-i].store)
		for _, engine := range []serve.Engine{serve.EngineFastBFS, serve.EngineXStream, serve.EngineGraphChi} {
			for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
				name := fmt.Sprintf("%s/%s/%s", engine, c.name, dir)
				opts := xstream.Options{Root: edges[0].Src, MemoryBudget: 1024, StreamBufSize: 512, Direction: dir, ScatterWorkers: 2}
				xstream.DropFreeScratch()
				fresh := run(engine, vol, m, opts)
				run(engine, dirtVol, dirtM, xstream.Options{Root: dirtEdges[0].Src, MemoryBudget: 4096, StreamBufSize: 1024,
					Direction: xstream.DirectionAuto, ScatterWorkers: 3})
				reused := run(engine, vol, m, opts)
				if fresh.Visited < m.Vertices/4 || fresh.Metrics.BytesWritten == 0 {
					t.Fatalf("%s: %d vertices reached, %d bytes written; want a streaming traversal", name, fresh.Visited, fresh.Metrics.BytesWritten)
				}
				if !slices.Equal(reused.Levels, fresh.Levels) || !slices.Equal(reused.Parents, fresh.Parents) || reused.Visited != fresh.Visited {
					t.Errorf("%s: the answer on a left scratch differs from the one on an empty scratch", name)
				}
				if !reflect.DeepEqual(reused.Metrics, fresh.Metrics) {
					t.Errorf("%s: the record on a left scratch differs: %d/%d bytes in %v s, want %d/%d in %v s", name,
						reused.Metrics.BytesRead, reused.Metrics.BytesWritten, reused.Metrics.ExecTime,
						fresh.Metrics.BytesRead, fresh.Metrics.BytesWritten, fresh.Metrics.ExecTime)
				}
				keep(name, fresh)
				keep(name, reused)
				opts.Root = edges[len(edges)/2].Src
				run(engine, vol, m, opts)
			}
		}
	}
	for _, k := range results {
		if !reflect.DeepEqual(k.res, k.copy) {
			t.Errorf("%s: a result changed after the runs that followed it; it aliases a scratch", k.name)
		}
	}
}
