package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Checkpoint/resume tests: a run killed at an iteration boundary or in
// the middle of a stay write must, after resume, produce levels and
// parents byte-identical to an uninterrupted reference run — and must
// never re-run an iteration the manifest records as completed.

// seededGraph stores one deterministic RMAT instance per seed.
func seededGraph(t *testing.T, seed int64) (*storage.Mem, graph.Meta) {
	t.Helper()
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	return vol, m
}

// ckOpts is the option set shared by every run in these tests; only the
// checkpoint fields and the iteration cap vary.
func ckOpts(ck storage.Volume, resume bool, maxIter int) Options {
	return Options{
		Base: xstream.Options{
			MemoryBudget:  4096,
			StreamBufSize: 256,
			MaxIterations: maxIter,
			Sim:           xstream.DefaultSim(),
		},
		ResidencyBudget: ResidencyOff,
		CheckpointVol:   ck,
		Resume:          resume,
	}
}

func assertSameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.Visited != want.Visited {
		t.Fatalf("%s: visited %d, want %d", tag, got.Visited, want.Visited)
	}
	if !slices.Equal(got.Levels, want.Levels) {
		t.Fatalf("%s: levels differ from the reference run", tag)
	}
	if !slices.Equal(got.Parents, want.Parents) {
		t.Fatalf("%s: parents differ from the reference run", tag)
	}
}

// iterRecorder collects the iteration indices a run actually executed,
// from its trace — the proof that resume skipped completed iterations.
func iterRecorder() (*obs.Tracer, *[]int) {
	iters := &[]int{}
	tr := obs.New()
	tr.AddSink(obs.FuncSink(func(e obs.Event) {
		if e.Kind == obs.KindSpan && e.Name == "iteration" {
			*iters = append(*iters, e.Iter)
		}
	}))
	return tr, iters
}

// dropInputEdges rewrites the manifest on ck as a run from before the trim
// rule counted edges wrote it: no partition carries its input's edge count.
func dropInputEdges(t *testing.T, ck storage.Volume) {
	t.Helper()
	raw, err := storage.ReadAll(ck, "manifest")
	if err != nil {
		t.Fatal(err)
	}
	body, err := graph.DeframeAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, part := range man["parts"].([]any) {
		if _, ok := part.(map[string]any)["input_edges"]; ok {
			delete(part.(map[string]any), "input_edges")
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("the manifest carries no input edge count to drop")
	}
	if body, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	w, err := ck.Create("manifest")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(graph.FrameAll(body)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashMatrixBoundaryKills(t *testing.T) {
	// Kill (via the MaxIterations cap, which exits the loop exactly where
	// a process death at an iteration boundary would) at a seed-dependent
	// iteration, resume, and require byte-identical output — across many
	// seeded graphs, trimming by the edge counts (which a resume recounts:
	// every prediction after it must still be exact), by them from a
	// manifest that carries none, and at every scatter as the paper does.
	type variant struct {
		name      string
		trimStart int
		countless bool
	}
	variants := []variant{{"counts", 0, false}, {"count-less manifest", 0, true}, {"every scatter", TrimEveryIteration, false}}
	for seed := int64(1); seed <= 12; seed++ {
		refVol, m := seededGraph(t, seed)
		ref, err := Run(refVol, m.Name, ckOpts(nil, false, 0))
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		total := len(ref.Metrics.Iterations)
		if total < 2 {
			continue
		}
		killIter := 1 + int(seed)%(total-1)
		for _, v := range variants {
			tag := fmt.Sprintf("seed %d, %s", seed, v.name)
			vol, _ := seededGraph(t, seed)
			ck := storage.NewMem()
			po := ckOpts(ck, false, killIter)
			po.TrimStartIteration = v.trimStart
			partial, err := Run(vol, m.Name, po)
			if err != nil {
				t.Fatalf("%s: partial run: %v", tag, err)
			}
			if partial.Metrics.Checkpoints != killIter {
				t.Fatalf("%s: %d checkpoints after %d iterations", tag, partial.Metrics.Checkpoints, killIter)
			}
			if v.countless {
				dropInputEdges(t, ck)
			}
			tr, iters := iterRecorder()
			opts := ckOpts(ck, true, 0)
			opts.TrimStartIteration = v.trimStart
			opts.Base.Tracer = tr
			resumed, err := Run(vol, m.Name, opts)
			tr.Close()
			if err != nil {
				t.Fatalf("%s: resume: %v", tag, err)
			}
			assertSameResult(t, tag, resumed, ref)
			checkTrimRows(t, tag, resumed, countsTrims(m, opts))
			if resumed.Metrics.Resumed != killIter {
				t.Fatalf("%s: resumed=%d, want %d", tag, resumed.Metrics.Resumed, killIter)
			}
			if len(resumed.Metrics.Iterations) != total {
				t.Fatalf("%s: %d iteration rows after resume, want %d", tag, len(resumed.Metrics.Iterations), total)
			}
			// The trace proves no completed iteration was re-run: the resumed
			// run's iteration spans start exactly at the manifest's successor.
			if len(*iters) == 0 || (*iters)[0] != killIter {
				t.Fatalf("%s: resumed run executed iterations %v, want to start at %d", tag, *iters, killIter)
			}
			for _, it := range *iters {
				if it < killIter {
					t.Fatalf("%s: resume re-ran completed iteration %d", tag, it)
				}
			}
		}
	}
}

// TestResumeRebuildsUpdateFilter kills a run at every iteration boundary
// in turn — the last one included, where a resumed run that forgot which
// destinations were already claimed would shuffle dead updates and take
// an iteration more — and requires the resumed run to gather, filter,
// discover and skip exactly what the uninterrupted run does in every
// row, with the update filter on and off.
func TestResumeRebuildsUpdateFilter(t *testing.T) {
	for _, noFilter := range []bool{false, true} {
		opts := func(ck storage.Volume, resume bool, maxIter int) Options {
			o := ckOpts(ck, resume, maxIter)
			o.Base.DisableUpdateFilter = noFilter
			// Checkpointed runs are top-down; so must their reference be.
			o.Base.Direction = xstream.DirectionTopDown
			// Several partitions: one that scatters early aims at vertices a
			// later one is about to gather, which only the claims catch.
			o.Base.Partitions = 4
			return o
		}
		var filtered int64
		for seed := int64(1); seed <= 4; seed++ {
			// Checkpointed runs split up front; so must their reference.
			refVol, m := seededGraph(t, seed)
			ref, err := Run(refVol, m.Name, opts(storage.NewMem(), false, 0))
			if err != nil {
				t.Fatalf("seed %d: reference: %v", seed, err)
			}
			filtered += ref.Metrics.UpdatesFiltered()
			want := ref.Metrics.Iterations
			for killIter := 1; killIter < len(want); killIter++ {
				vol, _ := seededGraph(t, seed)
				ck := storage.NewMem()
				if _, err := Run(vol, m.Name, opts(ck, false, killIter)); err != nil {
					t.Fatalf("seed %d kill %d: partial run: %v", seed, killIter, err)
				}
				resumed, err := Run(vol, m.Name, opts(ck, true, 0))
				if err != nil {
					t.Fatalf("seed %d kill %d: resume: %v", seed, killIter, err)
				}
				assertSameResult(t, "resume", resumed, ref)
				got := resumed.Metrics.Iterations
				if len(got) != len(want) {
					t.Fatalf("seed %d kill %d (filter off = %v): %d iteration rows after resume, want %d", seed, killIter, noFilter, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.Updates != w.Updates || g.Filtered != w.Filtered || g.NewlyVisited != w.NewlyVisited ||
						g.Frontier != w.Frontier || g.SkippedPartitions != w.SkippedPartitions {
						t.Fatalf("seed %d kill %d (filter off = %v): iteration %d after resume %+v, uninterrupted %+v", seed, killIter, noFilter, i, g, w)
					}
				}
				if resumed.Metrics.UpdatesFiltered() != ref.Metrics.UpdatesFiltered() {
					t.Fatalf("seed %d kill %d: %d updates filtered after resume, %d uninterrupted", seed, killIter, resumed.Metrics.UpdatesFiltered(), ref.Metrics.UpdatesFiltered())
				}
			}
		}
		if (filtered == 0) != noFilter {
			t.Fatalf("filter off = %v, yet the reference runs filtered %d updates", noFilter, filtered)
		}
	}
}

func TestCrashMatrixMidStayWriteKills(t *testing.T) {
	// Kill the run from inside a stay write (the hook cancels the run's
	// context, which the engine observes mid-iteration), then resume. The
	// pending stay file lost to the crash is the grace-and-cancel path, so
	// the resumed result must still be byte-identical. The loop also
	// doubles as a goroutine-leak check over the abort path.
	warm, wm := seededGraph(t, 100)
	if _, err := Run(warm, wm.Name, ckOpts(nil, false, 0)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	killed := 0
	for seed := int64(101); seed <= 108; seed++ {
		refVol, m := seededGraph(t, seed)
		ref, err := Run(refVol, m.Name, ckOpts(nil, false, 0))
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}

		vol, _ := seededGraph(t, seed)
		ck := storage.NewMem()
		ctx, cancel := context.WithCancel(context.Background())
		var stayWrites atomic.Int64
		killAfter := 1 + int64(seed)%5
		// Half the matrix trims at every scatter, as the paper does: the
		// stay writes this test kills from are its subject, and a run that
		// trims by the edge counts makes few (on a volume that publishes a
		// file in one write, too few to be killed from).
		trimStart := 0
		if seed%2 == 1 {
			trimStart = TrimEveryIteration
		}
		opts := func(resume bool) Options {
			o := ckOpts(ck, resume, 0)
			o.TrimStartIteration = trimStart
			return o
		}
		vol.FailWrites(func(name string, written int64) error {
			if strings.Contains(name, "_stay") && stayWrites.Add(1) >= killAfter {
				cancel()
			}
			return nil
		})
		_, err = RunContext(ctx, vol, m.Name, opts(false))
		vol.FailWrites(nil)
		cancel()
		if err != nil {
			if !errors.Is(err, errs.ErrCancelled) && !errors.Is(err, context.Canceled) {
				t.Fatalf("seed %d: killed run died with %v, want cancellation", seed, err)
			}
			killed++
		}

		resumed, err := Run(vol, m.Name, opts(true))
		if err != nil {
			t.Fatalf("seed %d: resume after mid-write kill: %v", seed, err)
		}
		assertSameResult(t, "mid-stay-write kill", resumed, ref)
		checkTrimRows(t, "mid-stay-write kill", resumed, trimStart == 0)
	}
	if killed == 0 {
		t.Fatal("no run in the matrix was actually killed mid-write")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across killed-and-resumed runs", before, after)
	}
}

func TestResumeWithNoManifestRunsFresh(t *testing.T) {
	refVol, m := seededGraph(t, 21)
	ref, err := Run(refVol, m.Name, ckOpts(nil, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	vol, _ := seededGraph(t, 21)
	res, err := Run(vol, m.Name, ckOpts(storage.NewMem(), true, 0))
	if err != nil {
		t.Fatalf("resume with empty checkpoint volume: %v", err)
	}
	assertSameResult(t, "fresh resume", res, ref)
	if res.Metrics.Resumed != 0 {
		t.Fatalf("fresh run reports %d resumed iterations", res.Metrics.Resumed)
	}
	if res.Metrics.Checkpoints == 0 {
		t.Fatal("checkpointed run wrote no manifests")
	}
}

func TestResumeDoneManifestOnlyRecollects(t *testing.T) {
	vol, m := seededGraph(t, 22)
	ck := storage.NewMem()
	full, err := Run(vol, m.Name, ckOpts(ck, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	tr, iters := iterRecorder()
	opts := ckOpts(ck, true, 0)
	opts.Base.Tracer = tr
	res, err := Run(vol, m.Name, opts)
	tr.Close()
	if err != nil {
		t.Fatalf("resume of a finished run: %v", err)
	}
	assertSameResult(t, "done-manifest resume", res, full)
	if len(*iters) != 0 {
		t.Fatalf("resume of a finished run re-executed iterations %v", *iters)
	}
}

func TestResumeCorruptManifestFails(t *testing.T) {
	vol, m := seededGraph(t, 23)
	ck := storage.NewMem()
	if _, err := Run(vol, m.Name, ckOpts(ck, false, 2)); err != nil {
		t.Fatal(err)
	}

	// The manifest is the only file a run keeps on its checkpoint volume.
	files := ck.List()
	if len(files) != 1 {
		t.Fatalf("checkpoint volume holds %v, want the manifest alone", files)
	}
	corrupt := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		raw, err := storage.ReadAll(ck, files[0])
		if err != nil {
			t.Fatal(err)
		}
		w, err := ck.Create(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(mutate(append([]byte(nil), raw...))); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = Run(vol, m.Name, ckOpts(ck, true, 0))
		if !errors.Is(err, errs.ErrCorrupted) {
			t.Fatalf("resume from corrupt manifest: %v, want ErrCorrupted", err)
		}
	}

	t.Run("bit flip", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b })
	})
	t.Run("truncated", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:len(b)-3] })
	})
	t.Run("not framed", func(t *testing.T) {
		corrupt(t, func([]byte) []byte { return []byte("garbage, not a manifest") })
	})
	t.Run("bad version", func(t *testing.T) {
		corrupt(t, func([]byte) []byte { return graph.FrameAll([]byte(`{"version":99,"iteration":0,"parts":[{}]}`)) })
	})
}

func TestResumeMismatchedRunFails(t *testing.T) {
	vol, m := seededGraph(t, 24)
	ck := storage.NewMem()
	if _, err := Run(vol, m.Name, ckOpts(ck, false, 2)); err != nil {
		t.Fatal(err)
	}
	// Same volume and manifest, different file prefix: the manifest's
	// file names do not belong to this run and resume must refuse.
	opts := ckOpts(ck, true, 0)
	opts.Base.FilePrefix = "other"
	if _, err := Run(vol, m.Name, opts); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("resume under a different prefix: %v, want ErrCorrupted", err)
	}
	// A fresh volume holds the dataset but none of the working files the
	// manifest names: the checkpoint and working volumes diverged.
	vol2, _ := seededGraph(t, 24)
	if _, err := Run(vol2, m.Name, ckOpts(ck, true, 0)); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("resume against a volume missing the working files: %v, want ErrCorrupted", err)
	}
}

// TestCheckpointedAutoRecordsDirectionFallback: a checkpointed run cannot
// go bottom-up, so direction auto is pinned to top-down — and says so,
// the way a graph stored without its reverse-edge file does, in the
// metrics record and the direction_fallbacks counter.
func TestCheckpointedAutoRecordsDirectionFallback(t *testing.T) {
	for _, tc := range []struct {
		dir      xstream.Direction
		fallback bool
	}{{xstream.DirectionAuto, true}, {xstream.DirectionTopDown, false}} {
		vol, m := seededGraph(t, 25)
		col := &obs.Collect{}
		tr := obs.New(col)
		opts := ckOpts(storage.NewMem(), false, 0)
		opts.Base.Direction = tc.dir
		opts.Base.Tracer = tr
		res, err := Run(vol, m.Name, opts)
		tr.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.dir, err)
		}
		if res.Metrics.BottomUpIterations != 0 {
			t.Fatalf("%s: checkpointed run went bottom-up", tc.dir)
		}
		if res.Metrics.DirectionFallback != tc.fallback {
			t.Errorf("%s: DirectionFallback = %v, want %v", tc.dir, res.Metrics.DirectionFallback, tc.fallback)
		}
		want := int64(0)
		if tc.fallback {
			want = 1
		}
		if got := obs.Summarize(col.Events()).Counters[obs.CtrDirectionFallbacks]; got != want {
			t.Errorf("%s: direction_fallbacks counter = %d, want %d", tc.dir, got, want)
		}
	}
}
