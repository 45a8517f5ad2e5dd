package core

import (
	"context"
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
	"fastbfs/internal/stream"
	"fastbfs/internal/xstream"
)

// Checkpoint/resume tests: a run killed at an iteration boundary or in
// the middle of a stay write must, after resume, produce levels and
// parents byte-identical to an uninterrupted run — and must never re-run
// an iteration the manifest records as completed — in every direction,
// over both stored codecs.

// ckCase is one cell of the crash matrix.
type ckCase struct {
	dir   xstream.Direction
	codec graph.Codec
}

func (c ckCase) String() string { return fmt.Sprintf("%s/%s", c.dir, c.codec) }

func ckCases() []ckCase {
	var cs []ckCase
	for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto, xstream.DirectionBottomUp} {
		for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
			cs = append(cs, ckCase{dir, codec})
		}
	}
	return cs
}

// seededGraph stores one deterministic RMAT instance per seed, with its
// reverse-edge file, in codec.
func seededGraph(t *testing.T, seed int64, codec graph.Codec) (*storage.Mem, graph.Meta) {
	t.Helper()
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Codec: codec, Reverse: true}); err != nil {
		t.Fatal(err)
	}
	return vol, m
}

// ckOpts is the option set shared by every run in these tests; only the
// checkpoint fields and the iteration cap vary.
func ckOpts(c ckCase, ck storage.Volume, resume bool, maxIter int) Options {
	return Options{
		Base: xstream.Options{
			MemoryBudget:  4096,
			Partitions:    4,
			StreamBufSize: 256,
			MaxIterations: maxIter,
			Direction:     c.dir,
			Sim:           xstream.DefaultSim(),
		},
		CheckpointVol: ck,
		Resume:        resume,
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

// devBytes is what a run moved on its simulated devices.
func devBytes(r *Result) (n int64) {
	for _, d := range r.Metrics.Devices {
		n += d.BytesRead + d.BytesWritten
	}
	return n
}

// resumeBound is what a resume may move beyond the uninterrupted run: one
// read of the stored edge file and one write of the live edges (each at
// most the file), the logs written and read back and the vertex files
// written once (24 B a vertex) and, if the resumed run goes bottom-up, the
// reverse split redone (a read and a write of the .rev file).
func resumeBound(t *testing.T, vol storage.Volume, m graph.Meta, resumed *Result) int64 {
	t.Helper()
	stored, err := vol.Size(graph.EdgeFileName(m.Name))
	if err != nil {
		t.Fatal(err)
	}
	rev, err := vol.Size(graph.ReverseFileName(m.Name))
	if err != nil {
		t.Fatal(err)
	}
	bound := 2*stored + 24*int64(m.Vertices)
	if resumed.Metrics.BottomUpIterations > 0 {
		bound += 2 * rev
	}
	return bound
}

// assertOnlyLogsLeft checks what a finished checkpointed run leaves on its
// working volume: the dataset, and the level logs of iterations 0..last
// its manifest names, one per partition — no other working file.
func assertOnlyLogsLeft(t *testing.T, tag string, vol storage.Volume, m graph.Meta, last, parts int) {
	t.Helper()
	logs := 0
	for _, name := range vol.List() {
		switch {
		case strings.HasPrefix(name, m.Name+"."):
		case strings.HasPrefix(name, EngineName+"_won"):
			logs++
		default:
			t.Fatalf("%s: the run left working file %s", tag, name)
		}
	}
	if logs != (last+1)*parts {
		t.Fatalf("%s: %d level logs left, want %d", tag, logs, (last+1)*parts)
	}
}

// TestCrashMatrixBoundaryKills kills a run (via the MaxIterations cap,
// which exits the loop exactly where a process death at an iteration
// boundary would) at every boundary in turn, resumes it, and requires
// byte-identical trees — trimming by the edge counts (which a resume
// recounts: every prediction after it must still be exact), with the
// update filter off, and at every scatter as the paper does. A resumed
// run holds every folded vertex as claimed, so where both runs go
// top-down it must gather, filter, discover and skip what the
// uninterrupted run does, row for row. What the partial and resumed runs
// move together beyond the uninterrupted one stays within resumeBound. An
// uninterrupted checkpointed run switches direction where an unchecked one
// does and never reports a fallback.
func TestCrashMatrixBoundaryKills(t *testing.T) {
	type variant struct {
		name      string
		trimStart int
		noFilter  bool
	}
	variants := []variant{{"counts", 0, false}, {"counts, filter off", 0, true}, {"every scatter", TrimEveryIteration, false}}
	switched, worst, worstTag := 0, 0.0, ""
	for _, c := range ckCases() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, v := range variants {
				opts := func(ck storage.Volume, resume bool, maxIter int) Options {
					o := ckOpts(c, ck, resume, maxIter)
					o.TrimStartIteration = v.trimStart
					o.Base.DisableUpdateFilter = v.noFilter
					return o
				}
				tag := fmt.Sprintf("%s, seed %d, %s", c, seed, v.name)
				refVol, m := seededGraph(t, seed, c.codec)
				ref, err := Run(refVol, m.Name, opts(nil, false, 0))
				if err != nil {
					t.Fatalf("%s: reference: %v", tag, err)
				}
				want := ref.Metrics.Iterations
				if c.dir == xstream.DirectionAuto && ref.Metrics.SwitchIteration >= 0 {
					switched++
				}

				vol, _ := seededGraph(t, seed, c.codec)
				full, err := Run(vol, m.Name, opts(storage.NewMem(), false, 0))
				if err != nil {
					t.Fatalf("%s: checkpointed run: %v", tag, err)
				}
				assertSameResult(t, tag+", checkpointed", full, ref)
				if full.Metrics.DirectionFallback || full.Metrics.SwitchIteration != ref.Metrics.SwitchIteration {
					t.Fatalf("%s: checkpointed run switched at %d (fallback %v), unchecked at %d",
						tag, full.Metrics.SwitchIteration, full.Metrics.DirectionFallback, ref.Metrics.SwitchIteration)
				}

				for killIter := 1; killIter < len(want); killIter++ {
					tag := fmt.Sprintf("%s, kill %d", tag, killIter)
					vol, _ := seededGraph(t, seed, c.codec)
					ck := storage.NewMem()
					partial, err := Run(vol, m.Name, opts(ck, false, killIter))
					if err != nil {
						t.Fatalf("%s: partial run: %v", tag, err)
					}
					if partial.Metrics.Checkpoints != killIter {
						t.Fatalf("%s: %d checkpoints after %d iterations", tag, partial.Metrics.Checkpoints, killIter)
					}
					tr, iters := iterRecorder()
					o := opts(ck, true, 0)
					o.Base.Tracer = tr
					resumed, err := Run(vol, m.Name, o)
					tr.Close()
					if err != nil {
						t.Fatalf("%s: resume: %v", tag, err)
					}
					assertSameResult(t, tag, resumed, ref)
					checkTrimRows(t, tag, resumed, v.trimStart == 0)
					extra := devBytes(partial) + devBytes(resumed) - devBytes(ref)
					bound := resumeBound(t, vol, m, resumed)
					if extra > bound {
						t.Fatalf("%s: partial and resumed runs moved %d device bytes beyond the uninterrupted run, bound %d", tag, extra, bound)
					}
					if r := float64(extra) / float64(bound); r > worst {
						worst, worstTag = r, fmt.Sprintf("%s: %d bytes of %d", tag, extra, bound)
					}
					if resumed.Metrics.Resumed != killIter || resumed.Metrics.DirectionFallback {
						t.Fatalf("%s: resumed=%d (fallback %v), want %d", tag, resumed.Metrics.Resumed, resumed.Metrics.DirectionFallback, killIter)
					}
					// The trace proves no completed iteration was re-run: the
					// resumed run's iteration spans start at the manifest's successor.
					if len(*iters) == 0 || slices.Min(*iters) != killIter {
						t.Fatalf("%s: resumed run executed iterations %v, want to start at %d", tag, *iters, killIter)
					}
					// A resumed run re-enters the stored phase, if any, with β's
					// stored price and the split rule's excess reads restarted:
					// its later direction choices, and so where a run with the
					// filter off ends, may differ from the uninterrupted run's.
					// Top-down, the rows match, bar where only one run is stored.
					got := resumed.Metrics.Iterations
					assertOnlyLogsLeft(t, tag, vol, m, killIter+len(got)-1, 4)
					if c.dir != xstream.DirectionTopDown {
						continue
					}
					if killIter+len(got) != len(want) {
						t.Fatalf("%s: %d iterations, want %d", tag, killIter+len(got), len(want))
					}
					for i, g := range got {
						w := want[killIter+i]
						if v.noFilter || w.Stored || g.Stored {
							continue
						}
						if g.Updates != w.Updates || g.Filtered != w.Filtered || g.NewlyVisited != w.NewlyVisited ||
							g.Frontier != w.Frontier || g.SkippedPartitions != w.SkippedPartitions {
							t.Fatalf("%s: iteration %d after resume %+v, uninterrupted %+v", tag, w.Index, g, w)
						}
					}
				}
			}
		}
	}
	if switched == 0 {
		t.Fatal("no auto run in the matrix switched bottom-up")
	}
	t.Logf("largest resume overhead, %.0f%% of its bound: %s", 100*worst, worstTag)
}

// TestCrashMatrixCappedResumeOnlyCollects: over direction × codec ×
// reorder, a run checkpointed at every cap (the last one lets it finish)
// is resumed under every cap and none. A resume under a lower cap than the
// checkpoint's is refused with errs.ErrBadOptions and leaves the working
// volume and the manifest as they were, so a resume with no cap still
// answers like the uncapped run. Every other resume answers like the fresh
// run under its cap — levels, parents, Visited, and a tree that reaches
// exactly Visited vertices — and one under the checkpoint's own cap
// re-executes nothing: a capped run's last iteration logs a level it never
// forms, which only a run that goes on folds.
func TestCrashMatrixCappedResumeOnlyCollects(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ckCases() {
		for _, reorder := range []bool{false, true} {
			stored := func() *storage.Mem {
				vol := storage.NewMem()
				if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Codec: c.codec, Reverse: true, ReorderByDegree: reorder}); err != nil {
					t.Fatal(err)
				}
				return vol
			}
			refVol := stored()
			fresh := []*Result{nil} // fresh[k]: the run under cap k, 0 none
			full, err := Run(refVol, m.Name, ckOpts(c, nil, false, 0))
			if err != nil {
				t.Fatal(err)
			}
			n := len(full.Metrics.Iterations)
			for k := 1; k <= n; k++ {
				want, err := Run(refVol, m.Name, ckOpts(c, nil, false, k))
				if err != nil {
					t.Fatal(err)
				}
				fresh = append(fresh, want)
			}
			fresh[0] = full
			for ckCap := 1; ckCap <= n; ckCap++ {
				for resCap := 0; resCap <= n; resCap++ {
					tag := fmt.Sprintf("%s reorder=%v, checkpoint cap %d, resume cap %d", c, reorder, ckCap, resCap)
					vol, ck := stored(), storage.NewMem()
					if _, err := Run(vol, m.Name, ckOpts(c, ck, false, ckCap)); err != nil {
						t.Fatalf("%s: capped run: %v", tag, err)
					}
					files, manifest := vol.List(), ck.List()
					tr, iters := iterRecorder()
					o := ckOpts(c, ck, true, resCap)
					o.Base.Tracer = tr
					resumed, err := Run(vol, m.Name, o)
					tr.Close()
					if resCap != 0 && resCap < ckCap {
						if !errors.Is(err, errs.ErrBadOptions) {
							t.Fatalf("%s: resume under a lower cap: err = %v, want ErrBadOptions", tag, err)
						}
						if !slices.Equal(vol.List(), files) || !slices.Equal(ck.List(), manifest) {
							t.Fatalf("%s: the refused resume changed the volumes: %v -> %v, %v -> %v", tag, files, vol.List(), manifest, ck.List())
						}
						resumed, err = Run(vol, m.Name, ckOpts(c, ck, true, 0))
						if err != nil {
							t.Fatalf("%s: resume with no cap after the refusal: %v", tag, err)
						}
						assertSameResult(t, tag+", resumed with no cap after the refusal", resumed, full)
						continue
					}
					if err != nil {
						t.Fatalf("%s: resume: %v", tag, err)
					}
					assertSameResult(t, tag, resumed, fresh[resCap])
					var reached uint64
					for _, l := range resumed.Levels {
						if l != xstream.NoLevel {
							reached++
						}
					}
					if reached != resumed.Visited || resCap == ckCap && len(*iters) != 0 {
						t.Fatalf("%s: resume executed iterations %v and its tree reaches %d vertices, Visited %d",
							tag, *iters, reached, resumed.Visited)
					}
				}
			}
		}
	}
}

// TestResumeRebuildsUpdateFilter kills a top-down run at every iteration
// boundary in turn — the last one included, where a resumed run that
// forgot which destinations were already claimed would shuffle dead
// updates and take an iteration more — and requires the resumed run to
// gather, filter, discover and skip exactly what the uninterrupted run
// does in every row, with the update filter on and off. Both runs trim at
// every scatter, so neither has a stored phase whose rows could differ.
func TestResumeRebuildsUpdateFilter(t *testing.T) {
	c := ckCase{xstream.DirectionTopDown, graph.CodecFixed}
	for _, noFilter := range []bool{false, true} {
		opts := func(ck storage.Volume, resume bool, maxIter int) Options {
			o := ckOpts(c, ck, resume, maxIter)
			o.TrimStartIteration = TrimEveryIteration
			o.Base.DisableUpdateFilter = noFilter
			return o
		}
		var filtered int64
		for seed := int64(1); seed <= 4; seed++ {
			refVol, m := seededGraph(t, seed, c.codec)
			ref, err := Run(refVol, m.Name, opts(nil, false, 0))
			if err != nil {
				t.Fatalf("seed %d: reference: %v", seed, err)
			}
			filtered += ref.Metrics.UpdatesFiltered()
			want := ref.Metrics.Iterations
			for killIter := 1; killIter < len(want); killIter++ {
				tag := fmt.Sprintf("seed %d kill %d (filter off = %v)", seed, killIter, noFilter)
				vol, _ := seededGraph(t, seed, c.codec)
				ck := storage.NewMem()
				if _, err := Run(vol, m.Name, opts(ck, false, killIter)); err != nil {
					t.Fatalf("%s: partial run: %v", tag, err)
				}
				resumed, err := Run(vol, m.Name, opts(ck, true, 0))
				if err != nil {
					t.Fatalf("%s: resume: %v", tag, err)
				}
				assertSameResult(t, tag, resumed, ref)
				got := resumed.Metrics.Iterations
				if killIter+len(got) != len(want) {
					t.Fatalf("%s: %d iterations after resume, want %d", tag, killIter+len(got), len(want))
				}
				for i, g := range got {
					w := want[killIter+i]
					if g.Updates != w.Updates || g.Filtered != w.Filtered || g.NewlyVisited != w.NewlyVisited ||
						g.Frontier != w.Frontier || g.SkippedPartitions != w.SkippedPartitions {
						t.Fatalf("%s: iteration %d after resume %+v, uninterrupted %+v", tag, w.Index, g, w)
					}
				}
			}
		}
		if (filtered == 0) != noFilter {
			t.Fatalf("filter off = %v, yet the reference runs filtered %d updates", noFilter, filtered)
		}
	}
}

// TestCheckpointedAutoRecordsDirectionFallback: checkpointing no longer
// pins direction auto, so a checkpointed auto run — fresh or resumed —
// records a direction fallback exactly when an unchecked one does: when
// the graph was stored without its reverse-edge file.
func TestCheckpointedAutoRecordsDirectionFallback(t *testing.T) {
	c := ckCase{xstream.DirectionAuto, graph.CodecFixed}
	for _, reverse := range []bool{true, false} {
		m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 25)
		if err != nil {
			t.Fatal(err)
		}
		stored := func() *storage.Mem {
			vol := storage.NewMem()
			if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Codec: c.codec, Reverse: reverse}); err != nil {
				t.Fatal(err)
			}
			return vol
		}
		run := func(tag string, vol storage.Volume, opts Options) *Result {
			t.Helper()
			res, err := Run(vol, m.Name, opts)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if res.Metrics.DirectionFallback == reverse {
				t.Errorf("%s: DirectionFallback = %v with reverse file %v", tag, res.Metrics.DirectionFallback, reverse)
			}
			return res
		}
		tag := fmt.Sprintf("reverse file %v", reverse)
		ref := run(tag+", unchecked", stored(), ckOpts(c, nil, false, 0))
		full := run(tag+", checkpointed", stored(), ckOpts(c, storage.NewMem(), false, 0))
		assertSameResult(t, tag+", checkpointed", full, ref)
		if full.Metrics.SwitchIteration != ref.Metrics.SwitchIteration {
			t.Fatalf("%s: checkpointed run switched at %d, unchecked at %d", tag, full.Metrics.SwitchIteration, ref.Metrics.SwitchIteration)
		}
		if (full.Metrics.BottomUpIterations > 0) != reverse {
			t.Fatalf("%s: checkpointed run went bottom-up for %d iterations", tag, full.Metrics.BottomUpIterations)
		}

		vol, ck := stored(), storage.NewMem()
		if _, err := Run(vol, m.Name, ckOpts(c, ck, false, 1)); err != nil {
			t.Fatalf("%s: partial run: %v", tag, err)
		}
		resumed := run(tag+", resumed", vol, ckOpts(c, ck, true, 0))
		assertSameResult(t, tag+", resumed", resumed, ref)
	}
}

// TestCrashMatrixMidStayWriteKills kills the run from inside a stay write
// (the hook cancels the run's context, which the engine observes
// mid-iteration), then resumes. The pending stay file lost to the crash is
// the grace-and-cancel path, so the resumed result must still be
// byte-identical. The loop doubles as a goroutine- and file-leak check
// over the abort path.
func TestCrashMatrixMidStayWriteKills(t *testing.T) {
	warm, wm := seededGraph(t, 100, graph.CodecFixed)
	if _, err := Run(warm, wm.Name, ckOpts(ckCases()[0], nil, false, 0)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	killed := 0
	for _, c := range ckCases() {
		for seed := int64(101); seed <= 104; seed++ {
			tag := fmt.Sprintf("%s, seed %d", c, seed)
			// Half the matrix trims at every scatter, as the paper does: the
			// stay writes this test kills from are its subject, and a run that
			// trims by the edge counts makes few.
			trimStart := 0
			if seed%2 == 1 {
				trimStart = TrimEveryIteration
			}
			ck := storage.NewMem()
			opts := func(resume bool) Options {
				o := ckOpts(c, ck, resume, 0)
				o.TrimStartIteration = trimStart
				return o
			}
			refVol, m := seededGraph(t, seed, c.codec)
			ref, err := Run(refVol, m.Name, opts(false))
			if err != nil {
				t.Fatalf("%s: reference: %v", tag, err)
			}

			vol, _ := seededGraph(t, seed, c.codec)
			ctx, cancel := context.WithCancel(context.Background())
			var stayWrites atomic.Int64
			killAfter := 1 + seed%5
			vol.FailWrites(func(name string, written int64) error {
				if strings.Contains(name, "stay") && stayWrites.Add(1) >= killAfter {
					cancel()
				}
				return nil
			})
			_, err = RunContext(ctx, vol, m.Name, opts(false))
			vol.FailWrites(nil)
			cancel()
			if err != nil {
				if !errors.Is(err, errs.ErrCancelled) && !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: killed run died with %v, want cancellation", tag, err)
				}
				killed++
			}

			resumed, err := Run(vol, m.Name, opts(true))
			if err != nil {
				t.Fatalf("%s: resume after mid-write kill: %v", tag, err)
			}
			assertSameResult(t, tag, resumed, ref)
			checkTrimRows(t, tag, resumed, trimStart == 0)
			assertOnlyLogsLeft(t, tag, vol, m, resumed.Metrics.Resumed+len(resumed.Metrics.Iterations)-1, 4)
		}
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
	c := ckCases()[0]
	refVol, m := seededGraph(t, 21, c.codec)
	ref, err := Run(refVol, m.Name, ckOpts(c, nil, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	vol, _ := seededGraph(t, 21, c.codec)
	res, err := Run(vol, m.Name, ckOpts(c, storage.NewMem(), true, 0))
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
	c := ckCases()[0]
	vol, m := seededGraph(t, 22, c.codec)
	ck := storage.NewMem()
	full, err := Run(vol, m.Name, ckOpts(c, ck, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	tr, iters := iterRecorder()
	opts := ckOpts(c, ck, true, 0)
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
	c := ckCases()[0]
	vol, m := seededGraph(t, 23, c.codec)
	ck := storage.NewMem()
	if _, err := Run(vol, m.Name, ckOpts(c, ck, false, 2)); err != nil {
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
		_, err = Run(vol, m.Name, ckOpts(c, ck, true, 0))
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
		// A manifest of the old schema, which named working files: resume
		// never guesses at one.
		corrupt(t, func([]byte) []byte { return graph.FrameAll([]byte(`{"version":1,"iteration":0,"parts":[{}]}`)) })
	})
}

// TestResumeRejectsParentPastTheGraph: a checkpoint's logs are read back
// from disk, so a log record whose parent is not a vertex of the graph
// fails the resume as ErrCorrupted, on a reordered store too, where the
// answer's translation would otherwise index past the permutation.
func TestResumeRejectsParentPastTheGraph(t *testing.T) {
	for _, so := range []graph.StoreOptions{{Reverse: true}, {Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}} {
		c := ckCase{xstream.DirectionTopDown, so.Codec}
		vol := storage.NewMem()
		m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 25)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.StoreGraph(vol, m, edges, so); err != nil {
			t.Fatal(err)
		}
		ck := storage.NewMem()
		if _, err := Run(vol, m.Name, ckOpts(c, ck, false, 2)); err != nil {
			t.Fatal(err)
		}
		// Rewrite the first non-empty level log with its first record's
		// parent past the last vertex.
		var bad string
		for _, f := range vol.List() {
			if !strings.HasPrefix(f, EngineName+"_won") {
				continue
			}
			sc, err := stream.NewUpdateScanner(vol, f, stream.Timing{}, 256)
			if err != nil {
				t.Fatal(err)
			}
			var ups []graph.Update
			chunk := make([]graph.Update, 64)
			for {
				n, err := sc.NextChunk(chunk)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				ups = append(ups, chunk[:n]...)
			}
			sc.Close()
			if len(ups) == 0 {
				continue
			}
			ups[0].Parent = graph.VertexID(m.Vertices) + 5
			w, err := stream.NewCodecEdgeWriter(vol, f, stream.Timing{}, 256, graph.CodecDelta)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range ups {
				if err := w.Append(graph.Edge{Src: u.Dst, Dst: u.Parent}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			bad = f
			break
		}
		if bad == "" {
			t.Fatalf("%v: the capped run left no non-empty level log", so)
		}
		if _, err := Run(vol, m.Name, ckOpts(c, ck, true, 0)); !errors.Is(err, errs.ErrCorrupted) {
			t.Fatalf("%v: resume with a parent past the graph in %s: %v, want ErrCorrupted", so, bad, err)
		}
	}
}

func TestResumeMismatchedRunFails(t *testing.T) {
	c := ckCases()[0]
	vol, m := seededGraph(t, 24, c.codec)
	ck := storage.NewMem()
	if _, err := Run(vol, m.Name, ckOpts(c, ck, false, 2)); err != nil {
		t.Fatal(err)
	}
	// Same volume and manifest, different file prefix or root: the
	// manifest's logs are not this run's levels and resume must refuse.
	opts := ckOpts(c, ck, true, 0)
	opts.Base.FilePrefix = "other"
	if _, err := Run(vol, m.Name, opts); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("resume under a different prefix: %v, want ErrCorrupted", err)
	}
	opts = ckOpts(c, ck, true, 0)
	opts.Base.Root = 1
	if _, err := Run(vol, m.Name, opts); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("resume from a different root: %v, want ErrCorrupted", err)
	}
	// A fresh volume holds the dataset but none of the logs the manifest
	// names: the checkpoint and working volumes diverged.
	vol2, _ := seededGraph(t, 24, c.codec)
	if _, err := Run(vol2, m.Name, ckOpts(c, ck, true, 0)); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("resume against a volume missing the logs: %v, want ErrCorrupted", err)
	}
}
