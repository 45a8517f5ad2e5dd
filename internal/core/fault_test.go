package core

import (
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
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Fault-injection tests: storage failures must surface as errors from
// Run — never panics, never silently wrong results — and the engine must
// not leak working files beyond what the failure interrupted.

func storedGraph(t *testing.T) (*storage.Mem, graph.Meta) {
	t.Helper()
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	return vol, m
}

// updateSet names a run's update files, the per-query working files every
// top-down scatter writes and the next gather reads. The paper's static
// trim threshold (TrimEveryIteration) makes the run split up front, so
// that every iteration has them (DESIGN.md §5).
const updateSet = EngineName + "_upd"

func TestRunSurfacesUpdateWriteFailure(t *testing.T) {
	vol, m := storedGraph(t)
	boom := errors.New("update disk full")
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, updateSet) {
			return boom
		}
		return nil
	})
	_, err := Run(vol, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()},
		TrimStartIteration: TrimEveryIteration})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

// TestRunSurfacesVertexWriteFailure: the paper pin keeps vertex files.
func TestRunSurfacesVertexWriteFailure(t *testing.T) {
	vol, m := storedGraph(t)
	boom := errors.New("vertex disk full")
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_vtx_") {
			return boom
		}
		return nil
	})
	_, err := Run(vol, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()},
		TrimStartIteration: TrimEveryIteration})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

func TestRunSurvivesStayWriteFailure(t *testing.T) {
	// A failing stay write must NOT fail the run: the stay file is an
	// optimization; the engine falls back to the previous input, exactly
	// like a cancellation.
	vol, m := storedGraph(t)
	boom := errors.New("stay disk full")
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_stay") {
			return boom
		}
		return nil
	})
	res, err := Run(vol, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}})
	if err != nil {
		t.Fatalf("stay-write failure killed the run: %v", err)
	}
	// Must match a healthy run's result.
	vol2, _ := storedGraph(t)
	want, err := Run(vol2, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != want.Visited {
		t.Fatalf("visited %d after stay failures, want %d", res.Visited, want.Visited)
	}
	if res.Metrics.Cancellations == 0 {
		t.Fatal("failed stay writes should be recorded as cancellations")
	}
	checkTrimRows(t, "failing stay writes", res, true) // a lost stay file leaves the counts right
}

func TestRunSurfacesPrepareFailure(t *testing.T) {
	vol, m := storedGraph(t)
	boom := errors.New("no space at all")
	vol.FailWrites(func(name string, written int64) error { return boom })
	_, err := Run(vol, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, Sim: xstream.DefaultSim()}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	// Only the dataset survives; no half-written working files.
	for _, f := range vol.List() {
		if f != graph.EdgeFileName(m.Name) && f != graph.ConfFileName(m.Name) && f != graph.ReverseFileName(m.Name) && f != graph.ReverseIndexFileName(m.Name) && f != graph.IndexFileName(m.Name) {
			t.Errorf("leftover file %s after failed run", f)
		}
	}
}

func TestParallelScatterFaultAbortsCleanly(t *testing.T) {
	// An update-stream write failing mid-scatter with many workers in
	// flight must surface exactly one error from Run (the injected one,
	// not a panic or a secondary error masking it), abort every shard,
	// and leak no goroutines — the pool joins its workers even on the
	// error path, and the stay writer shuts down behind it.
	warm, wm := storedGraph(t)
	if _, err := Run(warm, wm.Name, Options{Base: xstream.Options{
		MemoryBudget: 4096, StreamBufSize: 256, ScatterWorkers: 8, Sim: xstream.DefaultSim(),
	}}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	boom := errors.New("update disk full mid-scatter")
	for i := 0; i < 10; i++ {
		vol, m := storedGraph(t)
		var updWrites atomic.Int64
		vol.FailWrites(func(name string, written int64) error {
			// Fail partway into an update stream, once several chunks of
			// shards are already merged and more are in flight. The call
			// count covers wrapped volumes (the FASTBFS_FAULTS chaos cell)
			// that batch a file into one write at publish time, where the
			// offset never advances past the first chunk.
			if strings.Contains(name, updateSet) && (written >= 512 || updWrites.Add(1) >= 2) {
				return boom
			}
			return nil
		})
		_, err := Run(vol, m.Name, Options{Base: xstream.Options{
			MemoryBudget: 4096, StreamBufSize: 256, ScatterWorkers: 8, Sim: xstream.DefaultSim(),
		}, TrimStartIteration: TrimEveryIteration})
		if !errors.Is(err, boom) {
			t.Fatalf("run %d: err = %v, want the injected fault", i, err)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across 10 aborted parallel runs", before, after)
	}
}

func TestParallelScatterSurvivesStayFaults(t *testing.T) {
	// Stay-write failures with multiple scatter workers: still not fatal
	// (the shard merge feeds the stay file on the engine thread; its
	// failure downgrades to a cancellation exactly as in serial mode).
	vol, m := storedGraph(t)
	boom := errors.New("stay disk full")
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_stay") {
			return boom
		}
		return nil
	})
	opts := Options{Base: xstream.Options{
		MemoryBudget: 4096, StreamBufSize: 256, ScatterWorkers: 8, Sim: xstream.DefaultSim(),
	}}
	res, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatalf("stay-write failure killed the parallel run: %v", err)
	}
	vol2, _ := storedGraph(t)
	want, err := Run(vol2, m.Name, Options{Base: xstream.Options{
		MemoryBudget: 4096, StreamBufSize: 256, ScatterWorkers: 8, Sim: xstream.DefaultSim(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != want.Visited {
		t.Fatalf("visited %d after stay failures, want %d", res.Visited, want.Visited)
	}
	if res.Metrics.Cancellations == 0 {
		t.Fatal("failed stay writes should be recorded as cancellations")
	}
	checkTrimRows(t, "failing stay writes", res, true) // a lost stay file leaves the counts right
}

func TestRunSurfacesGatherReadFailure(t *testing.T) {
	// Gather-side fault point: a permanent read fault on an update stream
	// (a dead sector under the gather's input) must fail the run with
	// ErrIOFailed — retrying is pointless — and leak no goroutines even
	// though the failure lands between a partition's gather and its
	// scatter with prefetches in flight.
	warm, wm := storedGraph(t)
	if _, err := Run(warm, wm.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		vol, m := storedGraph(t)
		faulty := storage.NewFaulty(vol, storage.FaultSpec{Seed: uint64(i + 1), PReadP: 1, Match: updateSet})
		_, err := Run(faulty, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()},
			TrimStartIteration: TrimEveryIteration})
		if !errors.Is(err, errs.ErrIOFailed) {
			t.Fatalf("run %d: err = %v, want ErrIOFailed", i, err)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across gather-fault runs", before, after)
	}
}

func TestRunByteIdenticalUnderTransientFaults(t *testing.T) {
	// The PR's acceptance criterion: transient read+write faults at
	// p=0.05 over the whole volume must leave the BFS result
	// byte-identical to the fault-free run, with the retries visible in
	// the run metrics, zero failures past the (deepened) budget, no
	// leaked goroutines and no leaked working files.
	opts := func() Options {
		return Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}}
	}
	refVol, m := storedGraph(t)
	want, err := Run(refVol, m.Name, opts())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	// With the update filter and without it: retried writes must neither
	// lose nor double a claimed update.
	for _, noFilter := range []bool{false, true} {
		vol, _ := storedGraph(t)
		faulty := storage.NewFaulty(vol, storage.FaultSpec{Seed: 42, ReadP: 0.05, WriteP: 0.05})
		o := opts()
		o.Base.DisableUpdateFilter = noFilter
		// p=0.05 makes a default-budget exhaustion (p^4 per op) just likely
		// enough to flake over a whole run; 12 attempts puts it at p^12.
		o.Base.RetryAttempts = 12
		res, err := Run(faulty, m.Name, o)
		if err != nil {
			t.Fatalf("run under transient faults: %v", err)
		}
		if res.Visited != want.Visited {
			t.Fatalf("visited %d under faults, want %d", res.Visited, want.Visited)
		}
		if !slices.Equal(res.Levels, want.Levels) || !slices.Equal(res.Parents, want.Parents) {
			t.Fatalf("result not byte-identical to the fault-free run (filter off = %v)", noFilter)
		}
		if res.Metrics.IORetries == 0 {
			t.Fatal("no retries recorded under p=0.05 fault injection")
		}
		if res.Metrics.IOFailures != 0 {
			t.Fatalf("%d I/O failures leaked past the retry budget", res.Metrics.IOFailures)
		}
		checkTrimRows(t, "transient faults", res, true)
		// Zero file leaks: only the stored dataset survives the run.
		for _, f := range vol.List() {
			if f != graph.EdgeFileName(m.Name) && f != graph.ConfFileName(m.Name) && f != graph.ReverseFileName(m.Name) && f != graph.ReverseIndexFileName(m.Name) && f != graph.IndexFileName(m.Name) {
				t.Errorf("leftover working file %s", f)
			}
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across the faulted run", before, after)
	}
}

// TestCorruptAdoptedStayFallsBack drives the corrupt-adopted-stay path
// end to end: background stay writes are torn or bit-flipped at
// publication, the next scatter adopts the file, shuffles the updates of
// its readable prefix — claiming their destinations in the update filter
// — hits the bad frame and re-scatters the wider input it kept as a
// fallback. The tree must equal the fault-free run's with the filter on
// (the prefix's claims are the re-scatter's own first updates) and off
// (the first-wins gather absorbs the repeats), with nothing leaked.
func TestCorruptAdoptedStayFallsBack(t *testing.T) {
	opts := func(trimStart int) Options {
		// The store is fixed-width, so each stay file spans many frames and
		// a fault usually leaves a readable prefix (a delta stay file here
		// is a frame or two).
		return Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()},
			TrimStartIteration: trimStart}
	}
	refVol, m := storedGraph(t)
	want, err := Run(refVol, m.Name, opts(TrimEveryIteration))
	if err != nil {
		t.Fatal(err)
	}
	if want.Metrics.StayCorruptions != 0 {
		t.Fatalf("fault-free run reports %d corrupt stay files", want.Metrics.StayCorruptions)
	}
	// emitted totals every update a run's scatters generated: the ones its
	// gathers applied plus the ones filtered. A failed scatter attempt
	// whose readable prefix reached the shuffler adds to it.
	emitted := func(res *Result) int64 {
		n := res.Metrics.UpdatesFiltered()
		for _, it := range res.Metrics.Iterations {
			n += it.Updates
		}
		return n
	}
	before := runtime.NumGoroutine()
	for _, fault := range []storage.FaultSpec{
		{TornP: 0.5, Match: "_stay"},
		{FlipP: 0.5, Match: "_stay"},
	} {
		for _, noFilter := range []bool{false, true} {
			var corruptions, prefixes, counted int
			for seed := uint64(1); seed <= 8; seed++ {
				vol, _ := storedGraph(t)
				fault.Seed = seed
				// Every scatter trims, so a corrupt stay file is still
				// mid-frontier when it is adopted and its readable prefix has
				// updates to shuffle.
				o := opts(TrimEveryIteration)
				o.Base.DisableUpdateFilter = noFilter
				o.Base.ScatterWorkers = 1 + int(seed)%4
				res, err := Run(storage.NewFaulty(vol, fault), m.Name, o)
				label := fmt.Sprintf("%+v, filter off = %v", fault, noFilter)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Visited != want.Visited || !slices.Equal(res.Levels, want.Levels) || !slices.Equal(res.Parents, want.Parents) {
					t.Fatalf("%s: tree differs from the fault-free run after %d stay corruptions", label, res.Metrics.StayCorruptions)
				}
				// Trimming by the edge counts, a fallback restores the older
				// input's count with its name: same tree, every prediction exact.
				o.TrimStartIteration = 0
				model, err := Run(storage.NewFaulty(vol, fault), m.Name, o)
				if err != nil {
					t.Fatalf("%s, trimming by the counts: %v", label, err)
				}
				assertSameResult(t, label+", trimming by the counts", model, want)
				checkTrimRows(t, label, model, true)
				counted += model.Metrics.StayCorruptions
				corruptions += res.Metrics.StayCorruptions
				if emitted(res) > emitted(want) {
					prefixes++
				}
				for _, f := range vol.List() {
					if f != graph.EdgeFileName(m.Name) && f != graph.ConfFileName(m.Name) && f != graph.ReverseFileName(m.Name) && f != graph.ReverseIndexFileName(m.Name) && f != graph.IndexFileName(m.Name) {
						t.Errorf("%s: leftover working file %s", label, f)
					}
				}
			}
			if corruptions == 0 || prefixes == 0 || counted == 0 {
				t.Fatalf("%+v, filter off = %v: %d stay corruptions (%d trimming by the counts), %d runs shuffled a corrupt file's prefix; the fallback went untested",
					fault, noFilter, corruptions, counted, prefixes)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across the corrupted runs", before, after)
	}
}

func TestXStreamSurfacesWriteFailureToo(t *testing.T) {
	vol, m := storedGraph(t)
	boom := errors.New("boom")
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_upd") {
			return boom
		}
		return nil
	})
	_, err := xstream.Run(vol, m.Name, xstream.Options{MemoryBudget: 4096, Sim: xstream.DefaultSim()})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

func TestWallModeCancellationViaSlowWriter(t *testing.T) {
	// Wall-clock mode: delay the real stay-writer goroutine so TryUse
	// times out, exercising the real-time cancellation path end-to-end.
	vol, m := storedGraph(t)
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_stay") {
			// Slow, not failing: the hook runs on the writer goroutine.
			time.Sleep(3 * time.Millisecond)
		}
		return nil
	})
	opts := Options{
		Base:        xstream.Options{MemoryBudget: 4096, StreamBufSize: 256},
		GracePeriod: 1e-9, // a nanosecond: effectively immediate timeout
	}
	res, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	vol2, _ := storedGraph(t)
	want, err := Run(vol2, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != want.Visited {
		t.Fatalf("visited %d with slow stay writer, want %d", res.Visited, want.Visited)
	}
	if res.Metrics.Cancellations == 0 {
		t.Fatal("expected wall-mode cancellations with a slow stay writer and ~zero grace")
	}
	checkTrimRows(t, "cancelled stay writes", res, true) // a cancel keeps the old input and its count
}
