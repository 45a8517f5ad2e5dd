package core

import (
	"bytes"
	"cmp"
	"fmt"
	"strings"
	"sync"
	"testing"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// recordingVolume snapshots the final bytes of every update and stay
// file at publication (Close) time, keyed by file name in per-name
// publication order — update-set names are reused every other iteration
// and stay names every other trim round, so each name's sequence is its
// per-iteration history.
type recordingVolume struct {
	storage.Volume
	mu  sync.Mutex
	log map[string][][]byte
	// all widens the log from update and stay files to every file.
	all bool
}

func newRecordingVolume(v storage.Volume) *recordingVolume {
	return &recordingVolume{Volume: v, log: make(map[string][][]byte)}
}

func (rv *recordingVolume) Create(name string) (storage.Writer, error) {
	w, err := rv.Volume.Create(name)
	if err != nil {
		return nil, err
	}
	return &recordingWriter{rv: rv, name: name, w: w}, nil
}

type recordingWriter struct {
	rv   *recordingVolume
	name string
	w    storage.Writer
	buf  []byte
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.buf = append(w.buf, p[:n]...)
	return n, err
}

func (w *recordingWriter) Close() error {
	err := w.w.Close()
	if err == nil && (w.rv.all || strings.Contains(w.name, "_upd") || strings.Contains(w.name, "_stay")) {
		// Stay files publish on the stay-writer goroutine; lock.
		w.rv.mu.Lock()
		w.rv.log[w.name] = append(w.rv.log[w.name], w.buf)
		w.rv.mu.Unlock()
	}
	return err
}

func (w *recordingWriter) Abort() error { return w.w.Abort() }

// runRecorded runs FastBFS with the given worker count on a fresh copy
// of the graph and returns the file log and result.
func runRecorded(t *testing.T, workers int) (*recordingVolume, *Result) {
	t.Helper()
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	rv := newRecordingVolume(vol)
	res, err := Run(rv, m.Name, Options{
		Base: xstream.Options{
			Root: 1, MemoryBudget: 8192, StreamBufSize: 512,
			ScatterWorkers: workers, Sim: xstream.DefaultSim(),
		},
		// A grace period longer than any run means every stay file is
		// adopted: adopt-vs-cancel decisions depend only on simulated
		// time, never on real-time races, so the file log is exact.
		GracePeriod: 1e9,
		// And every scatter trims, so the log holds a stay file per
		// partition and iteration, not only the few that pay.
		TrimStartIteration: TrimEveryIteration,
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return rv, res
}

// TestScatterWorkerCountIsByteDeterministic is the tentpole's contract:
// every update file and every stay file of every iteration is
// byte-identical between a serial run and an 8-worker run, and so is
// the whole metrics record including simulated execution time.
func TestScatterWorkerCountIsByteDeterministic(t *testing.T) {
	rv1, res1 := runRecorded(t, 1)
	rv8, res8 := runRecorded(t, 8)

	if len(rv1.log) == 0 {
		t.Fatal("recording volume captured no update/stay files; test is vacuous")
	}
	var stays, upds int
	for name := range rv1.log {
		if strings.Contains(name, "_stay") {
			stays++
		} else {
			upds++
		}
	}
	if stays == 0 || upds == 0 {
		t.Fatalf("want both stay and update files in the log, got %d stay / %d update names", stays, upds)
	}

	assertSamePublications(t, rv1, rv8)

	if res1.Visited != res8.Visited {
		t.Errorf("visited: %d vs %d", res1.Visited, res8.Visited)
	}
	if res1.Metrics.ExecTime != res8.Metrics.ExecTime {
		t.Errorf("simulated exec time: %v vs %v — worker count leaked into the clock", res1.Metrics.ExecTime, res8.Metrics.ExecTime)
	}
	if res1.Metrics.BytesRead != res8.Metrics.BytesRead || res1.Metrics.BytesWritten != res8.Metrics.BytesWritten {
		t.Errorf("byte accounting: r=%d/w=%d vs r=%d/w=%d",
			res1.Metrics.BytesRead, res1.Metrics.BytesWritten, res8.Metrics.BytesRead, res8.Metrics.BytesWritten)
	}
	if len(res1.Metrics.Iterations) != len(res8.Metrics.Iterations) {
		t.Fatalf("iteration count: %d vs %d", len(res1.Metrics.Iterations), len(res8.Metrics.Iterations))
	}
	for i := range res1.Metrics.Iterations {
		if res1.Metrics.Iterations[i] != res8.Metrics.Iterations[i] {
			t.Errorf("iteration %d rows differ: %+v vs %+v", i, res1.Metrics.Iterations[i], res8.Metrics.Iterations[i])
		}
	}
	for i := range res1.Levels {
		if res1.Levels[i] != res8.Levels[i] || res1.Parents[i] != res8.Parents[i] {
			t.Fatalf("vertex %d: level/parent differ between worker counts", i)
		}
	}
}

// assertSamePublications requires a 1-worker and an 8-worker run to have
// published the same files, each the same number of times with the same
// bytes.
func assertSamePublications(t *testing.T, rv1, rv8 *recordingVolume) {
	t.Helper()
	for name, seq1 := range rv1.log {
		seq8, ok := rv8.log[name]
		if !ok {
			t.Errorf("workers=8 never published %s (workers=1 did, %d times)", name, len(seq1))
			continue
		}
		if len(seq8) != len(seq1) {
			t.Errorf("%s: published %d times with 1 worker, %d with 8", name, len(seq1), len(seq8))
			continue
		}
		for i := range seq1 {
			if !bytes.Equal(seq1[i], seq8[i]) {
				t.Errorf("%s publication %d: %d bytes vs %d bytes differ between worker counts",
					name, i, len(seq1[i]), len(seq8[i]))
			}
		}
	}
	for name := range rv8.log {
		if _, ok := rv1.log[name]; !ok {
			t.Errorf("workers=1 never published %s (workers=8 did)", name)
		}
	}
}

// TestDroppedRunsAreWorkerInvariant: on fixed, delta and delta + reorder
// stores, top down (whose stored passes trim by the counts), bottom up and
// with direction auto, where the stored, fused and bottom-up passes drop
// the runs their hints reject, every file a run publishes — partition
// inputs, stays, reverse stays — its rows and its tree are the same for 1,
// 2 and 8 workers: workers decode and check their own chunks, and a hint
// reads the winner table only for sources no merge in flight can win.
func TestDroppedRunsAreWorkerInvariant(t *testing.T) {
	stores := []struct {
		name string
		opts graph.StoreOptions
	}{
		{"fixed", graph.StoreOptions{Reverse: true}},
		{"delta", graph.StoreOptions{Codec: graph.CodecDelta, Reverse: true}},
		{"delta+reorder", graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}},
	}
	for _, st := range stores {
		for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionBottomUp, xstream.DirectionAuto} {
			run := func(workers int) (*recordingVolume, *Result) {
				vol, m, root := storedRMAT(t, 12, 16, st.opts)
				rv := newRecordingVolume(vol)
				rv.all = true
				res, err := Run(rv, m.Name, Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 8,
					StreamBufSize: 4096, Direction: dir, ScatterWorkers: workers, Codec: cmp.Or(st.opts.Codec, graph.CodecFixed)},
					GracePeriod: 1e9})
				if err != nil {
					t.Fatalf("%s, %s, workers=%d: %v", st.name, dir, workers, err)
				}
				return rv, res
			}
			rv1, res1 := run(1)
			trimmed := false
			for _, it := range res1.Metrics.Iterations {
				trimmed = trimmed || it.StayEdges > 0
			}
			if len(rv1.log) == 0 || !res1.Metrics.Iterations[0].Stored && dir != xstream.DirectionBottomUp ||
				res1.Metrics.BottomUpIterations == 0 && dir != xstream.DirectionTopDown || !trimmed {
				t.Fatalf("%s, %s: %d files published, trimmed %v, rows %+v: the test is vacuous", st.name, dir, len(rv1.log), trimmed, res1.Metrics.Iterations)
			}
			for _, workers := range []int{2, 8} {
				rv, res := run(workers)
				assertSamePublications(t, rv1, rv)
				assertSameTree(t, fmt.Sprintf("%s, %s, workers %d", st.name, dir, workers), res, res1)
				for i, it := range res1.Metrics.Iterations {
					if it != res.Metrics.Iterations[i] {
						t.Errorf("%s, %s, workers=%d: iteration %d rows differ: %+v vs %+v", st.name, dir, workers, i, it, res.Metrics.Iterations[i])
					}
				}
			}
		}
	}
}
