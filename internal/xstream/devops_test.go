package xstream_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"sync"
	"testing"

	"fastbfs/internal/core"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// opVolume logs, in order, every read a run makes on the engine thread —
// each op's kind (a sequential read or a ranged one), file, offset and
// length — and, per file, the lengths of its writes (stay files are
// written on the stay writer's goroutine, so writes are logged per file
// only).
type opVolume struct {
	storage.Volume
	mu     sync.Mutex
	reads  hash.Hash
	nreads int
	writes map[string][]int
}

func (v *opVolume) logRead(kind, name string, off int64, n int) {
	v.mu.Lock()
	fmt.Fprintf(v.reads, "%s %s %d %d\n", kind, name, off, n)
	v.nreads++
	v.mu.Unlock()
}

func (v *opVolume) Open(name string) (storage.Reader, error) {
	r, err := v.Volume.Open(name)
	if err != nil {
		return nil, err
	}
	return &opReader{Reader: r, v: v, name: name}, nil
}

func (v *opVolume) Create(name string) (storage.Writer, error) {
	w, err := v.Volume.Create(name)
	if err != nil {
		return nil, err
	}
	return &opWriter{Writer: w, v: v, name: name}, nil
}

type opReader struct {
	storage.Reader
	v    *opVolume
	name string
	off  int64
}

func (r *opReader) Read(p []byte) (int, error) {
	n, err := r.Reader.Read(p)
	r.v.logRead("read", r.name, r.off, n)
	r.off += int64(n)
	return n, err
}

func (r *opReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.Reader.(io.ReaderAt).ReadAt(p, off)
	r.v.logRead("readat", r.name, off, n)
	return n, err
}

type opWriter struct {
	storage.Writer
	v    *opVolume
	name string
	lens []int
}

func (w *opWriter) Write(p []byte) (int, error) {
	w.lens = append(w.lens, len(p))
	return w.Writer.Write(p)
}

func (w *opWriter) Close() error {
	w.v.mu.Lock()
	w.v.writes[w.name] = append(w.v.writes[w.name], w.lens...)
	w.v.mu.Unlock()
	return w.Writer.Close()
}

// devOpsDigest runs a simulated FastBFS run that trims by the counts — its
// stored iterations are split passes — over st at the given worker count,
// and digests its device-facing sequence: every read in order, every
// file's writes, and the simulated clock's and devices' totals.
func devOpsDigest(t *testing.T, scale, bufSize int, st graph.StoreOptions, dir xstream.Direction, workers int) string {
	t.Helper()
	m, edges, err := gen.RMAT(scale, 16, gen.Graph500(), 7)
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMem()
	if err := graph.StoreGraph(mem, m, edges, st); err != nil {
		t.Fatal(err)
	}
	vol := &opVolume{Volume: mem, reads: sha256.New(), writes: map[string][]int{}}
	sim := xstream.ScaledSim(512)
	res, err := core.Run(vol, m.Name, core.Options{Base: xstream.Options{Root: 0, MemoryBudget: 8192,
		Partitions: 4, StreamBufSize: bufSize, Direction: dir, ScatterWorkers: workers, Sim: sim}})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Metrics
	if r.Iterations == nil || !r.Iterations[0].Stored {
		t.Fatalf("the run's first iteration is not a split pass: the test is vacuous")
	}
	stored, sparse := 0, 0
	for _, it := range r.Iterations {
		if it.Stored {
			stored++
		}
		if it.Sparse {
			sparse++
		}
	}
	t.Logf("%d iterations: %d stored, %d sparse, %d bottom-up; %d reads", len(r.Iterations), stored, sparse, r.BottomUpIterations, vol.nreads)
	h := sha256.New()
	fmt.Fprintf(h, "%d reads %x\n", vol.nreads, vol.reads.Sum(nil))
	for _, name := range mem.List() {
		fmt.Fprintf(h, "%s %v\n", name, vol.writes[name])
	}
	fmt.Fprintf(h, "%v %v %v %d %d %d\n", r.ExecTime, r.IOWait, r.ComputeTime, r.BytesRead, r.BytesWritten, res.Visited)
	for _, d := range []interface {
		Ops() int64
		Seeks() int64
		BusyTime() float64
	}{sim.MainDisk} {
		fmt.Fprintf(h, "%d %d %v\n", d.Ops(), d.Seeks(), d.BusyTime())
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestSplitPassDeviceOpsArePinned: a simulated run whose stored iterations
// are split passes issues the same reads, writes and device time at 1 and 8
// workers, on a fixed store and on delta stores whose 4,096-record blocks
// straddle every 512-record chunk — forced bottom-up too, where the fused
// pass drops the runs of targets it won — and at a 1 MiB buffer, and the
// same as the sequence pinned below. The top-down cases are the sequence
// the engine issued when the engine thread still decoded every chunk
// itself. The six that go bottom-up were re-pinned when the fused first
// pass took the later passes' claim rule (a chunk's winners are claimed
// before any of its records is written): it no longer writes a target's
// tails that precede the winning one in the chunk, so its reverse stays,
// and the later passes that read them, are shorter.
func TestSplitPassDeviceOpsArePinned(t *testing.T) {
	delta := graph.StoreOptions{Codec: graph.CodecDelta, Reverse: true}
	reordered := graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}
	cases := []struct {
		name       string
		scale, buf int
		st         graph.StoreOptions
		dir        xstream.Direction
		want       string
	}{
		{"fixed/topdown", 11, 4096, graph.StoreOptions{Reverse: true}, xstream.DirectionTopDown, "c4a4c94e94d97e2f"},
		{"delta/topdown", 11, 4096, delta, xstream.DirectionTopDown, "976585d84d4e7c47"},
		{"delta+reorder/auto", 11, 4096, reordered, xstream.DirectionAuto, "ffc25ee3462946ce"},
		{"fixed/auto", 11, 4096, graph.StoreOptions{Reverse: true}, xstream.DirectionAuto, "55fd7564b703607c"},
		{"delta/bottomup", 11, 4096, delta, xstream.DirectionBottomUp, "7e67db976f096d81"},
		{"1MiB/fixed/auto", 13, 1 << 20, graph.StoreOptions{Reverse: true}, xstream.DirectionAuto, "5809d7953cf393c1"},
		{"1MiB/delta+reorder/auto", 13, 1 << 20, reordered, xstream.DirectionAuto, "bcc0866c2a907459"},
		{"1MiB/delta+reorder/bottomup", 13, 1 << 20, reordered, xstream.DirectionBottomUp, "d34cd40429689257"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			one, eight := devOpsDigest(t, c.scale, c.buf, c.st, c.dir, 1), devOpsDigest(t, c.scale, c.buf, c.st, c.dir, 8)
			t.Logf("%s: %s", c.name, one)
			if one != eight {
				t.Errorf("1 worker: %s, 8 workers: %s", one, eight)
			}
			if one != c.want {
				t.Errorf("digest %s, pinned %s", one, c.want)
			}
		})
	}
}

// TestFusedPassChargeIsPinned: a simulated FastBFS run forced bottom-up on
// a delta store charges the compute and time pinned below at 1 and 4
// workers. Its fused first pass's workers drop the runs of visited targets
// and of those their head won, read from state the pass does not change;
// each merge claims its chunk's winners before it writes any record, and
// writes only those of targets still open, so the charge does not depend
// on when a chunk is cut or merged. (It was 0.00635 s while the fused pass
// claimed and wrote record by record, writing the tails that precede a
// target's winner in the chunk; the later passes then read them back.)
func TestFusedPassChargeIsPinned(t *testing.T) {
	m, edges, err := gen.RMAT(12, 16, gen.Graph500(), 11)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Codec: graph.CodecDelta, Reverse: true}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := core.Run(vol, m.Name, core.Options{GracePeriod: 1e9, Base: xstream.Options{Root: 70, MemoryBudget: 4096,
			Partitions: 1, StreamBufSize: 4096, Direction: xstream.DirectionBottomUp, ScatterWorkers: workers,
			Sim: xstream.ScaledSim(512)}})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%.12g %.12g", res.Metrics.ComputeTime, res.Metrics.ExecTime)
		if want := "0.0006780285 0.0051202530625"; got != want {
			t.Errorf("%d workers: compute and run time %s, pinned %s", workers, got, want)
		}
	}
}
