package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
	"fastbfs/internal/xstream"
)

// Tests of the run-owned stream buffer pool (DESIGN.md §17): what a
// streaming run allocates, that recycled (never zeroed) buffers change
// no byte of any file or answer, that every buffer is back when a run
// returns however it returns, and that concurrent runs never share one.

// underAudit runs fn with the poisoning pool audit installed (every
// buffer filled with 0xA5 on its way out of and back into a pool, a
// double or foreign Put panics) and requires every buffer taken inside
// it to have been returned.
func underAudit(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	audit := stream.AuditPools()
	defer audit.Stop()
	fn(t)
	if n := audit.Outstanding(); n != 0 {
		t.Errorf("%d stream buffers still outstanding after every run returned", n)
	}
	if audit.Peak() == 0 {
		t.Error("no run drew a buffer from an audited pool; the audit checked nothing")
	}
}

// TestSuitesUnderPoisoningPool re-runs the determinism, fault and
// cancellation suites with the poisoning audit installed: their own
// assertions (byte-identical files across worker counts, results equal
// to the fault-free run, clean aborts, no leaked goroutine or file) must
// hold on buffers full of 0xA5, and no run — finished, failed or
// cancelled — may keep a buffer.
func TestSuitesUnderPoisoningPool(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"ScatterWorkerCountIsByteDeterministic", TestScatterWorkerCountIsByteDeterministic},
		{"RunByteIdenticalUnderTransientFaults", TestRunByteIdenticalUnderTransientFaults},
		{"ParallelScatterFaultAbortsCleanly", TestParallelScatterFaultAbortsCleanly},
		{"ParallelScatterSurvivesStayFaults", TestParallelScatterSurvivesStayFaults},
		{"WallModeCancellationViaSlowWriter", TestWallModeCancellationViaSlowWriter},
		{"FastBFSCancellationUnderTinyGrace", TestFastBFSCancellationUnderTinyGrace},
		{"RunSurfacesPrepareFailure", TestRunSurfacesPrepareFailure},
		{"RunSurfacesGatherReadFailure", TestRunSurfacesGatherReadFailure},
		{"CancelMidRunReleasesEverything", TestCancelMidRunReleasesEverything},
		{"CorruptAdoptedStayFallsBack", TestCorruptAdoptedStayFallsBack},
		{"ResumeRebuildsUpdateFilter", TestResumeRebuildsUpdateFilter},
		{"CrashMatrixBoundaryKills", TestCrashMatrixBoundaryKills},
		{"StoredPassAbortLeavesNothing", TestStoredPassAbortLeavesNothing},
		{"SparseMatchesDense", TestSparseMatchesDense},
		{"StoredPassCorruptionFailsStop", TestStoredPassCorruptionFailsStop},
		{"CountRuleKeepsNoVertexFile", TestCountRuleKeepsNoVertexFile},
	} {
		t.Run(tc.name, func(t *testing.T) { underAudit(t, tc.fn) })
	}
}

// poolCase is one engine configuration of the pool tests.
type poolCase struct {
	name    string
	store   graph.StoreOptions
	xstream bool
	opts    Options
}

func poolCases(bufSize int, budget uint64) []poolCase {
	base := func(dir xstream.Direction) xstream.Options {
		return xstream.Options{MemoryBudget: budget, StreamBufSize: bufSize, Direction: dir}
	}
	return []poolCase{
		{name: "fastbfs/fixed/topdown", store: graph.StoreOptions{Reverse: true},
			opts: Options{Base: base(xstream.DirectionTopDown)}},
		{name: "fastbfs/delta+reorder/auto", store: graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true},
			opts: Options{Base: base(xstream.DirectionAuto)}},
		{name: "xstream/fixed/topdown", store: graph.StoreOptions{Reverse: true}, xstream: true,
			opts: Options{Base: base(xstream.DirectionTopDown)}},
	}
}

func (pc poolCase) run(ctx context.Context, vol storage.Volume, name string, root graph.VertexID, mod func(*Options)) (*Result, error) {
	o := pc.opts
	o.Base.Root = root
	if mod != nil {
		mod(&o)
	}
	if pc.xstream {
		return xstream.RunContext(ctx, vol, name, o.Base)
	}
	return RunContext(ctx, vol, name, o)
}

// storedRMAT stores one R-MAT graph under opts on a fresh Mem volume and
// returns it with its highest-degree vertex.
func storedRMAT(t *testing.T, scale, edgeFactor int, opts graph.StoreOptions) (*storage.Mem, graph.Meta, graph.VertexID) {
	t.Helper()
	m, edges, err := gen.RMAT(scale, edgeFactor, gen.Graph500(), 11)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.StoreGraph(vol, m, edges, opts); err != nil {
		t.Fatal(err)
	}
	return vol, m, maxDegreeVertex(m, edges)
}

// TestPoisonedRunIsByteIdentical: the same run on plain pools and on
// poisoning pools publishes the same files, byte for byte and in the
// same order, and returns the same tree and the same simulated time —
// recycled buffers are never zeroed, and nothing ever reads the part of
// one it did not just fill.
func TestPoisonedRunIsByteIdentical(t *testing.T) {
	for _, pc := range poolCases(512, 1024) {
		t.Run(pc.name, func(t *testing.T) {
			record := func() (*recordingVolume, *Result) {
				vol, m, root := storedRMAT(t, 9, 8, pc.store)
				rv := newRecordingVolume(vol)
				rv.all = true
				res, err := pc.run(context.Background(), rv, m.Name, root, func(o *Options) {
					o.Base.Sim = xstream.DefaultSim()
					o.Base.ScatterWorkers = 2
					o.GracePeriod = 1e9 // adopt every stay file: no real-time race in the file log
				})
				if err != nil {
					t.Fatal(err)
				}
				return rv, res
			}
			plainVol, plain := record()
			var poisonedVol *recordingVolume
			var poisoned *Result
			underAudit(t, func(t *testing.T) { poisonedVol, poisoned = record() })

			if len(plainVol.log) < 10 {
				t.Fatalf("only %d file names recorded; the comparison is vacuous", len(plainVol.log))
			}
			for name, want := range plainVol.log {
				got := poisonedVol.log[name]
				if len(got) != len(want) {
					t.Errorf("%s: published %d times plain, %d times poisoned", name, len(want), len(got))
					continue
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("%s publication %d differs under the poisoning pool (%d vs %d bytes)", name, i, len(got[i]), len(want[i]))
					}
				}
			}
			for name := range poisonedVol.log {
				if _, ok := plainVol.log[name]; !ok {
					t.Errorf("%s published only under the poisoning pool", name)
				}
			}
			if !slices.Equal(plain.Levels, poisoned.Levels) || !slices.Equal(plain.Parents, poisoned.Parents) || plain.Visited != poisoned.Visited {
				t.Error("levels or parents differ under the poisoning pool")
			}
			if plain.Metrics.ExecTime != poisoned.Metrics.ExecTime || plain.Metrics.BytesRead != poisoned.Metrics.BytesRead ||
				plain.Metrics.BytesWritten != poisoned.Metrics.BytesWritten {
				t.Errorf("simulated time or byte counts differ: %v/%d/%d vs %v/%d/%d",
					plain.Metrics.ExecTime, plain.Metrics.BytesRead, plain.Metrics.BytesWritten,
					poisoned.Metrics.ExecTime, poisoned.Metrics.BytesRead, poisoned.Metrics.BytesWritten)
			}
		})
	}
}

// TestCancelMidRunReleasesEverything cancels a run from inside the
// scatter chunk halfway through it, on both engines: it fails with
// ErrCancelled and leaves nothing on the volume. With the suite above it
// covers the cancellation return under the poisoning pool.
func TestCancelMidRunReleasesEverything(t *testing.T) {
	for _, pc := range poolCases(512, 1024) {
		vol, m, root := storedRMAT(t, 9, 8, pc.store)
		stored := vol.List()
		// chunksUntil runs with a hook that counts scatter chunks and
		// cancels at the stop-th (never, for stop 0).
		chunksUntil := func(stop int) (int, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			chunks := 0
			_, err := pc.run(ctx, vol, m.Name, root, func(o *Options) {
				o.Base.ScatterWorkers = 2
				o.Base.FaultHook = func() {
					mu.Lock()
					defer mu.Unlock()
					if chunks++; chunks == stop {
						cancel()
					}
				}
			})
			return chunks, err
		}
		total, err := chunksUntil(0)
		if err != nil || total < 20 {
			t.Fatalf("%s: uncancelled run: %d chunks, err %v", pc.name, total, err)
		}
		if _, err := chunksUntil(total / 2); !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("%s: err = %v, want ErrCancelled", pc.name, err)
		}
		if got := vol.List(); !slices.Equal(got, stored) {
			t.Errorf("%s: volume after the cancelled run holds %v, want only the dataset %v", pc.name, got, stored)
		}
	}
}

// allocatedBy returns the bytes f allocates (runtime TotalAlloc delta).
func allocatedBy(f func()) uint64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	f()
	runtime.ReadMemStats(&ms1)
	return ms1.TotalAlloc - ms0.TotalAlloc
}

// TestStreamingRunAllocation bounds what one out-of-core run allocates
// on a Mem volume at 8 partitions: a fixed set of stream buffers — the
// shuffler's P, the stay writer's StayBufCount, and a constant c for the
// scanners, frame payloads, vertex files and (under the delta codec) the
// encode targets — plus a per-edge term for everything sized by the
// graph: scatter chunks and shards, the result, and above all the Mem
// volume's own file images (every byte a run writes is allocated there).
// c and the per-edge constant are the measured allocation (workers 1, 2
// and 4, with and without -race) plus 25 %;
// parent is what the same run allocated at the parent commit, one fresh
// buffer per stream open, and every bound is at least 5x under it.
func TestStreamingRunAllocation(t *testing.T) {
	if os.Getenv("FASTBFS_FAULTS") != "" {
		t.Skip("the fault-injecting volume keeps an image of every file it writes; the bound is for a plain Mem volume")
	}
	const (
		scale, edgeFactor = 13, 16
		bufSize           = 256 << 10
		budget            = 16384 // 8192 vertices x 16 B / 16 KiB = 8 partitions
		parts             = 8
	)
	bounds := map[string]struct {
		stayBufs, c int    // (parts + stayBufs + c) x bufSize ...
		perEdge     uint64 // ... + perEdge x edges
		parent      uint64
	}{
		"fastbfs/fixed/topdown":      {stayBufs: 8, c: 6, perEdge: 41, parent: 75779000},  // measured 8.1-8.8 MB
		"fastbfs/delta+reorder/auto": {stayBufs: 8, c: 12, perEdge: 31, parent: 57415592}, // measured 9.2 MB
		"xstream/fixed/topdown":      {stayBufs: 0, c: 6, perEdge: 55, parent: 68067240},  // measured 7.2-8.7 MB
	}
	for _, pc := range poolCases(bufSize, budget) {
		t.Run(pc.name, func(t *testing.T) {
			vol, m, root := storedRMAT(t, scale, edgeFactor, pc.store)
			var res *Result
			got := allocatedBy(func() {
				var err error
				if res, err = pc.run(context.Background(), vol, m.Name, root, nil); err != nil {
					t.Fatal(err)
				}
			})
			if res.Visited < m.Vertices/4 || len(res.Metrics.Iterations) < 4 || res.Metrics.BytesWritten == 0 {
				t.Fatalf("run reached %d vertices in %d iterations and wrote %d bytes; not a streaming traversal worth bounding",
					res.Visited, len(res.Metrics.Iterations), res.Metrics.BytesWritten)
			}
			b := bounds[pc.name]
			limit := uint64(parts+b.stayBufs+b.c)*bufSize + b.perEdge*m.Edges
			t.Logf("allocated %d bytes (%.1f MiB); bound %d; parent commit %d (%.1fx)", got, float64(got)/(1<<20), limit, b.parent, float64(b.parent)/float64(got))
			if got > limit {
				t.Errorf("run allocated %d bytes, bound (%d + %d + %d) x %d + %d B/edge x %d edges = %d",
					got, parts, b.stayBufs, b.c, bufSize, b.perEdge, m.Edges, limit)
			}
			if 5*limit > b.parent {
				t.Errorf("bound %d is not 5x under the parent commit's %d", limit, b.parent)
			}
		})
	}
}

// addrVolume records, per run (by working-file prefix), the address
// range of every buffer handed to a storage Read or Write — the scan and
// flush buffers themselves, since nothing between the streams and the
// volume copies. It keeps the slices alive, so an address can never be
// reused by a later allocation while the test compares them.
type addrVolume struct {
	storage.Volume
	mu   sync.Mutex
	seen map[string][][]byte // run prefix -> buffers seen
}

func (av *addrVolume) note(name string, p []byte) {
	if len(p) == 0 {
		return
	}
	prefix, _, _ := strings.Cut(name, "_")
	av.mu.Lock()
	av.seen[prefix] = append(av.seen[prefix], p)
	av.mu.Unlock()
}

func (av *addrVolume) Create(name string) (storage.Writer, error) {
	w, err := av.Volume.Create(name)
	if err != nil {
		return nil, err
	}
	return &addrWriter{Writer: w, av: av, name: name}, nil
}

func (av *addrVolume) Open(name string) (storage.Reader, error) {
	r, err := av.Volume.Open(name)
	if err != nil {
		return nil, err
	}
	return &addrReader{Reader: r, av: av, name: name}, nil
}

type addrWriter struct {
	storage.Writer
	av   *addrVolume
	name string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.av.note(w.name, p)
	return w.Writer.Write(p)
}

type addrReader struct {
	storage.Reader
	av   *addrVolume
	name string
}

func (r *addrReader) Read(p []byte) (int, error) {
	r.av.note(r.name, p)
	return r.Reader.Read(p)
}

type addrRange struct{ lo, hi uintptr }

func ranges(bufs [][]byte) []addrRange {
	rs := make([]addrRange, len(bufs))
	for i, b := range bufs {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		rs[i] = addrRange{lo, lo + uintptr(len(b))}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].lo < rs[j].lo })
	return rs
}

// TestConcurrentRunsShareNoBuffers (run it with -race): two runs at a
// time on one volume, over one shared prepared graph, each taking its
// pool from the scratch free-list and giving it back for the next pair,
// never pass the same memory to the volume — no buffer is ever in two
// runs' hands. The working files are written into by one run only, so
// every buffer the volume sees under a run's prefix is that run's.
func TestConcurrentRunsShareNoBuffers(t *testing.T) {
	vol, m, _ := storedRMAT(t, 9, 8, graph.StoreOptions{Reverse: true})
	pg, err := xstream.LoadPrepared(context.Background(), vol, m.Name, xstream.Options{MemoryBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if pg.Resident() {
		t.Fatal("prepared graph is resident; the runs would not stream")
	}
	cases := poolCases(512, 1024)
	for round := 0; round < 3; round++ {
		av := &addrVolume{Volume: vol, seen: make(map[string][][]byte)}
		var wg, both sync.WaitGroup
		both.Add(2)
		errc := make(chan error, 2)
		for side := 0; side < 2; side++ {
			wg.Add(1)
			go func(side int) {
				defer wg.Done()
				pc := cases[0]
				if side == 1 {
					pc = cases[2] // fastbfs beside xstream
				}
				// Each run waits in its first scatter chunk for the other to
				// get there: both hold their scratch at once, so neither can
				// be handed the one the other just released.
				var once sync.Once
				_, err := pc.run(context.Background(), av, m.Name, graph.VertexID(1+side), func(o *Options) {
					o.Base.Prepared = pg
					o.Base.ScatterWorkers = 2
					o.TrimStartIteration = TrimEveryIteration // split up front: working files from iteration 0 on
					o.Base.FilePrefix = fmt.Sprintf("run%d", side)
					o.Base.FaultHook = func() { once.Do(func() { both.Done(); both.Wait() }) }
				})
				errc <- err
			}(side)
		}
		wg.Wait()
		for side := 0; side < 2; side++ {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
		a, b := ranges(av.seen["run0"]), ranges(av.seen["run1"])
		// (Dozens, not hundreds, under FASTBFS_FAULTS: the fault layer
		// sits between the streams and this volume and hands each file
		// over as one image of its own.)
		if len(a) < 20 || len(b) < 20 {
			t.Fatalf("round %d: volume saw %d and %d buffers; the runs did not stream", round, len(a), len(b))
		}
		// Both sorted by start: sweep for any overlap.
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch {
			case a[i].hi <= b[j].lo:
				i++
			case b[j].hi <= a[i].lo:
				j++
			default:
				t.Fatalf("round %d: the two concurrent runs both used memory [%#x,%#x) / [%#x,%#x)",
					round, a[i].lo, a[i].hi, b[j].lo, b[j].hi)
			}
		}
	}
}
