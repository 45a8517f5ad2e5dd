package xstream

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

func rmatStored(t *testing.T, opts graph.StoreOptions) (*storage.Mem, graph.Meta, []graph.Edge) {
	t.Helper()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.StoreGraph(vol, m, edges, opts); err != nil {
		t.Fatal(err)
	}
	return vol, m, edges
}

// TestPreparedRunMatchesOneShot: an in-memory run over a resident
// PreparedGraph answers exactly like the one-shot run that loads the
// edge file itself, level by level — the same frontier and the same
// newly visited vertices on every row — but reads nothing, is not charged
// the load and examines at most E + V adjacency entries where the
// one-shot run scans E edges per level. Its scratch goes back on the
// free-list, which therefore never outgrows the runs in flight.
func TestPreparedRunMatchesOneShot(t *testing.T) {
	for _, so := range []graph.StoreOptions{{}, {Codec: graph.CodecDelta, ReorderByDegree: true}} {
		DropFreeScratch()
		vol, m, edges := rmatStored(t, so)
		root := maxDegreeVertex(m, edges)
		opts := Options{Root: root, MemoryBudget: 1 << 20, StreamBufSize: 512, Sim: DefaultSim()}
		want, err := Run(vol, m.Name, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.Metrics.BytesRead == 0 || len(want.Metrics.Iterations) < 3 {
			t.Fatalf("one-shot run read %d bytes over %d iterations", want.Metrics.BytesRead, len(want.Metrics.Iterations))
		}

		pg, err := LoadPrepared(context.Background(), vol, m.Name, opts)
		if err != nil {
			t.Fatal(err)
		}
		off, dst, _ := pg.Out()
		if !pg.Resident() || uint64(len(dst)) != m.Edges || pg.LoadBytes != want.Metrics.BytesRead {
			t.Fatalf("prepared: resident=%v edges=%d load bytes=%d, want %d edges and the one-shot run's %d bytes",
				pg.Resident(), len(dst), pg.LoadBytes, m.Edges, want.Metrics.BytesRead)
		}
		sharedOff, sharedDst := slices.Clone(off), slices.Clone(dst)
		opts.Prepared = pg
		for i := 0; i < 3; i++ {
			opts.Sim = DefaultSim() // devices accumulate state: one per run
			got, err := Run(vol, m.Name, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Levels, want.Levels) || !reflect.DeepEqual(got.Parents, want.Parents) {
				t.Fatalf("codec %q run %d: prepared answer differs from the one-shot run", so.Codec, i)
			}
			if got.Visited != want.Visited || len(got.Metrics.Iterations) != len(want.Metrics.Iterations) {
				t.Fatalf("codec %q run %d: visited %d over %d rows, one-shot %d over %d", so.Codec, i,
					got.Visited, len(got.Metrics.Iterations), want.Visited, len(want.Metrics.Iterations))
			}
			var examined int64
			for r, row := range got.Metrics.Iterations {
				if w := want.Metrics.Iterations[r]; row.Frontier != w.Frontier || row.NewlyVisited != w.NewlyVisited {
					t.Fatalf("codec %q run %d row %d: frontier %d new %d, one-shot %d and %d", so.Codec, i, r,
						row.Frontier, row.NewlyVisited, w.Frontier, w.NewlyVisited)
				}
				examined += row.EdgesStreamed
			}
			if examined == 0 || uint64(examined) > m.Edges+m.Vertices {
				t.Fatalf("codec %q run %d: %d adjacency entries examined, want at most E + V = %d", so.Codec, i, examined, m.Edges+m.Vertices)
			}
			if got.Metrics.BytesRead != 0 || got.Metrics.ExecTime >= want.Metrics.ExecTime {
				t.Fatalf("codec %q run %d: prepared run read %d bytes in %v simulated s (one-shot %v)",
					so.Codec, i, got.Metrics.BytesRead, got.Metrics.ExecTime, want.Metrics.ExecTime)
			}
		}
		if n := len(freeScratch()); n != 1 {
			t.Fatalf("%d scratches on the free-list after sequential runs, want 1", n)
		}
		if !slices.Equal(off, sharedOff) || !slices.Equal(dst, sharedDst) {
			t.Fatal("shared out-lists were written")
		}
	}
}

// TestScratchFreeListIsCapped: a burst of concurrent streaming runs, each
// holding its own scratch at once, leaves at most maxFreeScratch warmed
// scratches pinned behind it, and the runs after it take those.
func TestScratchFreeListIsCapped(t *testing.T) {
	DropFreeScratch()
	vol, m, edges := rmatStored(t, graph.StoreOptions{})
	opts := smallOpts()
	opts.Sim = nil
	opts.Root = maxDegreeVertex(m, edges)
	const burst = 2 * maxFreeScratch
	var all sync.WaitGroup
	all.Add(burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(opts Options) {
			defer wg.Done()
			// Every run waits in its first scatter chunk for the others.
			var once sync.Once
			opts.FilePrefix = fmt.Sprintf("burst%d", i)
			opts.FaultHook = func() { once.Do(func() { all.Done(); all.Wait() }) }
			if _, err := Run(vol, m.Name, opts); err != nil {
				t.Error(err)
			}
		}(opts)
	}
	wg.Wait()
	kept := freeScratch()
	if len(kept) != maxFreeScratch {
		t.Fatalf("%d scratches kept after a burst of %d runs, want %d", len(kept), burst, maxFreeScratch)
	}
	for _, s := range kept {
		if s.pool == nil || cap(s.level) == 0 {
			t.Fatal("a kept scratch holds no scatter pool or vertex arrays; the runs did not warm it")
		}
	}
	if _, err := Run(vol, m.Name, opts); err != nil {
		t.Fatal(err)
	}
	if after := freeScratch(); len(after) != maxFreeScratch || after[len(after)-1] != kept[len(kept)-1] {
		t.Fatal("the run after the burst did not take and return a kept scratch")
	}
}

// TestOneShotTrimCompactsInPlace: a one-shot run's trim is a count — the
// edges a later level would scan are those whose source is unvisited or
// just found, E less the updates emitted so far — so a trimming run books
// every row's scan as the edge list it would have compacted to, and
// allocates no second edge-list-sized buffer over a run that never trims.
func TestOneShotTrimCompactsInPlace(t *testing.T) {
	m, edges, err := gen.RMAT(10, 16, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	opts := Options{Root: maxDegreeVertex(m, edges), MemoryBudget: 1 << 30, ScatterWorkers: 1}
	opts.SetDefaults("oneshot")
	run := func(pol Policy) (*Result, uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt, err := NewRuntimeContext(context.Background(), vol, m.Name, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Cleanup()
		res, err := newKernel(rt, "oneshot", pol).runInMemory()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return res, after.TotalAlloc - before.TotalAlloc
	}
	plain, plainBytes := run(Policy{})
	trimmed, trimBytes := run(Policy{Trim: true})
	if !reflect.DeepEqual(trimmed.Levels, plain.Levels) || !reflect.DeepEqual(trimmed.Parents, plain.Parents) {
		t.Fatal("trimming changed the answer")
	}
	if trimmed.Metrics.TrimmedEdges == 0 {
		t.Fatal("the trimming run trimmed nothing")
	}
	for r, row := range trimmed.Metrics.Iterations {
		var want int64 // every scatter trims: row r scans the edges of sources at level r or later
		for _, e := range edges {
			if trimmed.Levels[e.Src] >= uint32(r) {
				want++
			}
		}
		if row.EdgesStreamed != want || !row.TrimActive || row.StayEdges != want-row.Updates {
			t.Fatalf("row %d: streamed %d kept %d (trim %v), the compacted list holds %d and keeps %d",
				r, row.EdgesStreamed, row.StayEdges, row.TrimActive, want, want-row.Updates)
		}
	}
	if list := m.Edges * graph.EdgeBytes; trimBytes > plainBytes+list/2 {
		t.Fatalf("trimming run allocated %d bytes, plain run %d: a second %d-byte edge buffer was made",
			trimBytes, plainBytes, list)
	}
}

// TestPreparedNonResidentStillStreams: below the in-memory budget the
// prepared graph holds no edges and the run streams exactly as before —
// only the metadata and permutation come from it, so the run no longer
// needs the config file.
func TestPreparedNonResidentStillStreams(t *testing.T) {
	vol, m, edges := rmatStored(t, graph.StoreOptions{ReorderByDegree: true})
	opts := smallOpts()
	opts.Root = maxDegreeVertex(m, edges)
	want, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := LoadPrepared(context.Background(), vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Resident() || pg.Budget >= pg.Need {
		t.Fatalf("4 KiB budget: resident=%v budget=%d need=%d", pg.Resident(), pg.Budget, pg.Need)
	}
	if err := vol.Remove(graph.ConfFileName(m.Name)); err != nil {
		t.Fatal(err)
	}
	if err := vol.Remove(graph.PermFileName(m.Name)); err != nil {
		t.Fatal(err)
	}
	opts.Prepared = pg
	opts.Sim = DefaultSim() // devices accumulate state: one per run
	got, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Levels, want.Levels) || !reflect.DeepEqual(got.Parents, want.Parents) {
		t.Fatal("streaming run over a prepared graph differs")
	}
	if got.Metrics.BytesRead != want.Metrics.BytesRead || got.Metrics.ExecTime != want.Metrics.ExecTime {
		t.Fatalf("streaming run changed: %d bytes %v s, want %d bytes %v s",
			got.Metrics.BytesRead, got.Metrics.ExecTime, want.Metrics.BytesRead, want.Metrics.ExecTime)
	}
	opts.Prepared = nil
	if _, err := Run(vol, m.Name, opts); !errors.Is(err, errs.ErrGraphNotFound) {
		t.Fatalf("run without the prepared graph or the config: err = %v", err)
	}
	other := &PreparedGraph{Meta: pg.Meta, Perm: pg.Perm}
	other.Meta.Name = "other"
	opts.Prepared = other
	if _, err := Run(vol, m.Name, opts); !errors.Is(err, errs.ErrBadOptions) {
		t.Fatalf("prepared graph of another dataset accepted: %v", err)
	}
}

// TestStreamingRunBorrowsPreparedScratch: a streaming run over a
// prepared graph works on a scratch — stream buffers, scatter pool,
// vertex arrays — taken from the free-list and left there for the next
// run, whichever way it returns, like the stand-alone run before it; a
// run that fails before it starts hands it back too. Under the stream
// layer's poisoning audit, so each run reads 0xA5 wherever it trusts what
// the one before left behind.
func TestStreamingRunBorrowsPreparedScratch(t *testing.T) {
	DropFreeScratch()
	audit := stream.AuditPools()
	defer audit.Stop()
	vol, m, edges := rmatStored(t, graph.StoreOptions{Reverse: true})
	opts := smallOpts()
	opts.Root = maxDegreeVertex(m, edges)
	opts.Direction = DirectionAuto
	want, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := LoadPrepared(context.Background(), vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Prepared = pg
	var scratch *Scratch
	for i := 0; i < 3; i++ {
		opts.Sim = DefaultSim() // devices accumulate state: one per run
		got, err := Run(vol, m.Name, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Levels, want.Levels) || !reflect.DeepEqual(got.Parents, want.Parents) ||
			got.Metrics.ExecTime != want.Metrics.ExecTime {
			t.Fatalf("run %d on a borrowed scratch differs from the run that owns its own", i)
		}
		free := freeScratch()
		if len(free) != 1 || scratch != nil && free[0] != scratch {
			t.Fatalf("run %d: %d scratches on the free-list, want the one every run shares", i, len(free))
		}
		scratch = free[0]
		if scratch.bufs == nil || scratch.pool == nil || cap(scratch.level) == 0 {
			t.Fatalf("run %d left a scratch without its stream buffers, scatter pool or vertex arrays", i)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Sim = DefaultSim()
	if _, err := RunContext(ctx, vol, m.Name, opts); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled run: err = %v", err)
	}
	opts.Root = graph.VertexID(m.Vertices) // rejected before the run owns anything
	if _, err := Run(vol, m.Name, opts); !errors.Is(err, errs.ErrBadOptions) {
		t.Fatalf("run from a root outside the graph: err = %v", err)
	}
	if free := freeScratch(); len(free) != 1 || free[0] != scratch {
		t.Fatalf("%d scratches on the free-list after a cancelled and a rejected run, want the same one", len(free))
	}
	if n := audit.Outstanding(); n != 0 {
		t.Fatalf("%d stream buffers outstanding after every run returned", n)
	}
}

// TestReleasedScratchIsPoisonedUnderAudit: a scratch made before the
// stream layer's poisoning audit is audited again once a run takes it —
// its buffers are checked and poisoned like a new pool's — and as it goes
// back on the free-list its vertex arrays and decode targets are filled
// with 0xA5 too, so a run that trusts what an earlier one left
// there computes visibly wrong answers.
func TestReleasedScratchIsPoisonedUnderAudit(t *testing.T) {
	DropFreeScratch()
	vol, m, edges := rmatStored(t, graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true})
	opts := smallOpts()
	opts.Root = maxDegreeVertex(m, edges)
	opts.Direction = DirectionAuto
	want, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	audit := stream.AuditPools()
	defer audit.Stop()
	opts.Sim = DefaultSim()
	got, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Levels, want.Levels) || !reflect.DeepEqual(got.Parents, want.Parents) {
		t.Fatal("the audited run on a reused scratch answers differently")
	}
	if audit.Peak() == 0 || audit.Outstanding() != 0 {
		t.Fatalf("audit saw a peak of %d buffers and %d outstanding; want the reused pool audited and every buffer back", audit.Peak(), audit.Outstanding())
	}
	free := freeScratch()
	if len(free) != 1 {
		t.Fatalf("%d scratches on the free-list, want 1", len(free))
	}
	s := free[0]
	arrays := map[string][]byte{"level": asBytes(s.level), "parent": asBytes(s.parent), "vertRecs": asBytes(s.vertRecs),
		"edgeChunk": asBytes(s.edgeChunk), "updChunk": asBytes(s.updChunk), "visited": asBytes(s.visited.w),
		"claimed": asBytes(s.claimed.w), "bestParent": asBytes(s.bestParent), "outDeg": asBytes(s.outDeg)}
	for name, b := range arrays {
		if len(b) == 0 {
			t.Errorf("the run left %s empty; nothing to check", name)
		}
		for i, c := range b {
			if c != 0xA5 {
				t.Fatalf("byte %d of the released scratch's %s = %#x, want the poison 0xA5", i, name, c)
			}
		}
	}
}

// asBytes views the whole capacity of a slice of pointer-free elements.
func asBytes[T any](s []T) []byte {
	if s = s[:cap(s)]; len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}
