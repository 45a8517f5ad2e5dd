package serve_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastbfs/internal/algo"
	"fastbfs/internal/core"
	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Service tests: concurrent mixed queries must be byte-identical to
// serial engine runs, cancellation must release every resource, and
// admission control must reject — not queue without bound — under load.
// Run with -race: the point of the service is safe shared state.

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

// smallBase forces the engines out of core (several partitions, several
// iterations) so concurrent queries actually contend on working files.
func smallBase() core.Options {
	return core.Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}}
}

// splittingBase is smallBase with the paper's static trim threshold: a
// FastBFS query then splits up front, so it writes and gathers update
// files from iteration 0 on, which the tests that gate or fail those
// files need.
func splittingBase() core.Options {
	o := smallBase()
	o.TrimStartIteration = core.TrimEveryIteration
	return o
}

// refBFS computes a serial reference BFS with the same engine options
// the service applies per query.
func refBFS(t *testing.T, e serve.Engine, vol storage.Volume, name string, root graph.VertexID) *core.Result {
	t.Helper()
	o := smallBase()
	o.Base.Root = root
	res, err := serve.RunEngine(context.Background(), e, vol, name, o)
	if err != nil {
		t.Fatalf("reference %s bfs from %d: %v", e, root, err)
	}
	return res
}

func refMSBFS(t *testing.T, vol storage.Volume, name string, roots []graph.VertexID) ([]uint32, []graph.VertexID) {
	t.Helper()
	prog := algo.NewMultiSourceBFS(roots)
	res, err := algo.Run(vol, name, prog, smallBase().Base)
	if err != nil {
		t.Fatalf("reference msbfs %v: %v", roots, err)
	}
	return prog.Levels(res.Values), prog.Parents(res.Values)
}

func refSSSP(t *testing.T, vol storage.Volume, name string, root graph.VertexID) []float32 {
	t.Helper()
	prog := algo.NewSSSP(root)
	res, err := algo.Run(vol, name, prog, smallBase().Base)
	if err != nil {
		t.Fatalf("reference sssp from %d: %v", root, err)
	}
	return prog.Distances(res.Values)
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// writeGate blocks every write to the service's per-query working files
// (prefix "q") until released, pinning queries in flight so admission
// states can be asserted deterministically. Dataset files and serial
// reference runs (engine-default prefixes) pass through.
type writeGate struct {
	on   atomic.Bool
	gate chan struct{}
}

func newWriteGate(vol *storage.Mem) *writeGate {
	g := &writeGate{gate: make(chan struct{})}
	g.on.Store(true)
	vol.FailWrites(func(name string, written int64) error {
		if g.on.Load() && strings.HasPrefix(name, "q") {
			<-g.gate
		}
		return nil
	})
	return g
}

func (g *writeGate) release() {
	g.on.Store(false)
	close(g.gate)
}

func assertOnlyDataset(t *testing.T, vol *storage.Mem, m graph.Meta) {
	t.Helper()
	for _, f := range vol.List() {
		if f != graph.EdgeFileName(m.Name) && f != graph.ConfFileName(m.Name) && f != graph.ReverseFileName(m.Name) && f != graph.ReverseIndexFileName(m.Name) && f != graph.IndexFileName(m.Name) {
			t.Errorf("leftover working file %s after drain", f)
		}
	}
}

type outcome struct {
	res *serve.Result
	err error
}

// TestServiceSaturationCancellationAndDrain walks the admission machine
// through every state with a deterministic write gate: MaxInFlight
// queries pinned executing, MaxQueue waiters queued, further submits
// rejected with ErrBusy, one waiter cancelled in the queue, one query
// cancelled mid-run, and the survivors byte-identical to serial runs
// after the gate lifts.
func TestServiceSaturationCancellationAndDrain(t *testing.T) {
	vol, m := storedGraph(t)

	// Serial references, computed before the write gate goes in.
	wantB := refBFS(t, serve.EngineFastBFS, vol, m.Name, 1)
	wantW1 := refBFS(t, serve.EngineXStream, vol, m.Name, 3)
	wantLv, wantPar := refMSBFS(t, vol, m.Name, []graph.VertexID{5, 9})

	tr := obs.New()
	defer tr.Close()
	svc, err := serve.New(vol, m.Name, serve.Config{
		MaxInFlight: 2, MaxQueue: 3, CacheEntries: 16, Base: splittingBase(), Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := newWriteGate(vol)

	// Two blockers fill every execution slot; A will be cancelled mid-run.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aCh, bCh := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		r, err := svc.Submit(ctxA, serve.Query{Algorithm: serve.AlgoBFS, Root: 21})
		aCh <- outcome{r, err}
	}()
	go func() {
		r, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1})
		bCh <- outcome{r, err}
	}()
	waitFor(t, func() bool { return svc.Stats().InFlight == 2 }, "both slots busy")

	// Three waiters fill the queue; W3 will be cancelled while queued.
	// W2's roots are unsorted with a duplicate: normalization must not care.
	ctxW3, cancelW3 := context.WithCancel(context.Background())
	defer cancelW3()
	w1Ch, w2Ch, w3Ch := make(chan outcome, 1), make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		r, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Engine: serve.EngineXStream, Root: 3})
		w1Ch <- outcome{r, err}
	}()
	go func() {
		r, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoMSBFS, Roots: []graph.VertexID{9, 5, 5}})
		w2Ch <- outcome{r, err}
	}()
	go func() {
		r, err := svc.Submit(ctxW3, serve.Query{Algorithm: serve.AlgoSSSP, Root: 4})
		w3Ch <- outcome{r, err}
	}()
	waitFor(t, func() bool { return svc.Stats().QueueDepth == 3 }, "full queue")

	// Queue full: further submissions fail fast.
	for _, q := range []serve.Query{
		{Algorithm: serve.AlgoBFS, Root: 13},
		{Algorithm: serve.AlgoSSSP, Root: 2},
	} {
		if _, err := svc.Submit(context.Background(), q); !errors.Is(err, errs.ErrBusy) {
			t.Fatalf("submit beyond the queue: err = %v, want ErrBusy", err)
		}
	}

	// Cancel W3 in the queue: it returns without ever executing.
	cancelW3()
	o := <-w3Ch
	if !errors.Is(o.err, errs.ErrCancelled) || !errors.Is(o.err, context.Canceled) {
		t.Fatalf("queued cancellation: err = %v, want ErrCancelled wrapping context.Canceled", o.err)
	}
	waitFor(t, func() bool { return svc.Stats().QueueDepth == 2 }, "cancelled waiter to leave the queue")

	// Cancel A mid-run, then lift the gate: A aborts at its next
	// checkpoint, everything else runs to completion.
	cancelA()
	gate.release()

	if o := <-aCh; !errors.Is(o.err, errs.ErrCancelled) || !errors.Is(o.err, context.Canceled) {
		t.Fatalf("mid-run cancellation: err = %v, want ErrCancelled wrapping context.Canceled", o.err)
	}
	if o := <-bCh; o.err != nil {
		t.Fatalf("blocker B: %v", o.err)
	} else if !reflect.DeepEqual(o.res.Levels, wantB.Levels) || !reflect.DeepEqual(o.res.Parents, wantB.Parents) || o.res.Visited != wantB.Visited {
		t.Fatal("blocker B differs from the serial reference")
	}
	if o := <-w1Ch; o.err != nil {
		t.Fatalf("waiter W1: %v", o.err)
	} else if !reflect.DeepEqual(o.res.Levels, wantW1.Levels) || o.res.Visited != wantW1.Visited {
		t.Fatal("waiter W1 differs from the serial x-stream reference")
	}
	if o := <-w2Ch; o.err != nil {
		t.Fatalf("waiter W2: %v", o.err)
	} else if !reflect.DeepEqual(o.res.Levels, wantLv) || !reflect.DeepEqual(o.res.Parents, wantPar) {
		t.Fatal("waiter W2 differs from the serial multi-source reference")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1}); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("submit after shutdown: err = %v, want ErrClosed", err)
	}
	assertOnlyDataset(t, vol, m)

	st := svc.Stats()
	want := serve.Stats{
		Admitted: 4, Completed: 3, Cancelled: 2, Rejected: 2,
		CacheMisses: 7, CacheSize: 3,
		// Device bytes vary with partitioning and trim decisions; this
		// test pins the admission-control ledger, not I/O volume.
		DeviceBytes: st.DeviceBytes,
	}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	// The same numbers must be visible through the obs tracer.
	cm := tr.CounterMap()
	for name, v := range map[string]int64{
		obs.CtrServeAdmitted:  4,
		obs.CtrServeRejected:  2,
		obs.CtrServeCancelled: 2,
		obs.CtrServeCompleted: 3,
	} {
		if cm[name] != v {
			t.Errorf("obs counter %s = %d, want %d", name, cm[name], v)
		}
	}
}

// TestServiceConcurrentMixedLoad is the acceptance test: 36 concurrent
// queries (mixed BFS on both serving engines, multi-source BFS, SSSP, plus
// pre-cancelled submissions) against one service with tight admission
// limits. Rejected queries retry until admitted; every answer must be
// byte-identical to its serial reference, and the drained service must
// leak neither goroutines nor working files.
func TestServiceConcurrentMixedLoad(t *testing.T) {
	vol, m := storedGraph(t)

	type job struct {
		q         serve.Query
		cancelled bool // submitted with an already-dead context
		wantLv    []uint32
		wantPar   []graph.VertexID
		wantDist  []float32
		checkVis  bool // compare Visited against wantVis
		wantVis   uint64
	}
	var distinct []job
	for p := graph.VertexID(0); p < 2; p++ {
		b := refBFS(t, serve.EngineFastBFS, vol, m.Name, 1+3*p)
		distinct = append(distinct, job{
			q:      serve.Query{Algorithm: serve.AlgoBFS, Root: 1 + 3*p},
			wantLv: b.Levels, wantPar: b.Parents, checkVis: true, wantVis: b.Visited,
		})
		x := refBFS(t, serve.EngineXStream, vol, m.Name, 2+3*p)
		distinct = append(distinct, job{
			q:      serve.Query{Algorithm: serve.AlgoBFS, Engine: serve.EngineXStream, Root: 2 + 3*p},
			wantLv: x.Levels, wantPar: x.Parents, checkVis: true, wantVis: x.Visited,
		})
		x = refBFS(t, serve.EngineXStream, vol, m.Name, 4+3*p)
		distinct = append(distinct, job{
			q:      serve.Query{Algorithm: serve.AlgoBFS, Engine: serve.EngineXStream, Root: 4 + 3*p},
			wantLv: x.Levels, wantPar: x.Parents, checkVis: true, wantVis: x.Visited,
		})
		roots := []graph.VertexID{5*p + 6, 5*p + 60, 5*p + 120}
		lv, par := refMSBFS(t, vol, m.Name, roots)
		distinct = append(distinct, job{
			q:      serve.Query{Algorithm: serve.AlgoMSBFS, Roots: roots},
			wantLv: lv, wantPar: par,
		})
		d := refSSSP(t, vol, m.Name, 7*p+8)
		distinct = append(distinct, job{
			q:        serve.Query{Algorithm: serve.AlgoSSSP, Root: 7*p + 8},
			wantDist: d,
		})
	}
	var jobs []job
	for i := 0; i < 3; i++ { // 10 distinct queries, 3 submissions each
		jobs = append(jobs, distinct...)
	}
	for j := graph.VertexID(0); j < 6; j++ { // plus 6 pre-cancelled
		jobs = append(jobs, job{
			q:         serve.Query{Algorithm: serve.AlgoBFS, Root: 200 + j, NoCache: true},
			cancelled: true,
		})
	}
	if len(jobs) < 32 {
		t.Fatalf("only %d concurrent queries, want >= 32", len(jobs))
	}

	tr := obs.New()
	defer tr.Close()
	svc, err := serve.New(vol, m.Name, serve.Config{
		MaxInFlight: 4, MaxQueue: 8, CacheEntries: 32, Base: smallBase(), Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	dead, kill := context.WithCancel(context.Background())
	kill()

	// The write gate pins the first admitted queries so the rest of the
	// load observably saturates admission before anything completes.
	gate := newWriteGate(vol)

	var busy atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			<-start
			ctx := context.Background()
			if j.cancelled {
				ctx = dead
			}
			var res *serve.Result
			var err error
			for {
				res, err = svc.Submit(ctx, j.q)
				if !errors.Is(err, errs.ErrBusy) {
					break
				}
				busy.Add(1)
				time.Sleep(2 * time.Millisecond)
			}
			switch {
			case j.cancelled:
				if !errors.Is(err, errs.ErrCancelled) {
					fail <- "pre-cancelled query did not fail with ErrCancelled"
				}
			case err != nil:
				fail <- "query " + string(j.q.Algorithm) + ": " + err.Error()
			case !reflect.DeepEqual(res.Levels, j.wantLv),
				!reflect.DeepEqual(res.Parents, j.wantPar),
				!reflect.DeepEqual(res.Distances, j.wantDist),
				j.checkVis && res.Visited != j.wantVis:
				fail <- "query " + string(j.q.Algorithm) + " differs from its serial reference"
			}
		}(j)
	}
	close(start)
	waitFor(t, func() bool {
		st := svc.Stats()
		return st.InFlight == 4 && st.QueueDepth == 8 && st.Rejected > 0
	}, "saturated admission under the gated load")
	gate.release()
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	assertOnlyDataset(t, vol, m)

	// Every successful submission either executed or hit the cache.
	st := svc.Stats()
	if st.Completed+st.CacheHits != 30 {
		t.Errorf("completed %d + cache hits %d != 30 successful queries", st.Completed, st.CacheHits)
	}
	if st.Cancelled != 6 {
		t.Errorf("cancelled = %d, want the 6 pre-cancelled queries", st.Cancelled)
	}
	if st.Rejected != busy.Load() {
		t.Errorf("rejected counter %d != %d ErrBusy returns observed", st.Rejected, busy.Load())
	}
	if st.Rejected == 0 {
		t.Error("36 concurrent queries against 4+8 slots produced no admission rejections")
	}
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("drained service still reports inflight=%d queue=%d", st.InFlight, st.QueueDepth)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across the drained load", before, after)
	}
}

func TestServiceResultCache(t *testing.T) {
	vol, m := storedGraph(t)
	tr := obs.New()
	defer tr.Close()
	svc, err := serve.New(vol, m.Name, serve.Config{Base: smallBase(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	q := serve.Query{Algorithm: serve.AlgoBFS, Root: 1}
	r1, err := svc.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first submission reported a cache hit")
	}
	r2, err := svc.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("identical second submission missed the cache")
	}
	if !reflect.DeepEqual(r2.Levels, r1.Levels) || !reflect.DeepEqual(r2.Parents, r1.Parents) || r2.Visited != r1.Visited {
		t.Fatal("cached result differs from the computed one")
	}

	// NoCache bypasses lookup and store.
	q.NoCache = true
	r3, err := svc.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("NoCache submission reported a cache hit")
	}

	// Root order and duplicates do not fragment the multi-source key.
	if _, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoMSBFS, Roots: []graph.VertexID{9, 5, 5}}); err != nil {
		t.Fatal(err)
	}
	r5, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoMSBFS, Roots: []graph.VertexID{5, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !r5.Cached {
		t.Fatal("normalized multi-source roots missed the cache")
	}

	st := svc.Stats()
	if st.CacheHits != 2 || st.CacheMisses != 2 || st.CacheSize != 2 || st.Completed != 3 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses / 2 entries / 3 completed", st)
	}
}

func TestServiceRejectsBadQueries(t *testing.T) {
	vol, m := storedGraph(t)
	svc, err := serve.New(vol, m.Name, serve.Config{Base: smallBase()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	bad := []serve.Query{
		{Algorithm: "wcc", Root: 1},
		{Algorithm: serve.AlgoBFS, Root: graph.VertexID(m.Vertices)},
		{Algorithm: serve.AlgoBFS, Roots: []graph.VertexID{1, 2}},
		{Algorithm: serve.AlgoBFS, Engine: serve.Engine(42), Root: 1},
		{Algorithm: serve.AlgoBFS, Root: 1, MaxIterations: -1},
		{Algorithm: serve.AlgoMSBFS},
		{Algorithm: serve.AlgoMSBFS, Roots: []graph.VertexID{1, graph.VertexID(m.Vertices) + 3}},
		{Algorithm: serve.AlgoSSSP, Roots: []graph.VertexID{1}},
	}
	for _, q := range bad {
		if _, err := svc.Submit(context.Background(), q); !errors.Is(err, errs.ErrBadOptions) {
			t.Errorf("query %+v: err = %v, want ErrBadOptions", q, err)
		}
	}
	// GraphChi is a paper baseline: the service refuses it and says where
	// it does run.
	_, err = svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Engine: serve.EngineGraphChi, Root: 1})
	if !errors.Is(err, errs.ErrBadOptions) || !strings.Contains(err.Error(), "cmd/fastbfs -engine graphchi") {
		t.Errorf("graphchi query: err = %v, want ErrBadOptions naming cmd/fastbfs -engine graphchi", err)
	}
	if st := svc.Stats(); st.Admitted != 0 {
		t.Errorf("malformed queries reached admission: %+v", st)
	}

	if _, err := serve.ParseEngine("spark"); !errors.Is(err, errs.ErrBadOptions) {
		t.Errorf("ParseEngine(spark): %v, want ErrBadOptions", err)
	}
	if e, err := serve.ParseEngine(" GraphChi "); err != nil || e != serve.EngineGraphChi {
		t.Errorf("ParseEngine is not case/space-insensitive: %v %v", e, err)
	}
	if _, err := serve.RunEngine(context.Background(), serve.Engine(9), vol, m.Name, smallBase()); !errors.Is(err, errs.ErrBadOptions) {
		t.Errorf("RunEngine(9): %v, want ErrBadOptions", err)
	}
}

func TestServiceGraphNotFound(t *testing.T) {
	_, err := serve.New(storage.NewMem(), "absent", serve.Config{})
	if !errors.Is(err, errs.ErrGraphNotFound) {
		t.Fatalf("New on an empty volume: err = %v, want ErrGraphNotFound", err)
	}
	if !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("sentinel chain lost the storage cause: %v", err)
	}
}

// TestServiceShutdownDrains: Shutdown wakes queued waiters with
// ErrClosed, reports a blown drain deadline, but lets already-admitted
// queries finish — and a later Close observes the completed drain.
func TestServiceShutdownDrains(t *testing.T) {
	vol, m := storedGraph(t)
	want := refBFS(t, serve.EngineFastBFS, vol, m.Name, 1)

	svc, err := serve.New(vol, m.Name, serve.Config{MaxInFlight: 1, MaxQueue: 2, Base: smallBase()})
	if err != nil {
		t.Fatal(err)
	}
	gate := newWriteGate(vol)

	bCh, wCh := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		r, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1})
		bCh <- outcome{r, err}
	}()
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 }, "blocker in flight")
	go func() {
		r, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 2})
		wCh <- outcome{r, err}
	}()
	waitFor(t, func() bool { return svc.Stats().QueueDepth == 1 }, "waiter queued")

	// Drain with a dead context: the blocker is still gated, so the wait
	// is interrupted — but the service is closed and waiters are woken.
	dead, kill := context.WithCancel(context.Background())
	kill()
	if err := svc.Shutdown(dead); err == nil {
		t.Fatal("Shutdown with an expired context reported a clean drain")
	}
	if o := <-wCh; !errors.Is(o.err, errs.ErrClosed) {
		t.Fatalf("queued waiter after shutdown: err = %v, want ErrClosed", o.err)
	}
	if _, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 3}); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("submit after shutdown: err = %v, want ErrClosed", err)
	}

	// The admitted query still runs to completion once unblocked.
	gate.release()
	o := <-bCh
	if o.err != nil {
		t.Fatalf("admitted query interrupted by shutdown: %v", o.err)
	}
	if !reflect.DeepEqual(o.res.Levels, want.Levels) || o.res.Visited != want.Visited {
		t.Fatal("query finished during drain differs from the serial reference")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	assertOnlyDataset(t, vol, m)
}

// TestServiceShutdownExpiredContextWakesWaiters is the regression test
// for the drain-ordering bug: Shutdown called with an already-expired
// context must still wake every queued waiter with ErrClosed before
// returning the deadline error, rather than abandoning them parked on
// their grant channels.
func TestServiceShutdownExpiredContextWakesWaiters(t *testing.T) {
	vol, m := storedGraph(t)
	svc, err := serve.New(vol, m.Name, serve.Config{MaxInFlight: 1, MaxQueue: 4, Base: smallBase()})
	if err != nil {
		t.Fatal(err)
	}
	gate := newWriteGate(vol)

	bCh := make(chan outcome, 1)
	go func() {
		r, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1})
		bCh <- outcome{r, err}
	}()
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 }, "blocker in flight")

	const queued = 4
	waiters := make(chan error, queued)
	for i := 0; i < queued; i++ {
		q := serve.Query{Algorithm: serve.AlgoBFS, Root: graph.VertexID(10 + i)}
		go func() {
			_, err := svc.Submit(context.Background(), q)
			waiters <- err
		}()
	}
	waitFor(t, func() bool { return svc.Stats().QueueDepth == queued }, "waiters queued")

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := svc.Shutdown(expired); err == nil {
		t.Fatal("Shutdown with an expired deadline reported a clean drain")
	}
	// Every waiter was woken with ErrClosed; none is left parked waiting
	// for a grant that will never come.
	for i := 0; i < queued; i++ {
		select {
		case err := <-waiters:
			if !errors.Is(err, errs.ErrClosed) {
				t.Fatalf("waiter %d woke with %v, want ErrClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still parked after Shutdown returned", i)
		}
	}
	waitFor(t, func() bool { return svc.Stats().QueueDepth == 0 }, "queue drained")

	gate.release()
	if o := <-bCh; o.err != nil {
		t.Fatalf("admitted query interrupted by shutdown: %v", o.err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	assertOnlyDataset(t, vol, m)
}

// TestServiceAutoDirectionOverFixedReverse: an out-of-core service over a
// fixed store with its transposed graph, every query direction auto,
// answers five roots whose first bottom-up pass reads the .rev in ranges
// that cut a target's tails — each tree the top-down run's — and never
// trips its breaker.
func TestServiceAutoDirectionOverFixedReverse(t *testing.T) {
	m, edges, err := gen.RMAT(15, 16, gen.Graph500(), 1)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Reverse: true}); err != nil {
		t.Fatal(err)
	}
	base := core.Options{Base: xstream.Options{MemoryBudget: 32 << 10, Sim: xstream.ScaledSim(512), Direction: xstream.DirectionAuto}}
	svc, err := serve.New(vol, m.Name, serve.Config{MaxInFlight: 1, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Stats().PreparedResident != 0 {
		t.Fatal("the service holds the graph resident: the test is vacuous")
	}
	for _, root := range []graph.VertexID{2730, 2, 3, 4, 5} {
		res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: root, NoCache: true})
		if err != nil {
			t.Errorf("root %d: %v", root, err)
			continue
		}
		o := base
		o.Base.Root, o.Base.Direction = root, xstream.DirectionTopDown
		want, err := core.Run(vol, m.Name, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Levels, want.Levels) || !reflect.DeepEqual(res.Parents, want.Parents) {
			t.Errorf("root %d: the service's tree is not the top-down run's", root)
		}
	}
	if st := svc.Stats(); st.BreakerTrips != 0 {
		t.Fatalf("%d breaker trips", st.BreakerTrips)
	}
}
