package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sort"
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
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Prepared-graph tests (DESIGN.md §16). Run with -race: the point of the
// shared edge list is that no query ever writes it.

// residentBase is an in-memory budget: every query of a service opened
// with it runs over the shared resident edge list.
func residentBase() core.Options {
	return core.Options{Base: xstream.Options{MemoryBudget: 1 << 30, StreamBufSize: 256, ScatterWorkers: 2, Sim: xstream.DefaultSim()}}
}

// streamingBase is a budget below every test graph (4 partitions on the
// 256-vertex one): the prepared graph holds metadata and permutation
// only, and every query streams — on the buffers of a scratch borrowed
// from the free-list.
func streamingBase() core.Options {
	o := residentBase()
	o.Base.MemoryBudget = 1024
	return o
}

// hubRoots returns the n highest-degree vertices, highest first: roots
// whose traversals take several iterations on an R-MAT graph.
func hubRoots(vertices uint64, edges []graph.Edge, n int) []graph.VertexID {
	deg := graph.Degrees(vertices, edges)
	vs := make([]graph.VertexID, vertices)
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	sort.SliceStable(vs, func(i, j int) bool { return deg[vs[i]] > deg[vs[j]] })
	return vs[:n]
}

// edgeChecksum checksums the shared resident out-lists and weights.
func edgeChecksum(pg *xstream.PreparedGraph) uint32 {
	h := crc32.NewIEEE()
	off, dst, weights := pg.Out()
	for _, a := range []any{off, dst, weights} {
		binary.Write(h, binary.LittleEndian, a)
	}
	return h.Sum32()
}

func waitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d %s", before, after, what)
	}
}

// TestPreparedConcurrentQueriesMatchUnpreparedRuns is the prepared
// graph's acceptance test. Three stores of one R-MAT graph (fixed,
// delta+reordered, weighted) sit on a Counting volume; services —
// batching off, batch width 2, batch width 32 — take 70-odd queries at
// once: solo fastbfs and xstream BFS with and without an iteration cap,
// BFS through the batching services (batched out of core, solo on a
// resident one, whose hour-long hold window must then never open),
// MS-BFS, SSSP, one query on a poisoned root and one cancelled mid-run. Every answer must be byte-identical to the same
// query run through the engine's own RunContext WITHOUT a prepared
// graph. At the in-memory budget the volume must see not one byte of
// traffic between the opens and the closes, and the shared edge lists
// must come out exactly as they went in; at the out-of-core budget
// every query streams on a scratch (stream buffers, scatter pool,
// vertex arrays) handed from query to query through the scratch
// free-list, four at a time.
func TestPreparedConcurrentQueriesMatchUnpreparedRuns(t *testing.T) {
	t.Run("resident", func(t *testing.T) { preparedConcurrentQueries(t, residentBase(), true) })
	t.Run("out-of-core", func(t *testing.T) { preparedConcurrentQueries(t, streamingBase(), false) })
}

func preparedConcurrentQueries(t *testing.T, base core.Options, resident bool) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	wedges := make([]graph.WEdge, len(edges))
	for i, e := range edges {
		wedges[i] = graph.WEdge{Src: e.Src, Dst: e.Dst, Weight: float32(1 + (i*7)%5)}
	}
	mem := storage.NewMem()
	vol := storage.NewCounting(mem, "prepared")
	fixed, reord, weighted := m, m, m
	fixed.Name, reord.Name, weighted.Name = "fixed", "reord", "weighted"
	if err := graph.StoreGraph(vol, fixed, edges, graph.StoreOptions{Reverse: true}); err != nil {
		t.Fatal(err)
	}
	if err := graph.StoreGraph(vol, reord, edges, graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}); err != nil {
		t.Fatal(err)
	}
	if err := graph.StoreWeighted(vol, weighted, wedges); err != nil {
		t.Fatal(err)
	}
	stored := make(map[string]bool)
	for _, f := range vol.List() {
		stored[f] = true
	}
	roots := hubRoots(m.Vertices, edges, 40)
	const panicRoot = 200 // not among the queried roots below

	// References: each engine's own RunContext, same options, no Prepared.
	ctx := context.Background()
	refBFS := func(g string, e serve.Engine, root graph.VertexID, maxIter int) *core.Result {
		o := base
		o.Base.Root, o.Base.MaxIterations = root, maxIter
		var res *core.Result
		var err error
		if e == serve.EngineXStream {
			res, err = xstream.RunContext(ctx, vol, g, o.Base)
		} else {
			res, err = core.RunContext(ctx, vol, g, o)
		}
		if err != nil {
			t.Fatalf("reference %s bfs on %s from %d: %v", e, g, root, err)
		}
		if maxIter == 0 && len(res.Metrics.Iterations) < 3 {
			t.Fatalf("reference bfs from %d took %d iterations; pick a deeper root", root, len(res.Metrics.Iterations))
		}
		return res
	}
	refAlgo := func(g string, prog algo.Program) []uint64 {
		res, err := algo.RunContext(ctx, vol, g, prog, base.Base)
		if err != nil {
			t.Fatalf("reference %s on %s: %v", prog.Name(), g, err)
		}
		if res.Metrics.BytesRead == 0 {
			t.Fatalf("reference %s on %s did not stream", prog.Name(), g)
		}
		return res.Values
	}

	type job struct {
		svc  *serve.GraphService
		q    serve.Query
		want serve.Result // Levels/Parents/Distances/Visited
		// wantErr, when set, is the sentinel the query must fail with.
		wantErr error
		ctx     context.Context
		batched bool
		// mayNotWrite marks a capped FastBFS query: cut while it still
		// reads the stored file, before its split, it writes nothing.
		mayNotWrite bool
	}
	var jobs []job
	var services []*serve.GraphService
	open := func(g string, cfg serve.Config) *serve.GraphService {
		cfg.CacheEntries = -1 // every query must execute
		cfg.MaxInFlight, cfg.MaxQueue = 4, 128
		if cfg.Base.Base.MemoryBudget == 0 {
			cfg.Base = base
		}
		// Every service shares the one volume: a streaming service's working
		// files carry its process-unique id, so services never remove each
		// other's.
		svc, err := serve.New(vol, g, cfg)
		if err != nil {
			t.Fatalf("open %s: %v", g, err)
		}
		if st := svc.Stats(); resident && (st.PreparedResident != 1 || st.PreparedEdges != int64(len(edges))) {
			t.Fatalf("%s: prepared stats %+v, want resident with %d edges", g, st, len(edges))
		} else if !resident && (st.PreparedResident != 0 || st.PreparedEdges != 0) {
			t.Fatalf("%s: prepared stats %+v, want not resident", g, st)
		}
		services = append(services, svc)
		return svc
	}
	before := runtime.NumGoroutine()

	for _, g := range []string{"fixed", "reord"} {
		solo := open(g, serve.Config{PanicRoot: panicRoot})
		for i, e := range []serve.Engine{serve.EngineFastBFS, serve.EngineXStream} {
			for k, maxIter := range []int{0, 0, 2, 3} {
				root := roots[4*i+k]
				ref := refBFS(g, e, root, maxIter)
				jobs = append(jobs, job{svc: solo,
					q:           serve.Query{Algorithm: serve.AlgoBFS, Engine: e, Root: root, MaxIterations: maxIter},
					want:        serve.Result{Levels: ref.Levels, Parents: ref.Parents, Visited: ref.Visited},
					mayNotWrite: e == serve.EngineFastBFS && maxIter > 0})
			}
		}
		for k := 0; k < 2; k++ {
			rs := []graph.VertexID{roots[10+k], roots[20+k], 1}
			sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
			prog := algo.NewMultiSourceBFS(rs)
			vals := refAlgo(g, prog)
			jobs = append(jobs, job{svc: solo, q: serve.Query{Algorithm: serve.AlgoMSBFS, Roots: rs},
				want: serve.Result{Levels: prog.Levels(vals), Parents: prog.Parents(vals)}})
			sp := algo.NewSSSP(roots[12+k])
			jobs = append(jobs, job{svc: solo, q: serve.Query{Algorithm: serve.AlgoSSSP, Root: roots[12+k]},
				want: serve.Result{Distances: sp.Distances(refAlgo(g, sp))}})
		}
		jobs = append(jobs, job{svc: solo, q: serve.Query{Algorithm: serve.AlgoBFS, Root: panicRoot}, wantErr: errs.ErrInternal})

		for _, width := range []int{2, 32} {
			// The hold window never expires: out of core a batch runs when
			// it is full, so its width is exactly BatchSize; a resident
			// service forms none.
			bsvc := open(g, serve.Config{BatchSize: width, BatchWait: time.Hour})
			for k := 0; k < width; k++ {
				ref := refBFS(g, serve.EngineFastBFS, roots[k], 0)
				jobs = append(jobs, job{svc: bsvc, batched: !resident,
					q:    serve.Query{Algorithm: serve.AlgoBFS, Engine: []serve.Engine{serve.EngineFastBFS, serve.EngineXStream}[k%2], Root: roots[k]},
					want: serve.Result{Levels: ref.Levels, Parents: ref.Parents, Visited: ref.Visited}})
			}
		}
	}
	wsvc := open("weighted", serve.Config{})
	for k := 0; k < 3; k++ {
		sp := algo.NewSSSP(roots[k])
		jobs = append(jobs, job{svc: wsvc, q: serve.Query{Algorithm: serve.AlgoSSSP, Root: roots[k]},
			want: serve.Result{Distances: sp.Distances(refAlgo("weighted", sp))}})
	}

	// The mid-run cancellation gets a service of its own whose fault hook
	// (called before every scatter chunk) cancels the query's context on
	// its second call — inside iteration 0's scatter, so the iteration-1
	// checkpoint is what stops the run.
	victimCtx, cancelVictim := context.WithCancel(ctx)
	defer cancelVictim()
	var hookCalls atomic.Int64
	victimBase := base
	victimBase.Base.FaultHook = func() {
		if hookCalls.Add(1) == 2 {
			cancelVictim()
		}
	}
	victim := open("fixed", serve.Config{Base: victimBase})
	jobs = append(jobs, job{svc: victim, ctx: victimCtx, wantErr: errs.ErrCancelled,
		q: serve.Query{Algorithm: serve.AlgoBFS, Root: roots[0]}})

	if len(jobs) < 36 {
		t.Fatalf("only %d concurrent queries, want >= 36", len(jobs))
	}
	sums := make([]uint32, len(services))
	for i, svc := range services {
		sums[i] = edgeChecksum(serve.PreparedOf(svc))
	}
	io0 := vol.Stats()

	start := make(chan struct{})
	fail := make(chan string, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			<-start
			qctx := j.ctx
			if qctx == nil {
				qctx = ctx
			}
			res, err := j.svc.Submit(qctx, j.q)
			what := fmt.Sprintf("job %d (%s %s on %s root %d cap %d)", i, j.q.Algorithm, j.q.Engine, j.svc.Graph().Name, j.q.Root, j.q.MaxIterations)
			// The algo engine — MS-BFS, SSSP and every batch — reads the
			// stored file and writes nothing.
			onAlgo := j.q.Algorithm != serve.AlgoBFS || j.batched
			switch {
			case j.wantErr != nil:
				if !errors.Is(err, j.wantErr) {
					fail <- fmt.Sprintf("%s: err = %v, want %v", what, err, j.wantErr)
				}
			case err != nil:
				fail <- fmt.Sprintf("%s: %v", what, err)
			case !reflect.DeepEqual(res.Levels, j.want.Levels), !reflect.DeepEqual(res.Parents, j.want.Parents),
				!reflect.DeepEqual(res.Distances, j.want.Distances), j.want.Visited != 0 && res.Visited != j.want.Visited:
				fail <- what + ": differs from the run without a prepared graph"
			case res.Batched != j.batched:
				fail <- fmt.Sprintf("%s: Batched = %v", what, res.Batched)
			case resident && (res.Metrics.BytesRead != 0 || res.Metrics.BytesWritten != 0):
				fail <- fmt.Sprintf("%s: resident query reports %d/%d device bytes", what, res.Metrics.BytesRead, res.Metrics.BytesWritten)
			case !resident && (res.Metrics.BytesRead == 0 || onAlgo && res.Metrics.BytesWritten != 0 ||
				!onAlgo && !j.mayNotWrite && res.Metrics.BytesWritten == 0):
				fail <- fmt.Sprintf("%s: out-of-core query reports %d/%d device bytes", what, res.Metrics.BytesRead, res.Metrics.BytesWritten)
			}
		}(i, j)
	}
	close(start)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}

	for i, svc := range services {
		st := svc.Stats()
		if resident && st.DeviceBytes != 0 || !resident && st.Completed > 0 && st.DeviceBytes == 0 {
			t.Errorf("service %d: %d device bytes over %d answered queries, resident = %v", i, st.DeviceBytes, st.Completed, resident)
		}
		if bs := st.BatchRuns; bs > 0 && (resident || bs != 1 || st.BatchSolo != 0) {
			t.Errorf("service %d: %d batch runs, %d solo members; want one full batch out of core, none resident", i, bs, st.BatchSolo)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if got := edgeChecksum(serve.PreparedOf(svc)); got != sums[i] {
			t.Errorf("service %d: shared out-lists changed under the load", i)
		}
	}
	if d := vol.Stats().Sub(io0); resident && (d.BytesRead != 0 || d.BytesWritten != 0) {
		t.Errorf("volume moved %d bytes read, %d written between open and close", d.BytesRead, d.BytesWritten)
	}
	if n := hookCalls.Load(); n < 2 {
		t.Errorf("victim's fault hook fired %d times; the cancellation was not mid-run", n)
	}
	for _, f := range vol.List() {
		if !stored[f] {
			t.Errorf("leftover working file %s", f)
		}
	}
	waitGoroutines(t, before, "across the prepared load")
}

// TestPreparedWarmQueryAllocation bounds what a warmed resident solo
// query allocates: its two result arrays (V x 8 bytes) plus less than
// four times that again — against a reload of the whole edge list and an
// update list per iteration before the graph was prepared. Two at once
// on a service told to batch run solo all the same, and allocate their
// four result arrays and under 64 KiB more: queues and bitmaps are the
// pooled scratches'.
func TestPreparedWarmQueryAllocation(t *testing.T) {
	m, edges, err := gen.RMAT(12, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(vol, m.Name, serve.Config{CacheEntries: -1,
		Base: core.Options{Base: xstream.Options{ScatterWorkers: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	roots := hubRoots(m.Vertices, edges, 8)
	query := func(i int) {
		res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: roots[i%len(roots)]})
		if err != nil {
			t.Fatal(err)
		}
		if res.Visited < m.Vertices/4 {
			t.Fatalf("root %d reached only %d vertices", roots[i%len(roots)], res.Visited)
		}
	}
	for i := 0; i < 2*len(roots); i++ { // warm: grow the scratch to its high-water mark
		query(i)
	}
	const runs = 16
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < runs; i++ {
		query(i)
	}
	runtime.ReadMemStats(&ms1)
	perQuery := (ms1.TotalAlloc - ms0.TotalAlloc) / runs
	result := m.Vertices * 8
	if perQuery >= result+4*result {
		t.Fatalf("a warmed query allocates %d bytes; want < %d (result arrays %d + 4x)", perQuery, 5*result, result)
	}
	t.Logf("warmed resident query: %d bytes allocated (result arrays %d, edge list %d)", perQuery, result, m.Edges*graph.EdgeBytes)

	// Resident, so BatchSize forms no batch and the hold window never opens.
	batched, err := serve.New(vol, m.Name, serve.Config{CacheEntries: -1, BatchSize: 2, BatchWait: time.Minute,
		Base: core.Options{Base: xstream.Options{ScatterWorkers: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	pair := func(i int) {
		var wg sync.WaitGroup
		for _, root := range []graph.VertexID{roots[i%len(roots)], roots[(i+1)%len(roots)]} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := batched.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: root})
				if err != nil || res.Batched || res.Visited < m.Vertices/4 {
					t.Errorf("root %d: err %v, result %+v; want a solo answer from the giant component", root, err, res)
				}
			}()
		}
		wg.Wait()
	}
	for i := 0; i < 2*len(roots); i++ {
		pair(i)
	}
	runtime.ReadMemStats(&ms0)
	for i := 0; i < runs; i++ {
		pair(i)
	}
	runtime.ReadMemStats(&ms1)
	perBatch := (ms1.TotalAlloc - ms0.TotalAlloc) / runs
	if perBatch >= 2*result+64<<10 {
		t.Fatalf("a warmed pair of queries allocates %d bytes; want < %d (four result arrays %d + 64 KiB)", perBatch, 2*result+64<<10, 2*result)
	}
	if st := batched.Stats(); st.BatchRuns != 0 || st.Completed != int64(2*(2*len(roots)+runs)) || st.DeviceBytes != 0 {
		t.Fatalf("%d batch runs, %d answers moving %d device bytes; want none, %d and none", st.BatchRuns, st.Completed, st.DeviceBytes, 2*(2*len(roots)+runs))
	}
	t.Logf("warmed pair of queries: %d bytes allocated (result arrays %d)", perBatch, 2*result)
}

// TestPreparedOutOfCoreWarmQueryAllocation: with a budget below the
// graph a query streams, on a scratch it borrows from the process-wide
// free-list — stream buffers, scatter chunks and shards, vertex arrays,
// all warmed by the queries before it — whether it is served or a
// stand-alone core.RunContext. Either way a warmed query allocates less
// than three of its 256 KiB stream buffers — a run that builds its own set
// allocates about twenty — and the two answer with the same levels and
// parents byte for byte. What a warmed query does allocate is mostly the
// Mem volume's images of the files it writes, and its answer: one
// level/parent pair, 8 B a vertex, whatever the store's labels — so a
// warmed query on the reordered delta store, which writes less, allocates
// no more than on the same graph stored in delta unreordered (translating
// into a second pair would cost 32 KiB here).
func TestPreparedOutOfCoreWarmQueryAllocation(t *testing.T) {
	if os.Getenv("FASTBFS_FAULTS") != "" {
		t.Skip("the fault-injecting volume keeps an image of every file it writes, served or not")
	}
	m, edges, err := gen.RMAT(12, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// 4096 vertices x 16 B / 8 KiB = 8 partitions. What is left to a
	// warmed query is mostly the Mem volume's own images of the files it
	// writes, which no pool can save; 256 KiB buffers keep that term from
	// drowning the buffers this test is about.
	base := core.Options{Base: xstream.Options{MemoryBudget: 8192, StreamBufSize: 256 << 10, ScatterWorkers: 2}}
	roots := hubRoots(m.Vertices, edges, 8)
	var warms []uint64
	for _, so := range []graph.StoreOptions{{}, {Codec: graph.CodecDelta}, {Codec: graph.CodecDelta, ReorderByDegree: true}} {
		vol := storage.NewMem()
		if err := graph.StoreGraph(vol, m, edges, so); err != nil {
			t.Fatal(err)
		}
		svc, err := serve.New(vol, m.Name, serve.Config{CacheEntries: -1, Base: base})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if svc.Stats().PreparedResident != 0 {
			t.Fatal("service is resident; the queries would not stream")
		}
		standalone := func(i int) *core.Result {
			o := base
			o.Base.Root = roots[i%len(roots)]
			res, err := core.RunContext(context.Background(), vol, m.Name, o)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		served := func(i int) *serve.Result {
			res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: roots[i%len(roots)]})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		for i := 0; i < 2*len(roots); i++ { // warm: grow the scratch to its high-water mark
			got, want := served(i), standalone(i)
			if got.Visited < m.Vertices/4 || got.Metrics.BytesWritten == 0 {
				t.Fatalf("root %d: %d vertices reached, %d bytes written; want a streaming traversal", roots[i%len(roots)], got.Visited, got.Metrics.BytesWritten)
			}
			if !reflect.DeepEqual(got.Levels, want.Levels) || !reflect.DeepEqual(got.Parents, want.Parents) {
				t.Fatalf("root %d: served answer differs from the stand-alone run", roots[i%len(roots)])
			}
		}
		const runs = 16
		perQuery := func(query func(i int)) uint64 {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < runs; i++ {
				query(i)
			}
			runtime.ReadMemStats(&ms1)
			return (ms1.TotalAlloc - ms0.TotalAlloc) / runs
		}
		warm := perQuery(func(i int) { served(i) })
		alone := perQuery(func(i int) { standalone(i) })
		t.Logf("codec %q reorder %v: warmed out-of-core served query: %d bytes allocated; stand-alone run: %d (edge list %d)",
			so.Codec, so.ReorderByDegree, warm, alone, m.Edges*graph.EdgeBytes)
		if bound := uint64(3 * base.Base.StreamBufSize); warm >= bound || alone >= bound {
			t.Fatalf("a warmed served query allocates %d bytes, a warmed stand-alone run %d; want both under three stream buffers, %d", warm, alone, bound)
		}
		warms = append(warms, warm)
	}
	if warms[2] > warms[1] {
		t.Fatalf("a warmed query on the reordered store allocates %d bytes, on the unreordered one %d; want no more", warms[2], warms[1])
	}
}

// TestNewRetriesTransientFaultsAtOpen: transient read faults while the
// graph is being prepared are retried like any engine I/O, and the
// service then answers exactly like a fault-free run.
func TestNewRetriesTransientFaultsAtOpen(t *testing.T) {
	vol, m := storedGraph(t)
	base := residentBase()
	base.Base.RetryAttempts = 20
	base.Base.StreamBufSize = 64 // many reads, so faults are sure to fire
	faulty := storage.NewFaulty(vol, storage.FaultSpec{Seed: 3, ReadP: 0.2})
	svc, err := serve.New(faulty, m.Name, serve.Config{CacheEntries: -1, Base: base})
	if err != nil {
		t.Fatalf("open under transient faults: %v", err)
	}
	defer svc.Close()
	if st := svc.Stats(); st.IORetries == 0 || st.IOFailures != 0 || st.PreparedResident != 1 {
		t.Fatalf("after the open: %d retries, %d failures, resident %d; want retries, no failure, resident",
			st.IORetries, st.IOFailures, st.PreparedResident)
	}
	o := residentBase()
	o.Base.Root = 1
	want, err := core.RunContext(context.Background(), vol, m.Name, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Levels, want.Levels) || !reflect.DeepEqual(res.Parents, want.Parents) {
		t.Fatal("answer after a retried open differs from the fault-free run")
	}
}

// TestNewFailsAtOpenOnBrokenGraph: what used to fail every query now
// fails New — a volume that cannot be read (ErrIOFailed), a flipped bit
// in a checksummed edge file, an edge outside the vertex space, a
// damaged or unreadable permutation (ErrCorrupted / ErrIOFailed) — and
// a failed open leaves no goroutine behind.
func TestNewFailsAtOpenOnBrokenGraph(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(vol *storage.Mem, name string, at func(n int) int) {
		t.Helper()
		b, err := storage.ReadAll(vol, name)
		if err != nil {
			t.Fatal(err)
		}
		b[at(len(b))] ^= 0x80
		if err := storage.WriteAll(vol, name, b); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		store  graph.StoreOptions
		base   core.Options
		damage func(vol *storage.Mem) storage.Volume
		want   error
	}{
		{"permanent read fault", graph.StoreOptions{}, residentBase(),
			func(vol *storage.Mem) storage.Volume {
				return storage.NewFaulty(vol, storage.FaultSpec{Seed: 1, PReadP: 1, Match: ".edges"})
			}, errs.ErrIOFailed},
		{"flipped bit in a delta frame", graph.StoreOptions{Codec: graph.CodecDelta}, residentBase(),
			func(vol *storage.Mem) storage.Volume {
				flip(vol, graph.EdgeFileName(m.Name), func(n int) int { return n / 2 })
				return vol
			}, errs.ErrCorrupted},
		{"flipped high bit of a fixed edge", graph.StoreOptions{}, residentBase(),
			func(vol *storage.Mem) storage.Volume {
				flip(vol, graph.EdgeFileName(m.Name), func(n int) int { return n/2 | 3 }) // top byte of an endpoint
				return vol
			}, errs.ErrCorrupted},
		{"damaged permutation, out of core", graph.StoreOptions{ReorderByDegree: true}, smallBase(),
			func(vol *storage.Mem) storage.Volume {
				flip(vol, graph.PermFileName(m.Name), func(n int) int { return n - 1 })
				return vol
			}, errs.ErrCorrupted},
		{"unreadable permutation", graph.StoreOptions{ReorderByDegree: true}, residentBase(),
			func(vol *storage.Mem) storage.Volume {
				return storage.NewFaulty(vol, storage.FaultSpec{Seed: 1, PReadP: 1, Match: ".perm"})
			}, errs.ErrIOFailed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mem := storage.NewMem()
			if err := graph.StoreGraph(mem, m, edges, c.store); err != nil {
				t.Fatal(err)
			}
			vol := c.damage(mem)
			before := runtime.NumGoroutine()
			svc, err := serve.New(vol, m.Name, serve.Config{Base: c.base})
			if !errors.Is(err, c.want) || svc != nil {
				t.Fatalf("New = %v, %v; want %v", svc, err, c.want)
			}
			waitGoroutines(t, before, "across a failed open")
		})
	}
}

// TestPreparedObservability: Stats, /healthz and /metrics say whether the
// graph is resident and what the load cost, the open logs one line that
// explains the decision, and a resident query reports no device bytes
// where an out-of-core one reports its streaming. A resident weighted
// store holds no in-half, and a BFS over it is refused.
func TestPreparedObservability(t *testing.T) {
	vol, m := storedGraph(t)
	_, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	wm, wedges, err := gen.Weigh(m, edges, 1, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.StoreWeighted(vol, wm, wedges); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	for _, c := range []struct {
		m        graph.Meta
		base     core.Options
		resident int64
		// bytes is the resident form: out- and in-lists of 4 bytes an edge,
		// so the edge list's bytes, and their two offset arrays; on a
		// weighted store, the out-lists, their offsets and a weight an edge.
		bytes   int64
		logWant string
	}{
		{m, residentBase(), 1, int64(m.DataBytes()) + 16*int64(m.Vertices+1), "resident: 2048 edges"},
		{m, smallBase(), 0, 0, "not resident: memory budget 4096 < in-memory need"},
		{wm, residentBase(), 1, 8*int64(wm.Edges) + 8*int64(wm.Vertices+1), "resident: 2048 edges"},
	} {
		logged.Reset()
		svc, err := serve.New(vol, c.m.Name, serve.Config{CacheEntries: -1, Base: c.base})
		if err != nil {
			t.Fatal(err)
		}
		if got := logged.String(); !strings.Contains(got, c.logWant) || strings.Count(got, "\n") != 1 {
			t.Errorf("open logged %q, want one line containing %q", got, c.logWant)
		}
		st := svc.Stats()
		pg := serve.PreparedOf(svc)
		wantEdges, wantBytes := int64(c.m.Edges)*c.resident, pg.ResidentBytes()
		if wantBytes != c.bytes {
			t.Errorf("%s, resident=%d: prepared graph holds %d bytes, want %d", c.m.Name, c.resident, wantBytes, c.bytes)
		}
		if st.PreparedResident != c.resident || st.PreparedEdges != wantEdges || st.PreparedBytes != wantBytes ||
			(st.PreparedLoadSeconds > 0) != (c.resident == 1) {
			t.Errorf("resident=%d: stats %+v", c.resident, st)
		}
		res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 1})
		switch {
		case c.m.Weighted:
			if !errors.Is(err, errs.ErrBadOptions) {
				t.Errorf("BFS over the weighted store: err = %v, want ErrBadOptions", err)
			}
		case err != nil:
			t.Fatal(err)
		case (res.Metrics.BytesRead == 0) != (c.resident == 1):
			t.Errorf("resident=%d: query reports %d bytes read", c.resident, res.Metrics.BytesRead)
		}

		ts := httptest.NewServer(svc.Handler())
		var hz struct {
			Stats serve.Stats `json:"stats"`
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil || hz.Stats.PreparedResident != c.resident || hz.Stats.PreparedBytes != wantBytes {
			t.Errorf("resident=%d: /healthz stats %+v (%v)", c.resident, hz.Stats, err)
		}
		resp, err = http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range []string{
			fmt.Sprintf("fastbfs_prepared_resident %d\n", c.resident),
			fmt.Sprintf("fastbfs_prepared_edges %d\n", wantEdges),
			fmt.Sprintf("fastbfs_prepared_bytes %d\n", wantBytes),
			"fastbfs_prepared_load_seconds ",
		} {
			if !strings.Contains(string(body), line) {
				t.Errorf("resident=%d: /metrics lacks %q", c.resident, line)
			}
		}
		ts.Close()
		svc.Close()
	}
}
