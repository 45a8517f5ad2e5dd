package stream

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
)

// This file implements the parallel scatter path: the edge stream of a
// partition is cut into fixed-size chunks consumed by a pool of worker
// goroutines, mirroring the prototype's multi-threaded streaming
// ("several stream buffers for reading edges and writing updates", §III)
// and the observation in the distributed-BFS literature (Buluç & Madduri)
// that scatter/update generation is embarrassingly parallel once update
// routing is sharded by destination partition.
//
// Determinism contract. Chunk boundaries depend only on the chunk size,
// never on the worker count; each worker writes into a private Shard
// (per-destination-partition update slices plus a stay-edge slice); and
// the engine thread merges shards strictly in chunk order. Concatenating
// in-chunk order over chunks in file order reproduces the sequential
// edge-scan order exactly, so every update file and stay file is
// byte-identical for any worker count, including 1.
//
// Timing contract. Only the engine thread (the Run caller) touches the
// scanner, the shuffler's writers, the stay file and therefore the
// disksim clock; workers do pure compute on decoded edges. Per-chunk
// counters are accumulated in the shard and folded at merge, which keeps
// the simulated-time accounting single-threaded and byte-deterministic.

// Shard is one chunk's private scatter output.
type Shard struct {
	// ByPart holds the chunk's emitted updates pre-routed by destination
	// partition, each slice in edge-scan order.
	ByPart [][]graph.Update
	// Stays holds the chunk's surviving (trim-rule) edges in scan order.
	// It starts as the empty front of the pool-owned buffer the chunk
	// itself sits in, so appending survivors compacts them in place
	// instead of growing a second copy (see ScatterFunc).
	Stays []graph.Edge

	// Read is the records the scanner read for the chunk, set by the pool:
	// those it kept, which fn sees, and those a hint dropped (Keep).
	Read    int64
	Scanned int64
	Emitted int64
	Stayed  int64
	// CandDeg is the out-degree sum over the targets of the chunk's
	// emitted updates, when the engine keeps a degree table (the
	// direction heuristic's look-ahead, summed here so it runs on the
	// workers).
	CandDeg int64
	// Err aborts the run at this chunk's merge point (edges outside the
	// partition's vertex interval).
	Err error

	// chunk is the buffer Stays borrows, held until the shard has been
	// merged.
	chunk []graph.Edge
}

func (s *Shard) reset() {
	for i := range s.ByPart {
		s.ByPart[i] = s.ByPart[i][:0]
	}
	s.Stays = nil
	s.Read, s.Scanned, s.Emitted, s.Stayed, s.CandDeg, s.Err = 0, 0, 0, 0, 0, nil
}

// ScatterFunc classifies one chunk of edges into out. It runs on a
// worker goroutine: it must only read shared state (vertex levels) and
// write to out. out.Stays aliases the front of edges: append to it at
// most one survivor per edge scanned, in scan order, and do not go back
// to an edge already passed.
type ScatterFunc func(edges []graph.Edge, out *Shard)

// MergeFunc folds one completed shard into the engine's streams. It runs
// on the engine thread, strictly in chunk order; returning an error
// aborts the scatter. The shard is recycled after the call — do not
// retain its slices.
type MergeFunc func(*Shard) error

// ScatterPool fans partition edge chunks out to Workers goroutines and
// folds the resulting shards back in order. One pool serves a whole
// engine run (its buffers are recycled across partitions and
// iterations); each Run call spawns its workers afresh and joins them
// before returning, so an aborted scatter leaks nothing.
type ScatterPool struct {
	workers    int
	chunkEdges int
	parts      int

	// ChunkCounter and BusyCounter, when non-nil, feed the worker
	// utilization view: chunks processed, and cumulative worker
	// nanoseconds spent classifying (wall time; compare against
	// elapsed scatter time × workers for utilization).
	ChunkCounter *obs.Counter
	BusyCounter  *obs.Counter

	// FaultHook, when non-nil, runs before every chunk classification —
	// a fault-injection seam for chaos testing. A hook that panics
	// exercises the pool's panic isolation: the panic is recovered on
	// the worker (or the inline serial path), converted into a
	// PanicError on the shard, and aborts the run at that chunk's merge
	// point like any other scatter error.
	FaultHook func()

	// shards and chunks are the free-lists of recycled shards and decoded
	// edge-chunk buffers, held strongly so they (and the shards' grown
	// update slices) survive garbage collections for as long as the pool
	// lives (one run, or many for a pool kept in a reused scratch); at
	// most PipelineDepth plus Workers of either ever exist. mu guards
	// both, since workers fetch their own shards and release their chunks.
	mu     sync.Mutex
	shards []*Shard
	chunks [][]graph.Edge
}

// NewScatterPool sizes a pool: workers goroutines (minimum 1; 1 means
// the serial in-line path), chunkEdges edges per chunk, parts
// destination partitions per shard.
func NewScatterPool(workers, chunkEdges, parts int) *ScatterPool {
	if workers < 1 {
		workers = 1
	}
	if chunkEdges < 1 {
		chunkEdges = 1
	}
	if parts < 1 {
		parts = 1
	}
	return &ScatterPool{workers: workers, chunkEdges: chunkEdges, parts: parts}
}

// Workers returns the pool's worker count.
func (sp *ScatterPool) Workers() int { return sp.workers }

func (sp *ScatterPool) getShard() *Shard {
	var sh *Shard
	sp.mu.Lock()
	if n := len(sp.shards); n > 0 {
		sh, sp.shards = sp.shards[n-1], sp.shards[:n-1]
	}
	sp.mu.Unlock()
	if sh == nil {
		return &Shard{ByPart: make([][]graph.Update, sp.parts)}
	}
	sh.reset()
	return sh
}

func (sp *ScatterPool) putShard(sh *Shard) {
	sp.mu.Lock()
	if sh.chunk != nil {
		sp.chunks = append(sp.chunks, sh.chunk)
		sh.chunk = nil
	}
	sp.shards = append(sp.shards, sh)
	sp.mu.Unlock()
}

func (sp *ScatterPool) getChunk() []graph.Edge {
	var c []graph.Edge
	sp.mu.Lock()
	if n := len(sp.chunks); n > 0 {
		c, sp.chunks = sp.chunks[n-1], sp.chunks[:n-1]
	}
	sp.mu.Unlock()
	if c == nil {
		c = make([]graph.Edge, sp.chunkEdges)
	}
	return c
}

func (sp *ScatterPool) putChunk(c []graph.Edge) {
	sp.mu.Lock()
	sp.chunks = append(sp.chunks, c)
	sp.mu.Unlock()
}

// RunScanner streams sc chunk by chunk through the pool. The scanner is
// consumed on the calling goroutine (its refills charge the clock); the
// caller still owns closing it. A chunk is the records read (NextKept),
// which fix its place among the refills; fn sees the ones kept, maybe none.
func (sp *ScatterPool) RunScanner(sc *Scanner[graph.Edge], fn ScatterFunc, merge MergeFunc) error {
	return sp.RunScannerDepth(sc, PipelineDepth, fn, merge)
}

// RunScannerDepth is RunScanner with at most depth chunks dispatched
// ahead of the merge: fewer chunk buffers in flight over a long stream, and
// at depth 1 the device sees what a serial read-then-process loop issues.
// Like PipelineDepth, depth must not depend on the worker count.
func (sp *ScatterPool) RunScannerDepth(sc *Scanner[graph.Edge], depth int, fn ScatterFunc, merge MergeFunc) error {
	next := func() ([]graph.Edge, int, error) {
		buf := sp.getChunk()
		n, read, err := sc.NextKept(buf)
		if err != nil || read == 0 {
			sp.putChunk(buf)
			return nil, 0, err
		}
		return buf[:n], read, nil
	}
	return sp.run(next, depth, fn, merge)
}

// chunkJob carries one chunk to a worker; out (buffered, capacity 1)
// carries the shard back so a worker never blocks on delivering results.
type chunkJob struct {
	edges []graph.Edge
	read  int
	out   chan *Shard
}

// PipelineDepth is how many chunks may be dispatched ahead of the merge
// frontier. It is a constant — never derived from the worker count —
// because the dispatch loop's alternation of next() (scanner refills:
// simulated reads) and merge() (shuffler/stay appends: simulated
// writes) IS the device-op interleaving the disksim positioning model
// sees. A worker-dependent window would make simulated execution time
// vary with the worker count; a fixed one keeps the clock sequence,
// like the file bytes, worker-invariant. Worker counts above this
// depth can't all be kept busy.
const PipelineDepth = 32

// run is the pool's engine: next yields chunks, each the front of a
// getChunk buffer with the records read for it (0 = end of stream), on
// the calling goroutine, fn classifies them, merge folds shards back in
// chunk order, at most depth chunks behind dispatch. Serial and parallel
// modes share the same dispatch/merge structure (classification just happens inline vs. on a worker), so
// the sequence of next and merge calls — and everything the simulated
// clock observes — is identical for every worker count. On any error —
// scan, classify or merge — it stops dispatching, joins every worker
// and returns the first error.
func (sp *ScatterPool) run(next func() ([]graph.Edge, int, error), depth int, fn ScatterFunc, merge MergeFunc) error {
	parallel := sp.workers > 1
	var jobs chan chunkJob
	var wg sync.WaitGroup
	if parallel {
		jobs = make(chan chunkJob, sp.workers)
		wg.Add(sp.workers)
		for w := 0; w < sp.workers; w++ {
			go func() {
				defer wg.Done()
				for j := range jobs {
					j.out <- sp.classify(j.edges, j.read, fn)
				}
			}()
		}
	}

	var pending []chan *Shard
	var firstErr error
	mergeOne := func() {
		sh := <-pending[0]
		pending = pending[1:]
		if firstErr == nil {
			if sh.Err != nil {
				firstErr = sh.Err
			} else {
				firstErr = merge(sh)
			}
		}
		sp.putShard(sh)
	}
	dispatch := func(edges []graph.Edge, read int) {
		out := make(chan *Shard, 1)
		if parallel {
			jobs <- chunkJob{edges: edges, read: read, out: out}
		} else {
			out <- sp.classify(edges, read, fn)
		}
		pending = append(pending, out)
	}
	for firstErr == nil {
		edges, read, err := next()
		if err != nil {
			firstErr = err
			break
		}
		if read == 0 {
			break
		}
		dispatch(edges, read)
		if len(pending) >= depth {
			mergeOne()
		}
	}
	if parallel {
		close(jobs)
	}
	for len(pending) > 0 {
		mergeOne()
	}
	wg.Wait()
	return firstErr
}

// PanicError is the error a recovered scatter panic becomes. It wraps
// errs.ErrInternal so the serving layer can map it to HTTP 500, and it
// carries the panic value and the worker's stack for the crash log. The
// panic never escapes the worker goroutine: it aborts only the run that
// raised it, through the same Shard.Err merge path as any scan error.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("scatter panic: %v: %v", e.Value, errs.ErrInternal)
}

func (e *PanicError) Unwrap() error { return errs.ErrInternal }

// classify runs fn over one chunk, read records long, into a recycled
// shard. The chunk's survivors compact into the front of its own buffer,
// which the shard then holds until it has been merged; a chunk that kept
// none gives the buffer straight back.
func (sp *ScatterPool) classify(edges []graph.Edge, read int, fn ScatterFunc) *Shard {
	sh := sp.getShard()
	sh.Read, sh.Stays = int64(read), edges[:0]
	sp.classifyInto(edges, sh, fn)
	if len(sh.Stays) > 0 {
		sh.chunk = edges[:cap(edges)]
	} else {
		sh.Stays = nil
		sp.putChunk(edges[:cap(edges)])
	}
	return sh
}

// classifyInto runs fn over one chunk with utilization accounting. A
// panic in fn (or the FaultHook) is recovered into sh.Err rather than
// killing the process: a long-lived server cannot afford one poisoned
// chunk taking every query down with it.
func (sp *ScatterPool) classifyInto(edges []graph.Edge, sh *Shard, fn ScatterFunc) {
	defer func() {
		if r := recover(); r != nil {
			sh.Err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if sp.BusyCounter == nil {
		if sp.FaultHook != nil {
			sp.FaultHook()
		}
		fn(edges, sh)
		sp.ChunkCounter.Add(1)
		return
	}
	start := time.Now()
	if sp.FaultHook != nil {
		sp.FaultHook()
	}
	fn(edges, sh)
	sp.BusyCounter.Add(time.Since(start).Nanoseconds())
	sp.ChunkCounter.Add(1)
}
