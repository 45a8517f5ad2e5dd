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
// disksim clock: it reads stored bytes (delta blocks undecoded), cuts
// chunks and their hints (Hints) from them, and merges. Workers decode,
// check runs and classify: pure compute. Per-chunk counters are
// accumulated in the shard and folded at merge, which keeps the
// simulated-time accounting single-threaded and byte-deterministic.

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
	// those decoded, which fn sees, and those a hint dropped.
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
	// partition's vertex interval, a damaged chunk, a run its hint rejects).
	Err error

	// chunk is the buffer Stays borrows and hint the chunk's run checks
	// (Hints), both held until the shard has been merged.
	chunk []graph.Edge
	hint  graph.RunHint
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

	// shards, chunks, raws, hints and outs are the free-lists of recycled
	// shards, edge-chunk buffers, delta chunks as read, run checks and
	// result channels, held strongly so they (and the shards' update
	// slices) survive garbage collections for as long as the pool lives
	// (one run, or many for a pool kept in a reused scratch). mu guards
	// them: workers fetch their own shards and release their chunks.
	mu     sync.Mutex
	shards []*Shard
	chunks [][]graph.Edge
	raws   [][]byte
	hints  []graph.RunHint
	outs   []chan *Shard
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

// pop takes the last of *list, or, with none there, makes one.
func pop[T any](sp *ScatterPool, list *[]T, fresh func() T) (x T) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	n := len(*list)
	if n == 0 {
		return fresh()
	}
	x, *list = (*list)[n-1], (*list)[:n-1]
	return x
}

func push[T any](sp *ScatterPool, list *[]T, x T) {
	sp.mu.Lock()
	*list = append(*list, x)
	sp.mu.Unlock()
}

func (sp *ScatterPool) getShard() *Shard {
	sh := pop(sp, &sp.shards, func() *Shard { return &Shard{ByPart: make([][]graph.Update, sp.parts)} })
	sh.reset()
	return sh
}

func (sp *ScatterPool) putShard(sh *Shard) {
	if sh.chunk != nil {
		push(sp, &sp.chunks, sh.chunk)
	}
	if sh.hint != nil {
		push(sp, &sp.hints, sh.hint)
	}
	sh.chunk, sh.hint = nil, nil
	push(sp, &sp.shards, sh)
}

// RunScanner streams sc chunk by chunk through the pool. The scanner is
// consumed on the calling goroutine (its refills charge the clock); the
// caller still owns closing it. A chunk is the records read, which fix its
// place among the refills; fn sees those its worker decoded, maybe none.
func (sp *ScatterPool) RunScanner(sc *Scanner[graph.Edge], fn ScatterFunc, merge MergeFunc) error {
	return sp.RunScannerDepth(sc, PipelineDepth, nil, fn, merge)
}

// RunScannerDepth is RunScanner with at most depth chunks dispatched
// ahead of the merge: fewer chunk buffers in flight over a long stream, and
// at depth 1 the device sees what a serial read-then-process loop issues.
// Like PipelineDepth, depth must not depend on the worker count. hints
// (nil: none) check each chunk's runs as its worker decodes it (Hints).
func (sp *ScatterPool) RunScannerDepth(sc *Scanner[graph.Edge], depth int, hints Hints, fn ScatterFunc, merge MergeFunc) error {
	next := func() (j chunkJob, err error) {
		j.edges = pop(sp, &sp.chunks, func() []graph.Edge { return make([]graph.Edge, sp.chunkEdges) })
		j.raw.raw = pop(sp, &sp.raws, func() []byte { return nil })
		err = sc.cut(&j.raw, j.edges, sp.chunkEdges)
		if err == nil && j.raw.n > 0 && hints != nil {
			j.hint = hints.Chunk(pop(sp, &sp.hints, func() graph.RunHint { return nil }), j.raw.n, j.raw.head)
		}
		return j, err
	}
	return sp.run(next, depth, fn, merge, hints)
}

// chunkJob carries a chunk as read, its edge buffer and its hint to a
// worker; out (buffered, capacity 1) carries the shard back unblocked.
type chunkJob struct {
	raw   rawChunk
	edges []graph.Edge
	hint  graph.RunHint
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

// run is the pool's engine: next cuts each chunk into a job on the calling
// goroutine (no records: end of stream), workers decode and classify it
// with fn, and merge folds its shard back in chunk order, at most depth
// chunks behind dispatch, once hints (nil: none) took its hint back.
// Serial and parallel modes share the same dispatch/merge structure, so
// the sequence of next and merge calls — everything the simulated clock
// observes — is identical for every worker count. On any error it stops
// dispatching, joins every worker and returns the first error.
func (sp *ScatterPool) run(next func() (chunkJob, error), depth int, fn ScatterFunc, merge MergeFunc, hints Hints) error {
	parallel := sp.workers > 1
	var jobs chan chunkJob
	var wg sync.WaitGroup
	if parallel {
		jobs = make(chan chunkJob) // handed straight to a free worker
		wg.Add(sp.workers)
		for w := 0; w < sp.workers; w++ {
			go func() {
				defer wg.Done()
				for j := range jobs {
					j.out <- sp.classify(j, fn)
				}
			}()
		}
	}

	var pending []chan *Shard
	var firstErr error
	mergeOne := func() {
		sh := <-pending[0]
		push(sp, &sp.outs, pending[0])
		pending = pending[1:]
		if firstErr == nil {
			if firstErr = sh.Err; firstErr == nil && hints != nil {
				firstErr = hints.Merged(sh.hint)
			}
			if firstErr == nil {
				firstErr = merge(sh)
			}
		}
		sp.putShard(sh)
	}
	for firstErr == nil {
		j, err := next()
		if firstErr = err; err != nil || j.raw.n == 0 {
			push(sp, &sp.raws, j.raw.raw)
			push(sp, &sp.chunks, j.edges)
			break
		}
		if j.out = pop(sp, &sp.outs, func() chan *Shard { return make(chan *Shard, 1) }); parallel {
			jobs <- j
		} else {
			j.out <- sp.classify(j, fn)
		}
		pending = append(pending, j.out)
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

// classify decodes a chunk and runs fn over the records it kept into a
// recycled shard. The chunk's survivors compact into the front of its own
// buffer, which the shard then holds until it has been merged; a chunk
// that kept none gives the buffer straight back.
func (sp *ScatterPool) classify(j chunkJob, fn ScatterFunc) *Shard {
	sh := sp.getShard()
	sh.Read, sh.Stays, sh.hint = int64(j.raw.n), j.edges[:0], j.hint
	sp.classifyInto(j, sh, fn)
	push(sp, &sp.raws, j.raw.raw)
	if len(sh.Stays) > 0 {
		sh.chunk = j.edges
	} else {
		sh.Stays = nil
		push(sp, &sp.chunks, j.edges)
	}
	return sh
}

// classifyInto decodes one chunk and runs fn over it with utilization
// accounting. A decode error or a panic (in either, or the FaultHook) is
// sh.Err rather than killing the process: a long-lived server cannot
// afford one poisoned chunk taking every query down with it.
func (sp *ScatterPool) classifyInto(j chunkJob, sh *Shard, fn ScatterFunc) {
	defer func() {
		if r := recover(); r != nil {
			sh.Err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	var start time.Time
	if sp.BusyCounter != nil {
		start = time.Now()
	}
	n, err := j.raw.decode(j.edges, j.hint)
	if sh.Err = err; err != nil {
		return
	}
	if sp.FaultHook != nil {
		sp.FaultHook()
	}
	fn(j.edges[:n], sh)
	if sp.BusyCounter != nil {
		sp.BusyCounter.Add(time.Since(start).Nanoseconds())
	}
	sp.ChunkCounter.Add(1)
}
